import numpy as np
import pytest

from gencomm.channel import snr_to_sigma2
from gencomm.errors import ConfigurationError, ContractError
from gencomm.jscc import CodecConfig, cbr, make_linear_codec
from gencomm.verify import check_codec_properties


@pytest.fixture(scope="module")
def wide_codec():
    # 16-dim latent compressed into 4 channel dims
    return make_linear_codec(CodecConfig(k_prime=8, k=2), seed=77)


class TestConstruction:
    def test_same_seed_identical(self):
        cfg = CodecConfig(k_prime=6, k=3)
        a = make_linear_codec(cfg, seed=5)
        b = make_linear_codec(cfg, seed=5)
        assert np.array_equal(a.projection, b.projection)
        c = make_linear_codec(cfg, seed=6)
        assert not np.array_equal(a.projection, c.projection)

    def test_rejects_expansion(self):
        with pytest.raises(ConfigurationError):
            CodecConfig(k_prime=2, k=3)


class TestEncodeDecode:
    def test_row_space_isometry(self, wide_codec, rng):
        coeffs = rng.standard_normal(4)
        z = wide_codec.projection.T @ coeffs  # lives in the row space
        assert np.linalg.norm(wide_codec.projection @ z) == pytest.approx(
            np.linalg.norm(z), rel=1e-12)

    def test_encoded_length(self, wide_codec, rng):
        x, scales = wide_codec.encode(rng.standard_normal((3, 16)))
        assert x.shape == (3, 4) and scales.shape == (3,)

    def test_decode_projects_onto_row_space(self, rng):
        check_codec_properties(rng)

    def test_tikhonov_shrinkage(self, rng):
        codec = make_linear_codec(CodecConfig(k_prime=4, k=4), seed=3,
                                  tikhonov_lambda=2.0)
        plain = make_linear_codec(CodecConfig(k_prime=4, k=4), seed=3)
        z = rng.standard_normal((1, 8))
        x, scale = codec.encode(z)
        sigma2 = snr_to_sigma2(3.0)
        shrunk = codec.decode(x, sigma2, scale)
        ref = plain.decode(x, sigma2, scale)
        assert np.allclose(shrunk, ref / (1.0 + 2.0 * sigma2), atol=1e-12)

    def test_dimension_contracts(self, wide_codec):
        # A single latent is a batch of one: a 1-d input is refused like a wrong width.
        for shape in ((16,), (1, 7), (2, 1, 16)):
            with pytest.raises(ContractError):
                wide_codec.encode(np.ones(shape))
        for shape in ((4,), (1, 5), (2, 1, 4)):
            with pytest.raises(ContractError):
                wide_codec.decode(np.ones(shape), 0.0, np.ones(1))


class TestCbr:
    def test_no_compression(self):
        cfg = CodecConfig(k_prime=64, k=64, height=8, width=8, channels=1)
        assert cbr(cfg) == 1.0

    def test_quarters_when_resolution_doubles(self):
        lo = CodecConfig(k_prime=640, k=640, height=256, width=256, channels=3)
        hi = CodecConfig(k_prime=640, k=640, height=512, width=512, channels=3)
        assert cbr(hi) == pytest.approx(cbr(lo) / 4.0, rel=1e-12)

