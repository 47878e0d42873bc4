import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gencomm.channel import (ChannelConfig, mmse_equalize, normalize_power,
                             pack_complex, snr_to_sigma2, transmit, unpack_complex)
from gencomm.errors import ConfigurationError, ContractError, NormalizationError
from gencomm.verify import check_channel_basics, check_channel_calibration, check_mmse_vs_zf


def test_pack_assigns_halves(rng):
    check_channel_basics(rng)


def test_pack_zero_vector():
    assert np.all(pack_complex(np.zeros(8)) == 0)


def test_pack_rejects_odd_length():
    with pytest.raises(ContractError):
        pack_complex(np.zeros(5))


@given(hnp.arrays(np.float64, st.integers(1, 40).map(lambda k: 2 * k),
                  elements=st.floats(-1e6, 1e6)))
@settings(max_examples=100, deadline=None)
def test_pack_unpack_roundtrip(x):
    assert np.array_equal(unpack_complex(pack_complex(x)), x)


class TestNormalizePower:
    def test_unit_power_untouched(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])  # power (1/k)*sum = 2... no:
        # k = 2 complex symbols; total energy 4 -> power 2; use sqrt(1/2) amps
        x = x / np.sqrt(2.0)
        x_norm, scale = normalize_power(x)
        assert scale == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(x_norm, x, atol=1e-15)

    def test_homogeneity(self, rng):
        x = rng.standard_normal(32)
        x_norm, scale = normalize_power(x)
        x_norm2, scale2 = normalize_power(2.0 * x)
        assert np.allclose(x_norm, x_norm2, atol=1e-14)
        assert scale2 == pytest.approx(scale / 2.0, rel=1e-14)

    def test_resulting_power_is_unit(self, rng):
        for _ in range(20):
            x = rng.standard_normal(2 * int(rng.integers(1, 50)))
            x_norm, _ = normalize_power(x)
            k = len(x_norm) // 2
            assert abs(np.dot(x_norm, x_norm) / k - 1.0) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError):
            normalize_power(np.zeros(6))


@pytest.mark.parametrize("snr_db,expected,tol", [
    (0.0, 1.0, 1e-15),
    (10.0, 0.1, 1e-15),
    (3.0, 0.501187, 1e-6),
    (float("inf"), 0.0, 0.0),
])
def test_snr_to_sigma2(snr_db, expected, tol):
    assert snr_to_sigma2(snr_db) == pytest.approx(expected, abs=tol)


class TestTransmit:
    def test_awgn_gain_is_all_ones(self, rng):
        x = pack_complex(normalize_power(rng.standard_normal(16))[0])
        _, h = transmit(x, ChannelConfig("awgn", 10.0), rng)
        assert np.array_equal(h, np.ones(8, dtype=complex))

    def test_noiseless_limit(self, rng):
        x = pack_complex(normalize_power(rng.standard_normal(16))[0])
        y, h = transmit(x, ChannelConfig("rayleigh", float("inf")), rng)
        assert np.max(np.abs(y - h * x)) <= 1e-15

    def test_noise_variance_calibration(self, rng):
        # also: Rayleigh unit mean gain
        check_channel_calibration(rng, n=1_000_000)

    def test_deterministic_given_seed(self, rng):
        x = pack_complex(normalize_power(rng.standard_normal(20))[0])
        cfg = ChannelConfig("rayleigh", 5.0)
        y1, h1 = transmit(x, cfg, np.random.default_rng(9))
        y2, h2 = transmit(x, cfg, np.random.default_rng(9))
        assert np.array_equal(y1, y2) and np.array_equal(h1, h2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelConfig("rician", 10.0)


class TestEqualizers:
    def test_noiseless_identity(self, rng):
        x = normalize_power(rng.standard_normal(12))[0]
        x_hat = mmse_equalize(pack_complex(x), np.ones(6, dtype=complex), 0.0)
        assert np.allclose(x_hat, x, atol=1e-15)

    def test_scalar_arithmetic(self):
        y = np.array([2.0 + 0.0j])
        x_hat = mmse_equalize(y, np.ones(1, dtype=complex), 1.0)
        assert x_hat[0] == pytest.approx(1.0, abs=1e-15)

    def test_mmse_beats_zero_forcing_on_rayleigh(self, rng):
        check_mmse_vs_zf(rng, n=100_000)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            mmse_equalize(np.zeros(3, dtype=complex), np.zeros(4, dtype=complex), 0.1)
