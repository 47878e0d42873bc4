import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gencomm.errors import ContractError
from gencomm.metrics import frechet_gauss, mse, psnr
from gencomm.verify import check_metrics


class TestMse:
    def test_identical_vectors(self, rng):
        check_metrics(rng)

    def test_against_plain_python(self, rng):
        a = rng.standard_normal(37)
        b = rng.standard_normal(37)
        want = sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)) / 37
        assert mse(a, b) == pytest.approx(want, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            mse(np.zeros(3), np.zeros(4))


class TestPsnr:
    def test_zero_error_is_infinite(self):
        assert psnr(0.0, 1.0) == math.inf

    def test_negative_mse_rejected(self):
        with pytest.raises(ContractError):
            psnr(-1e-9, 1.0)

    @given(m1=st.floats(1e-12, 1e3), m2=st.floats(1e-12, 1e3))
    @example(m1=999.9999999999999, m2=1000.0)
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform(self, m1, m2):
        # Nearly equal errors can round to one PSNR (both -30.0 dB for the
        # example), so the order is strict only past a relative gap that is
        # far above one ulp of the PSNR over the drawn range.
        lo, hi = min(m1, m2), max(m1, m2)
        assert psnr(lo, 1.0) >= psnr(hi, 1.0)
        if hi >= lo * (1.0 + 1e-9):
            assert psnr(lo, 1.0) > psnr(hi, 1.0)


class TestFrechetGauss:
    def test_pure_mean_shift(self, rng):
        batch = rng.standard_normal((200, 5))
        delta = np.array([1.0, -0.5, 2.0, 0.0, 0.25])
        got = frechet_gauss(batch, batch + delta)
        assert got == pytest.approx(float(delta @ delta), abs=1e-6)

    def test_diagonal_case_matches_per_coordinate_formula(self, rng):
        # rotate each batch into its own covariance eigenbasis so both
        # sample covariances are exactly diagonal, then the matrix formula
        # must agree with the scalar per-coordinate evaluation
        def whiten_axes(batch):
            cov = np.cov(batch, rowvar=False, ddof=1)
            _, vecs = np.linalg.eigh(cov)
            return batch @ vecs

        a = whiten_axes(rng.standard_normal((300, 4)) * np.array([1, 2, 3, 4.0]))
        b = whiten_axes(rng.standard_normal((300, 4)) + 0.5)
        got = frechet_gauss(a, b)
        mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
        va = np.var(a, axis=0, ddof=1)
        vb = np.var(b, axis=0, ddof=1)
        want = float(np.sum((mu_a - mu_b) ** 2)
                     + np.sum(va + vb - 2.0 * np.sqrt(va * vb)))
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8)

    def test_batch_size_precondition(self, rng):
        with pytest.raises(ContractError):
            frechet_gauss(rng.standard_normal((4, 4)), rng.standard_normal((10, 4)))

    def test_rank_deficient_batches_are_regularized(self, rng):
        a = rng.standard_normal((40, 3))
        a[:, 2] = 1.0  # constant coordinate -> singular covariance
        b = a + 0.01 * rng.standard_normal((40, 3))
        out = frechet_gauss(a, b)
        assert math.isfinite(out) and out >= 0.0

    def test_symmetry(self, rng):
        a = rng.standard_normal((60, 3))
        b = 2.0 + 0.5 * rng.standard_normal((60, 3))
        assert frechet_gauss(a, b) == pytest.approx(frechet_gauss(b, a), rel=1e-9)
