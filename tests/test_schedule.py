import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomm.errors import ConfigurationError, DomainError
from gencomm.schedule import (build_schedule, coeffs_from_alpha_bars, residual_weight,
                              update_coeffs)

# Frozen outputs of an independent plain-Python product-accumulation script
# (loop over beta_t = bmin + (bmax-bmin)*i/(T-1), abar *= 1-beta).
ABAR_1000_LINEAR = 4.0358297653756754e-05
ABAR_500_LINEAR = 0.07858724288177821
ABAR_1000_SCALED = 0.0007334124595808173
GAMMA_500 = 0.2920444220707474


def test_single_step_product():
    sched = build_schedule(T=1, beta_min=0.1, beta_max=0.1)
    assert sched.alpha_bar(1) == pytest.approx(0.9, abs=1e-15)


def test_alpha_bar_zero_is_one(sched):
    assert sched.alpha_bar(0) == 1.0
    assert build_schedule(T=3, beta_min=0.5, beta_max=0.9).alpha_bar(0) == 1.0


def test_default_schedule_matches_independent_product(sched):
    assert sched.T == 1000
    assert abs(sched.alpha_bar(1000) - ABAR_1000_LINEAR) / ABAR_1000_LINEAR <= 1e-10
    assert abs(sched.alpha_bar(500) - ABAR_500_LINEAR) / ABAR_500_LINEAR <= 1e-10


def test_scaled_linear_matches_independent_product():
    sched = build_schedule(kind="scaled_linear")
    assert abs(sched.alpha_bar(1000) - ABAR_1000_SCALED) / ABAR_1000_SCALED <= 1e-10


def test_cumulative_product_identity(sched):
    prod = np.cumprod(sched.alphas)
    rel = np.abs(sched.alpha_bars[1:] - prod) / prod
    assert rel.max() <= 1e-14


def test_alpha_bar_strictly_decreasing(sched):
    assert np.all(np.diff(sched.alpha_bars) < 0)


@pytest.mark.parametrize("bad", [
    dict(T=0),
    dict(beta_min=0.0),
    dict(beta_max=1.0),
    dict(beta_min=0.5, beta_max=0.1),
    dict(kind="cosine"),
])
def test_build_schedule_rejects_bad_bounds(bad):
    with pytest.raises(ConfigurationError):
        build_schedule(**{"T": 10, "beta_min": 1e-4, "beta_max": 0.02,
                          "kind": "linear", **bad})


@given(T=st.integers(1, 200),
       bmin=st.floats(1e-6, 0.1),
       spread=st.floats(1.0, 5.0),
       kind=st.sampled_from(["linear", "scaled_linear"]))
@settings(max_examples=50, deadline=None)
def test_schedule_invariants_property(T, bmin, spread, kind):
    bmax = min(bmin * spread, 0.999)
    sched = build_schedule(T=T, beta_min=bmin, beta_max=bmax, kind=kind)
    assert sched.alpha_bar(0) == 1.0
    assert np.all((sched.betas > 0) & (sched.betas < 1))
    assert np.all(np.diff(sched.alpha_bars) < 0)
    step_ratio = sched.alpha_bars[1:] / sched.alpha_bars[:-1]
    assert np.max(np.abs(step_ratio - sched.alphas) / sched.alphas) <= 1e-13


class TestResidualWeight:
    def test_symmetry_point(self):
        # engineer abar_1 = 0.5
        sched = build_schedule(T=1, beta_min=0.5, beta_max=0.5)
        assert residual_weight(1, sched) == pytest.approx(1.0, abs=1e-14)

    def test_point_eight(self):
        sched = build_schedule(T=1, beta_min=0.2, beta_max=0.2)
        assert residual_weight(1, sched) == pytest.approx(2.0, abs=1e-12)

    def test_default_at_500(self, sched):
        assert abs(residual_weight(500, sched) - GAMMA_500) <= 1e-12

    def test_step_zero_rejected(self, sched):
        with pytest.raises(DomainError):
            residual_weight(0, sched)


class TestUpdateCoeffs:
    def test_direct_evaluation(self):
        a, b = coeffs_from_alpha_bars(0.8, 0.5)
        assert a == pytest.approx(0.632456, abs=1e-6)
        assert b == pytest.approx(0.447214, abs=1e-6)

    def test_equal_alpha_bars_identity_update(self):
        a, b = coeffs_from_alpha_bars(0.37, 0.37)
        assert a == pytest.approx(1.0, abs=1e-14)
        assert b == pytest.approx(0.0, abs=1e-14)

    def test_first_line_of_coefficient_system(self, sched, rng):
        for _ in range(200):
            t = int(rng.integers(2, sched.T + 1))
            t_prev = int(rng.integers(0, t))
            a, b = update_coeffs(t_prev, t, sched)
            lhs = a * math.sqrt(sched.alpha_bar(t)) + b
            assert abs(lhs - math.sqrt(sched.alpha_bar(t_prev))) <= 1e-12

    def test_rejects_bad_ordering(self, sched):
        with pytest.raises(DomainError):
            update_coeffs(5, 5, sched)
        with pytest.raises(DomainError):
            update_coeffs(7, 3, sched)
        with pytest.raises(DomainError):
            coeffs_from_alpha_bars(0.5, 1.0)
