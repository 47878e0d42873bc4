import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import ZeroNoise
from gencomm.denoiser import AnalyticPredictor, ExactRecoveryOracle, GaussianWorld
from gencomm.errors import ConfigurationError, ContractError
from gencomm.sampler import (SamplerConfig, cfg_combine, predict_z0,
                             residual_forward, sample, sampler_step, step_grid,
                             warm_start)
from gencomm.schedule import build_schedule, residual_weight, update_coeffs

WARM = 500


@pytest.fixture(scope="module")
def gamma(sched):
    return residual_weight(WARM, sched)


def finite_vec(d=6):
    return hnp.arrays(np.float64, d, elements=st.floats(-50, 50))


class TestWarmStart:
    def test_zero_noise(self, sched):
        z_c = np.array([1.0, -2.0, 0.5])
        z_init, eps = warm_start(z_c, WARM, sched, ZeroNoise())
        root = math.sqrt(sched.alpha_bar(WARM))
        assert np.allclose(z_init, root * z_c, atol=1e-15)
        assert np.all(eps == 0.0)

    def test_no_corruption_limit(self):
        sched = build_schedule(T=1, beta_min=1e-12, beta_max=1e-12)
        z_c = np.array([3.0, -1.0])
        z_init, _ = warm_start(z_c, 1, sched, np.random.default_rng(0))
        assert np.allclose(z_init, z_c, atol=1e-5)

    def test_monte_carlo_mean(self, sched, rng):
        n, d = 100_000, 4
        z_c_row = np.array([0.7, -1.1, 2.0, 0.0])
        z_c = np.tile(z_c_row, (n, 1))
        z_init, _ = warm_start(z_c, WARM, sched, rng)
        ab = sched.alpha_bar(WARM)
        se = math.sqrt(1.0 - ab) / math.sqrt(n)
        err = np.abs(z_init.mean(axis=0) - math.sqrt(ab) * z_c_row)
        assert np.all(err <= 3.0 * se)


class TestResidualForward:
    def test_gamma_zero_is_standard_forward(self, sched, rng):
        z0, z_c, eps = rng.standard_normal((3, 5))
        t = 333
        ab = sched.alpha_bar(t)
        want = math.sqrt(ab) * z0 + math.sqrt(1 - ab) * eps
        got = residual_forward(z0, z_c, t, 0.0, eps, sched)
        assert np.allclose(got, want, atol=1e-15)

    def test_clean_decode_is_standard_forward(self, sched, rng):
        z0, eps = rng.standard_normal((2, 5))
        t = 250
        ab = sched.alpha_bar(t)
        want = math.sqrt(ab) * z0 + math.sqrt(1 - ab) * eps
        for g in (0.0, 0.4, 3.0):
            got = residual_forward(z0, z0, t, g, eps, sched)
            assert np.allclose(got, want, atol=1e-13)

    def test_warm_start_coincidence(self, sched, gamma, rng):
        for _ in range(50):
            z0, z_c = rng.standard_normal((2, 8))
            z_init, eps = warm_start(z_c, WARM, sched, rng)
            fwd = residual_forward(z0, z_c, WARM, gamma, eps, sched)
            assert np.max(np.abs(fwd - z_init)) <= 1e-12

    def test_dimension_mismatch(self, sched):
        with pytest.raises(ContractError):
            residual_forward(np.zeros(3), np.zeros(4), 10, 0.1, np.zeros(3), sched)


class TestPredictZ0:
    def test_gamma_zero_is_ddim_prediction(self, sched, rng):
        z_t, eps = rng.standard_normal((2, 5))
        t = 444
        ab = sched.alpha_bar(t)
        want = (z_t - math.sqrt(1 - ab) * eps) / math.sqrt(ab)
        got = predict_z0(z_t, np.zeros(5), eps, t, 0.0, sched)
        assert np.allclose(got, want, atol=1e-13)

    def test_inverse_of_residual_forward(self, sched, gamma, rng):
        for _ in range(100):
            t = int(rng.integers(1, WARM))
            z0, z_c, eps = rng.standard_normal((3, 6))
            z_t = residual_forward(z0, z_c, t, gamma, eps, sched)
            assert np.max(np.abs(predict_z0(z_t, z_c, eps, t, gamma, sched) - z0)) <= 1e-10

    @given(z0=finite_vec(), z_c=finite_vec(), eps=finite_vec(),
           t=st.integers(1, WARM - 1))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, sched, z0, z_c, eps, t):
        gamma = residual_weight(WARM, sched)
        z_t = residual_forward(z0, z_c, t, gamma, eps, sched)
        back = predict_z0(z_t, z_c, eps, t, gamma, sched)
        assert np.max(np.abs(back - z0)) <= 1e-8 * max(1.0, np.max(np.abs(z0)))

    def test_singular_step_returns_decoded_latent(self, sched, gamma, rng):
        # The denominator cancels exactly at the warm-start step.
        ab = sched.alpha_bar(WARM)
        denom = math.sqrt(ab) - math.sqrt(1 - ab) * gamma
        assert abs(denom) <= 1e-12
        z_t, z_c, eps = rng.standard_normal((3, 4))
        out = predict_z0(z_t, z_c, eps, WARM, gamma, sched)
        assert np.array_equal(out, z_c)

    def test_singular_cancellation_is_exact_rationally(self, sched):
        # gamma^2 = abar/(1-abar), so (1-abar)*gamma^2 == abar identically;
        # with positive square roots that forces the denominator to zero.
        for t in (100, 500, 900):
            ab = Fraction(sched.alpha_bar(t))
            gamma_sq = ab / (1 - ab)
            assert (1 - ab) * gamma_sq == ab


class TestCfgCombine:
    def test_endpoint_identities_bitwise(self, rng):
        u, c = rng.standard_normal((2, 16))
        assert np.array_equal(cfg_combine(u, c, 1.0), c)
        assert np.array_equal(cfg_combine(u, c, 0.0), u)

    def test_extrapolation(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.allclose(cfg_combine(np.zeros(3), v, 2.0), 2.0 * v, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            cfg_combine(np.zeros(3), np.zeros(4), 1.5)

    @given(u=finite_vec(), c=finite_vec(), omega=st.floats(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_linearity_property(self, u, c, omega):
        out = cfg_combine(u, c, omega)
        assert np.allclose(out, (1 - omega) * u + omega * c, atol=1e-9)


class TestStepGrid:
    def test_paper_budget_grid(self):
        assert step_grid(500, 5) == [500, 400, 300, 200, 100]

    def test_non_integral_decrement(self):
        assert step_grid(500, 3) == [500, 333, 167]

    def test_full_grid(self):
        assert step_grid(5, 5) == [5, 4, 3, 2, 1]

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            step_grid(3, 7)


class CountingPredictor:
    def __init__(self, d):
        self.d = d
        self.cond_calls = 0
        self.uncond_calls = 0

    def predict(self, z_t, z_c, prompt, t):
        if prompt is None:
            self.uncond_calls += 1
        else:
            self.cond_calls += 1
        return 0.1 * z_t + (0.0 if prompt is None else 0.05)


class FailingPredictor:
    def predict(self, z_t, z_c, prompt, t):
        raise RuntimeError("backbone unavailable")


class TestSample:
    def test_exact_oracle_recovery(self, sched, gamma, rng):
        cfg = SamplerConfig(steps=5, warm_start_step=WARM)
        for _ in range(20):
            z0, z_c = rng.standard_normal((2, 8))
            oracle = ExactRecoveryOracle(z0, sched, gamma)
            out, trace = sample(z_c, oracle, None, cfg, sched,
                                np.random.default_rng(rng.integers(2**32)))
            assert np.max(np.abs(out - z0)) <= 1e-9
            # every non-singular step recovered the clean latent exactly
            for step in trace.steps[1:]:
                assert np.max(np.abs(step.z0_hat - z0)) <= 1e-9

    def test_trace_shape(self, sched, rng):
        cfg = SamplerConfig(steps=4, warm_start_step=400)
        pred = CountingPredictor(3)
        _, trace = sample(rng.standard_normal(3), pred, "class:1", cfg, sched,
                          np.random.default_rng(0))
        ts = [s.t for s in trace.steps]
        assert len(trace.steps) == 4
        assert ts == sorted(ts, reverse=True) and len(set(ts)) == 4

    def test_predictor_call_counts(self, sched, rng):
        z_c = rng.standard_normal(3)
        pred = CountingPredictor(3)
        sample(z_c, pred, "class:1", SamplerConfig(steps=5, warm_start_step=WARM,
                                                   guidance=3.0), sched,
               np.random.default_rng(0))
        assert (pred.cond_calls, pred.uncond_calls) == (5, 5)
        pred = CountingPredictor(3)
        sample(z_c, pred, "class:1", SamplerConfig(steps=5, warm_start_step=WARM,
                                                   guidance=1.0), sched,
               np.random.default_rng(0))
        assert (pred.cond_calls, pred.uncond_calls) == (5, 0)
        pred = CountingPredictor(3)
        sample(z_c, pred, None, SamplerConfig(steps=5, warm_start_step=WARM),
               sched, np.random.default_rng(0))
        assert (pred.cond_calls, pred.uncond_calls) == (0, 5)

    def test_prompt_blind_predictors_skip_guidance_pass(self, sched, gamma, rng):
        d = 6
        world = GaussianWorld(mu0=np.zeros(d), sigma0=np.eye(d), obs_matrix=np.eye(d),
                              obs_noise_cov=0.2 * np.eye(d))
        z0, z_c = rng.standard_normal((2, d))
        cfg = SamplerConfig(steps=5, warm_start_step=WARM, guidance=3.0)
        for cls, args in ((AnalyticPredictor, (world, sched, gamma)),
                          (ExactRecoveryOracle, (z0, sched, gamma))):
            assert cls.uses_prompt is False
            runs = {}
            for uses_prompt in (False, True):
                class Counting(cls):
                    calls = 0

                    def predict(self, *a):
                        self.calls += 1
                        return super().predict(*a)

                Counting.uses_prompt = uses_prompt
                pred = Counting(*args)
                out, _ = sample(z_c, pred, "class:2", cfg, sched, np.random.default_rng(8))
                runs[uses_prompt] = (out, pred.calls)
            assert (runs[False][1], runs[True][1]) == (5, 10)
            assert np.array_equal(runs[False][0], runs[True][0])

    def test_determinism_bitwise(self, sched, rng):
        z_c = rng.standard_normal(6)
        cfg = SamplerConfig(steps=5, warm_start_step=WARM, guidance=2.0)
        pred = CountingPredictor(6)
        a, _ = sample(z_c, pred, "class:2", cfg, sched, np.random.default_rng(42))
        b, _ = sample(z_c, pred, "class:2", cfg, sched, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_predictor_failure_propagates(self, sched, rng):
        with pytest.raises(RuntimeError, match="backbone unavailable"):
            sample(rng.standard_normal(3), FailingPredictor(), None,
                   SamplerConfig(steps=2, warm_start_step=200), sched,
                   np.random.default_rng(0))

    def test_warm_start_beyond_schedule_rejected(self, sched):
        with pytest.raises(ConfigurationError):
            sample(np.zeros(3), CountingPredictor(3), None,
                   SamplerConfig(steps=2, warm_start_step=2000), sched,
                   np.random.default_rng(0))

    def test_default_step_budget(self):
        assert SamplerConfig().steps == 5

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SamplerConfig(steps=10, warm_start_step=5)
        with pytest.raises(ConfigurationError):
            SamplerConfig(steps=0, warm_start_step=5)


class TestAgainstTextbookDdim:
    def _textbook_ddim_step(self, x, eps_hat, ab_t, ab_prev):
        # independent deterministic DDIM update, straight from the defining
        # formula: x0 = (x - sqrt(1-ab)*eps)/sqrt(ab);
        # x_prev = sqrt(ab_prev)*x0 + sqrt(1-ab_prev)*eps.
        x0 = (x - math.sqrt(1.0 - ab_t) * eps_hat) / math.sqrt(ab_t)
        return math.sqrt(ab_prev) * x0 + math.sqrt(1.0 - ab_prev) * eps_hat

    def test_zero_residual_weight_reduces_to_ddim(self, sched, rng):
        for _ in range(1000):
            t = int(rng.integers(2, sched.T))
            t_prev = int(rng.integers(1, t))
            x, eps_hat = rng.standard_normal((2, 4))
            want = self._textbook_ddim_step(x, eps_hat, sched.alpha_bar(t),
                                            sched.alpha_bar(t_prev))
            z0_hat = predict_z0(x, np.zeros(4), eps_hat, t, 0.0, sched)
            got = sampler_step(x, z0_hat, t_prev, t, sched)
            assert np.max(np.abs(got - want)) <= 1e-12


class TestFrozenNoiseTrajectory:
    def test_forced_clean_latent_keeps_state_on_trajectory(self, sched, gamma, rng):
        # Premise of the invariant: the clean-latent estimate is replaced by
        # the true clean latent at every update, including the singular first
        # step where the inversion cannot produce it.
        for _ in range(30):
            z0, z_c = rng.standard_normal((2, 8))
            z, eps = warm_start(z_c, WARM, sched, rng)
            combined = gamma * (z_c - z0) + eps
            grid = step_grid(WARM, 5) + [0]
            for t, t_prev in zip(grid[:-1], grid[1:]):
                ab = sched.alpha_bar(t)
                want = math.sqrt(ab) * z0 + math.sqrt(1 - ab) * combined
                assert np.max(np.abs(z - want)) <= 1e-9
                z = sampler_step(z, z0, t_prev, t, sched)
            assert np.max(np.abs(z - z0)) <= 1e-9


def test_final_update_lands_exactly_on_clean_estimate(sched, rng):
    # alpha_bar(0) == 1 makes the last update collapse to the predicted
    # clean latent bitwise.
    a, b = update_coeffs(0, 100, sched)
    assert (a, b) == (0.0, 1.0)
    z, z0_hat = rng.standard_normal((2, 5))
    assert np.array_equal(sampler_step(z, z0_hat, 0, 100, sched), z0_hat)
