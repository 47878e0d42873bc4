import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gencomm.denoiser as denoiser_mod
import gencomm.sampler as sampler_mod
from conftest import ZeroNoise
from gencomm.denoiser import AnalyticPredictor, ExactRecoveryOracle, GaussianWorld
from gencomm.errors import ConfigurationError, ContractError, DomainError
from gencomm.sampler import (SamplerConfig, _inversion, cfg_combine, predict_z0,
                             residual_forward, sample, sample_batch, sampler_step,
                             step_grid, warm_start)
from gencomm.schedule import build_schedule, inversion_coeffs, residual_weight, update_coeffs
from gencomm.verify import (check_cfg_identities, check_ddim_reduction,
                            check_exact_oracle_recovery, check_frozen_noise_trajectory,
                            check_inversion_roundtrip, check_warm_start_coincidence)

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

    def test_warm_start_coincidence(self, rng):
        check_warm_start_coincidence(rng, n=200)

    def test_dimension_mismatch(self, sched):
        with pytest.raises(ContractError):
            residual_forward(np.zeros(3), np.zeros(4), 10, 0.1, np.zeros(3), sched)

    def test_per_row_steps_match_one_step_calls_bitwise(self, sched, gamma, rng):
        z0, z_c, eps = rng.standard_normal((3, 7, 5))
        for ts in (rng.integers(1, WARM + 1, size=7), np.array([0, 1, 2, 999, 1000, 3, 3]),
                   np.full(7, 250)):
            got = residual_forward(z0, z_c, ts, gamma, eps, sched)
            for i, t in enumerate(ts.tolist()):
                assert np.array_equal(got[i],
                                      residual_forward(z0[i], z_c[i], t, gamma, eps[i], sched))
            # one shared step is the same as that step on every row
            assert np.array_equal(residual_forward(z0, z_c, ts[:1].repeat(7), gamma, eps, sched),
                                  residual_forward(z0, z_c, int(ts[0]), gamma, eps, sched))

    @pytest.mark.parametrize("bad", [-1, 1001, 10**6])
    def test_out_of_range_step_array_rejected(self, sched, rng, bad):
        z0, z_c, eps = rng.standard_normal((3, 4, 2))
        ts = np.array([1, 2, bad, 3])
        with pytest.raises(DomainError):
            residual_forward(z0, z_c, ts, 0.5, eps, sched)
        with pytest.raises(DomainError):
            residual_forward(z0[0], z_c[0], bad, 0.5, eps[0], sched)

    def test_step_array_must_have_one_step_per_row(self, sched):
        z = np.zeros((4, 2))
        for ts in (np.ones(3, dtype=int), np.ones(2, dtype=int), np.ones((4, 2), dtype=int)):
            with pytest.raises(ContractError):
                residual_forward(z, z, ts, 0.5, z, sched)


class TestInversionCoeffs:
    def test_values(self, sched, gamma):
        for t in (1, 37, WARM, sched.T):
            ab = sched.alpha_bar(t)
            root, denom = inversion_coeffs(t, gamma, sched)
            assert root == math.sqrt(1.0 - ab)
            assert denom == math.sqrt(ab) - math.sqrt(1.0 - ab) * gamma
        with pytest.raises(DomainError):
            inversion_coeffs(sched.T + 1, gamma, sched)

    def test_each_reader_calls_it(self, sched, gamma, rng, monkeypatch):
        # Swap in other coefficients: every reader must pick them up.
        fake = (0.75, -1.5)
        calls = []

        def spy(t, g, s):
            calls.append((t, g, s))
            return fake

        monkeypatch.setattr(sampler_mod, "inversion_coeffs", spy)
        monkeypatch.setattr(denoiser_mod, "inversion_coeffs", spy)
        d = 2
        world = GaussianWorld(mu0=np.zeros(d), sigma0=np.eye(d), obs_matrix=np.eye(d),
                              obs_noise_cov=0.2 * np.eye(d))
        z0, z_t, z_c = rng.standard_normal((3, 1, d))
        assert _inversion(77, gamma, sched) == fake
        # posterior G = I / 1.2, S = I / 6: eps = c (denom^2 S + c^2 I)^-1 (z_t - c gamma z_c
        # - denom G z_c)
        got = AnalyticPredictor(world, sched, gamma).predict(z_t, z_c, None, 77)
        want = 0.75 / (1.5**2 / 6.0 + 0.75**2) * (z_t - 0.75 * gamma * z_c + 1.5 * z_c / 1.2)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        got = ExactRecoveryOracle(z0, sched, gamma).predict(z_t, z_c, None, 77)
        assert np.array_equal(got, (z_t - 0.75 * gamma * z_c + 1.5 * z0) / 0.75)
        assert calls == [(77, gamma, sched)] * 3


class TestPredictZ0:
    def test_gamma_zero_is_ddim_prediction(self, sched, rng):
        z_t, eps = rng.standard_normal((2, 5))
        t = 444
        ab = sched.alpha_bar(t)
        want = (z_t - math.sqrt(1 - ab) * eps) / math.sqrt(ab)
        got = predict_z0(z_t, np.zeros(5), eps, t, 0.0, sched)
        assert np.allclose(got, want, atol=1e-13)

    def test_inverse_of_residual_forward(self, rng):
        check_inversion_roundtrip(rng, n=400)

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
        check_cfg_identities(rng)

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


class SingularStepRefuser:
    """Answers like CountingPredictor, but fails the test if it is asked for a
    prediction at a step where the clean-latent inversion is singular."""

    def __init__(self, gamma, sched):
        self.gamma, self.sched = gamma, sched
        self.steps = []

    def predict(self, z_t, z_c, prompt, t):
        ab = self.sched.alpha_bar(t)
        denom = math.sqrt(ab) - math.sqrt(1.0 - ab) * self.gamma
        assert abs(denom) > 1e-8, f"predictor called at singular step {t}"
        self.steps.append(t)
        return 0.1 * z_t


class TestSample:
    def test_exact_oracle_recovery(self, rng):
        check_exact_oracle_recovery(rng, n=20)

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
        assert (pred.cond_calls, pred.uncond_calls) == (4, 4)
        pred = CountingPredictor(3)
        sample(z_c, pred, "class:1", SamplerConfig(steps=5, warm_start_step=WARM,
                                                   guidance=1.0), sched,
               np.random.default_rng(0))
        assert (pred.cond_calls, pred.uncond_calls) == (4, 0)
        pred = CountingPredictor(3)
        sample(z_c, pred, None, SamplerConfig(steps=5, warm_start_step=WARM),
               sched, np.random.default_rng(0))
        assert (pred.cond_calls, pred.uncond_calls) == (0, 4)

    def test_no_prediction_at_the_singular_step(self, sched, gamma, rng):
        pred = SingularStepRefuser(gamma, sched)
        cfg = SamplerConfig(steps=5, warm_start_step=WARM, guidance=3.0)
        z_c, eps = rng.standard_normal((2, 3, 6))
        out, trace = sample_batch(z_c, pred, "class:1", cfg, sched, eps)
        grid = step_grid(WARM, 5)
        assert sorted(set(pred.steps), reverse=True) == grid[1:]
        assert len(pred.steps) == 2 * len(grid[1:])
        assert np.array_equal(trace.steps[0].z0_hat, z_c)
        assert np.all(np.isfinite(out))

    def test_one_step_run_keeps_its_call(self, sched, rng):
        # The lone step is singular, but its call still surfaces predictor errors.
        with pytest.raises(RuntimeError, match="backbone unavailable"):
            sample(rng.standard_normal(3), FailingPredictor(), None,
                   SamplerConfig(steps=1, warm_start_step=WARM), sched,
                   np.random.default_rng(0))

    def test_steep_schedule_steps_within_the_tolerance_are_singular(self, rng):
        # Under constant beta = 0.5 every grid step's denominator is below 1e-8
        # (6e-61 at t = 400), not only the warm start's: none may be divided by.
        steep = build_schedule(T=1000, beta_min=0.5, beta_max=0.5)
        z_c = rng.standard_normal(3)
        pred = CountingPredictor(3)
        out, _ = sample(z_c, pred, "class:1", SamplerConfig(steps=5, warm_start_step=500),
                        steep, np.random.default_rng(0))
        assert (pred.cond_calls, pred.uncond_calls) == (0, 0)
        assert np.array_equal(out, z_c)

    def test_trace_has_no_prediction_at_the_singular_step(self, sched, rng):
        cfg = SamplerConfig(steps=5, warm_start_step=WARM, guidance=3.0)
        _, trace = sample(rng.standard_normal(3), CountingPredictor(3), "class:1", cfg,
                          sched, np.random.default_rng(0))
        assert [s.eps_hat is None for s in trace.steps] == [True] + [False] * 4
        assert all(s.eps_hat.shape == (3,) for s in trace.steps[1:])

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
            assert (runs[False][1], runs[True][1]) == (4, 8)
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
    def test_zero_residual_weight_reduces_to_ddim(self, rng):
        check_ddim_reduction(rng, n=1000)


class TestFrozenNoiseTrajectory:
    def test_forced_clean_latent_keeps_state_on_trajectory(self, rng):
        # The true clean latent replaces the estimate at every update.
        check_frozen_noise_trajectory(rng, n=30)


def test_final_update_lands_exactly_on_clean_estimate(sched, rng):
    # alpha_bar(0) == 1 makes the last update collapse to the predicted
    # clean latent bitwise.
    a, b = update_coeffs(0, 100, sched)
    assert (a, b) == (0.0, 1.0)
    z, z0_hat = rng.standard_normal((2, 5))
    assert np.array_equal(sampler_step(z, z0_hat, 0, 100, sched), z0_hat)
