import dataclasses
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gencomm.cli import main
from gencomm.config import load_config
from gencomm.denoiser import (NULL_PROMPT, AnalyticPredictor, GaussianWorld,
                              MlpDenoiser, TrainConfig, _psd_eigh,
                              load_checkpoint, loss_and_grads,
                              prepare_diffusion_batch, prompt_to_index,
                              save_checkpoint, time_embedding, train)
from gencomm.errors import ConfigurationError, ContractError, TrainingError
from gencomm.jscc import CodecConfig, make_linear_codec
from gencomm.pipeline import build_context, make_training_set
from gencomm.sampler import residual_forward
from gencomm.schedule import inversion_coeffs, residual_weight
from gencomm.verify import check_analytic_predictor, check_gradients, check_prompt_dropout

GAMMA = 0.3

# Pinned self-consistency snapshot: MlpDenoiser(latent_dim=4, hidden=16,
# time_dim=8, prompt_dim=4, n_classes=5, seed=314) on the fixed probe below,
# through the float64 training pass, and through float32 `predict`.
GOLDEN_PROBE_OUT = [0.18051467258291917, 0.06874601223701958,
                    0.40172909638460486, 0.039522918496625856]
GOLDEN_PROBE_PREDICT = [0.1805146187543869, 0.06874597817659378,
                        0.4017292261123657, 0.0395229235291481]


def sample_pair(world, rng, n):
    """Draw n pairs (z0, z_c), each (n, dim), from the world's own law.

    Both roots zero the eigenvalues the predictor's solves treat as null, so
    z_c stays on the codec's support as the model puts it."""
    def root(mat):
        vals, vecs = _psd_eigh(mat)
        return (vecs * np.sqrt(vals)) @ vecs.T

    z0 = world.mu0 + rng.standard_normal((n, world.dim)) @ root(world.sigma0).T
    noise = rng.standard_normal((n, world.dim)) @ root(world.obs_noise_cov).T
    return z0, z0 @ world.obs_matrix.T + noise


class TestGaussianWorld:
    def test_validates_shapes_and_symmetry(self):
        with pytest.raises(ConfigurationError):
            GaussianWorld(mu0=np.zeros(3), sigma0=np.eye(4), obs_matrix=np.eye(3),
                          obs_noise_cov=np.eye(3))
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(ConfigurationError):
            GaussianWorld(mu0=np.zeros(3), sigma0=bad, obs_matrix=np.eye(3),
                          obs_noise_cov=np.eye(3))

    def test_sample_pair_matches_model_moments(self, rng):
        codec = make_linear_codec(CodecConfig(k_prime=3, k=1), seed=1)
        world = GaussianWorld.ar1(codec, snr_db=10.0, rho=0.8)
        z0, z_c = sample_pair(world, rng, n=200_000)
        want_cov_c = (world.obs_matrix @ world.sigma0 @ world.obs_matrix.T
                      + world.obs_noise_cov)
        got_cov_c = np.cov(z_c, rowvar=False)
        assert np.max(np.abs(got_cov_c - want_cov_c)) <= 0.02
        assert np.max(np.abs(z0.mean(axis=0))) <= 0.02

    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_sample_pair_stays_on_the_codec_support(self, kind):
        # The decoded latent lives in the projection's row space; a noise root
        # that kept the rounding residue of the null eigenvalues leaked ~1e-8.
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "snr_sweep.cfg")
        cfg = dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel, kind=kind))
        ctx = build_context(cfg, snr_db=1.0)
        proj = ctx.codec.projection
        _, z_c = sample_pair(ctx.world, np.random.default_rng(3), n=1000)
        assert np.max(np.abs(z_c - (z_c @ proj.T) @ proj)) <= 1e-14

    def test_clean_posterior_cov_bounds(self):
        codec = make_linear_codec(CodecConfig(k_prime=4, k=1), seed=2)
        world = GaussianWorld.ar1(codec, snr_db=10.0, rho=0.9)
        cov = world.clean_posterior_cov()
        assert np.trace(cov) <= np.trace(world.sigma0) + 1e-12
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-10)

    def test_posterior_is_computed_once(self, sched):
        codec = make_linear_codec(CodecConfig(k_prime=3, k=1), seed=4)
        world = GaussianWorld.ar1(codec, snr_db=4.0, rho=0.7)
        a = world.obs_matrix
        gain, cov = world.posterior
        assert world.posterior is world.posterior
        cross = world.sigma0 @ a.T
        cov_c = a @ world.sigma0 @ a.T + world.obs_noise_cov
        assert np.allclose(gain, cross @ np.linalg.pinv(cov_c, hermitian=True, rcond=1e-12),
                           rtol=0.0, atol=1e-10)
        assert np.array_equal(cov, world.sigma0 - gain @ cross.T)
        # both readers see the cached arrays: scaling them moves both results
        pred = AnalyticPredictor(world, sched, GAMMA)
        z_t, z_c = np.random.default_rng(8).standard_normal((2, 3, world.dim))
        before = (world.clean_posterior_cov().copy(), pred.predict(z_t, z_c, None, 200))
        cov *= 2.0
        after = (world.clean_posterior_cov(), pred.predict(z_t, z_c, None, 200))
        assert not np.allclose(before[0], after[0])
        assert not np.allclose(before[1], after[1])
        gain *= 2.0
        assert not np.allclose(after[1], pred.predict(z_t, z_c, None, 200))


def check_equalizer_chain(kind, snr_db, rng):
    # Simulate the real per-symbol chain (projection -> fixed nominal
    # scale -> channel -> MMSE equalizer -> back-projection) and compare
    # the empirical first two moments of z_c against the world's
    # observation model.
    from gencomm.channel import ChannelConfig, mmse_equalize, pack_complex, transmit

    codec = make_linear_codec(CodecConfig(k_prime=3, k=2), seed=21)
    world = GaussianWorld.ar1(codec, snr_db, kind=kind, rho=0.8)
    d = world.dim
    root = np.linalg.cholesky(world.sigma0 + 1e-12 * np.eye(d))
    sigma2 = 10.0 ** (-snr_db / 10.0)
    n = 40_000
    z0s = rng.standard_normal((n, d)) @ root.T
    z_cs = np.empty_like(z0s)
    chan = ChannelConfig(kind, snr_db)
    for i in range(n):
        x = world.nominal_scale * (codec.projection @ z0s[i])
        y, h = transmit(pack_complex(x), chan, rng)
        z_cs[i] = (codec.projection.T @ mmse_equalize(y, h, sigma2)
                   ) / world.nominal_scale
    # conditional mean: E[z_c | z0] = obs_matrix @ z0 (cross-covariance)
    cross_emp = (z_cs.T @ z0s) / n
    cross_model = world.obs_matrix @ world.sigma0
    assert np.max(np.abs(cross_emp - cross_model)) <= 0.05
    # total second moment of z_c
    cov_emp = (z_cs.T @ z_cs) / n
    cov_model = (world.obs_matrix @ world.sigma0 @ world.obs_matrix.T
                 + world.obs_noise_cov)
    assert np.max(np.abs(cov_emp - cov_model)) <= 0.08, (
        np.max(np.abs(cov_emp - cov_model)))


class TestRayleighWorldModel:
    def test_matches_monte_carlo_equalizer_chain(self, rng):
        # Gaussian-equivalent model of the fading equalizer
        check_equalizer_chain("rayleigh", 8.0, rng)


class TestAwgnWorldModel:
    def test_matches_monte_carlo_equalizer_chain(self, rng):
        check_equalizer_chain("awgn", 8.0, rng)

    def test_matches_monte_carlo_equalizer_chain_at_1db(self, rng):
        check_equalizer_chain("awgn", 1.0, rng)


def _exact(m):
    """A float array as a list of rows of exact Fractions."""
    return [[Fraction(float(x)) for x in row] for row in np.atleast_2d(m)]


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _tr(a):
    return [list(col) for col in zip(*a)]


def _comb(*terms):
    """sum of coef * matrix over the (coef, matrix) terms."""
    return [[sum(coef * m[i][j] for coef, m in terms) for j in range(len(terms[0][1][0]))]
            for i in range(len(terms[0][1]))]


def _solve(a, b):
    """Exact Gaussian elimination of a x = b."""
    n = len(a)
    rows = [row + [v] for row, v in zip(a, b)]
    for i in range(n):
        pivot = next(j for j in range(i, n) if rows[j][i] != 0)
        rows[i], rows[pivot] = rows[pivot], rows[i]
        for j in range(i + 1, n):
            f = rows[j][i] / rows[i][i]
            rows[j] = [x - f * y for x, y in zip(rows[j], rows[i])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(rows[i][j] * x[j] for j in range(i + 1, n))) / rows[i][i]
    return x


def exact_eps_mean(world, proj, c, denom, gamma, z_t, z_c):
    """E[eps | z_t, z_c] in exact rational arithmetic, for a zero-mean world whose
    z_c lies in the row space of the orthonormal-row projection `proj`: there
    u = proj z_c determines z_c, and the joint covariance of (u, z_t) is full
    rank. The world's float arrays and (c, denom, gamma) are taken as exact,
    with z_t = denom z0 + c gamma z_c + c eps."""
    s0, a, r, p = (_exact(m) for m in (world.sigma0, world.obs_matrix,
                                       world.obs_noise_cov, proj))
    c, denom, cg = Fraction(c), Fraction(denom), Fraction(c) * Fraction(gamma)
    eye = [[Fraction(int(i == j)) for j in range(world.dim)] for i in range(world.dim)]
    s_0c = _mul(s0, _tr(a))
    s_cc = _comb((1, _mul(a, s_0c)), (1, r))
    s_ct = _comb((denom, _tr(s_0c)), (cg, s_cc))
    s_tt = _comb((denom**2, s0), (denom * cg, s_0c), (denom * cg, _tr(s_0c)),
                 (cg**2, s_cc), (c**2, eye))
    s_uu, s_ut = _mul(_mul(p, s_cc), _tr(p)), _mul(p, s_ct)
    joint = [ru + rt for ru, rt in zip(s_uu, s_ut)] + [ru + rt for ru, rt in zip(_tr(s_ut), s_tt)]
    u = _mul(p, _exact(z_c[:, None]))
    x = _solve(joint, [row[0] for row in u] + [Fraction(float(v)) for v in z_t])
    # Cov(eps, (u, z_t)) = [0, c I]
    return np.array([float(c * v) for v in x[len(p):]])


class TestAnalyticEpsilon:
    def test_degenerate_prior_closed_form(self, sched, rng):
        # deterministic clean latent: eps estimate is the exact inversion
        d = 4
        mu = np.array([1.0, -2.0, 0.5, 3.0])
        world = GaussianWorld(mu0=mu, sigma0=np.zeros((d, d)), obs_matrix=np.eye(d),
                              obs_noise_cov=np.zeros((d, d)))
        t = 300
        ab = sched.alpha_bar(t)
        z_t = rng.standard_normal(d)
        got = AnalyticPredictor(world, sched, GAMMA).predict(z_t[None], mu[None], None, t)[0]
        want = (z_t - math.sqrt(ab) * mu) / math.sqrt(1.0 - ab)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_identity_channel_closed_form(self, rng):
        # also: a point-mass prior behind a noisy observation
        check_analytic_predictor(rng)

    def test_matches_monte_carlo_regression(self, sched):
        # Conditional means of a joint Gaussian are linear, so an OLS fit of
        # eps on (z_c, z_t, 1) over simulated triples is an independent
        # estimator of E[eps | z_t, z_c] with standard OLS error bars.
        rng = np.random.default_rng(2718)
        d = 4
        codec = make_linear_codec(CodecConfig(k_prime=2, k=1), seed=12)
        world = GaussianWorld.ar1(codec, snr_db=7.0, rho=0.7)
        t = 350
        gamma = residual_weight(500, sched)
        n = 1_000_000
        z0, z_c = sample_pair(world, rng, n=n)
        eps = rng.standard_normal((n, d))
        ab = sched.alpha_bar(t)
        z_t = (math.sqrt(ab) * z0
               + math.sqrt(1 - ab) * (gamma * (z_c - z0) + eps))
        X = np.hstack([z_c, z_t, np.ones((n, 1))])
        xtx = X.T @ X
        # the decoded latent is rank-deficient under a compressed codec, so
        # the design needs a pseudo-inverse (minimum-norm OLS)
        xtx_inv = np.linalg.pinv(xtx, hermitian=True, rcond=1e-12)
        coef = xtx_inv @ (X.T @ eps)
        resid = eps - X @ coef
        sigma2_hat = (resid**2).sum(axis=0) / (n - X.shape[1])
        pred = AnalyticPredictor(world, sched, gamma)
        probe_rng = np.random.default_rng(555)
        for _ in range(5):
            z0_p, z_c_p = (a[0] for a in sample_pair(world, probe_rng, n=1))
            eps_p = probe_rng.standard_normal(d)
            z_t_p = (math.sqrt(ab) * z0_p
                     + math.sqrt(1 - ab) * (gamma * (z_c_p - z0_p) + eps_p))
            x_p = np.concatenate([z_c_p, z_t_p, [1.0]])
            mc = x_p @ coef
            se = np.sqrt(sigma2_hat * (x_p @ xtx_inv @ x_p))
            analytic = pred.predict(z_t_p[None], z_c_p[None], None, t)[0]
            assert np.all(np.abs(analytic - mc) <= 3.0 * se), (
                f"analytic {analytic} vs regression {mc} +- {se}")

    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    @pytest.mark.parametrize("t", [1, 7])
    def test_matches_exact_rational_reference(self, kind, t):
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "snr_sweep.cfg")
        cfg = dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel, kind=kind))
        ctx = build_context(cfg, snr_db=1.0)
        world, proj = ctx.world, ctx.codec.projection
        rng = np.random.default_rng(3)
        z0, z_c = (v[0] for v in sample_pair(world, rng, n=1))
        c, denom = inversion_coeffs(t, ctx.gamma, ctx.sched)
        z_t = denom * z0 + c * ctx.gamma * z_c + c * rng.standard_normal(world.dim)
        want = exact_eps_mean(world, proj, c, denom, ctx.gamma, z_t, z_c)
        got = AnalyticPredictor(world, ctx.sched, ctx.gamma).predict(z_t[None], z_c[None], None, t)[0]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_prediction_is_pure(self, sched, rng):
        codec = make_linear_codec(CodecConfig(k_prime=2, k=1), seed=12)
        world = GaussianWorld.ar1(codec, snr_db=10.0, rho=0.8)
        pred = AnalyticPredictor(world, sched, GAMMA)
        z_t, z_c = rng.standard_normal((2, 1, 4))
        first = pred.predict(z_t, z_c, None, 123)
        for _ in range(3):
            assert np.array_equal(pred.predict(z_t, z_c, None, 123), first)


class TestBayesDominance:
    def test_analytic_below_trained_mlp_below_zero(self, sched):
        rng = np.random.default_rng(99)
        d = 8
        codec = make_linear_codec(CodecConfig(k_prime=4, k=2), seed=31)
        world = GaussianWorld.ar1(codec, snr_db=7.0, rho=0.8)
        warm = 500
        gamma = residual_weight(warm, sched)

        n_train = 4096
        z0_tr, z_c_tr = sample_pair(world, rng, n=n_train)
        labels = np.zeros(n_train, dtype=np.int64)
        model = MlpDenoiser(latent_dim=d, hidden=64, seed=5)
        tc = TrainConfig(learning_rate=2e-2, batch_size=128, steps=1500,
                         warm_start_step=warm)
        train(model, (z0_tr, z_c_tr, labels), tc, sched, rng, gamma=gamma)

        n_eval = 100_000
        z0, z_c = sample_pair(world, rng, n=n_eval)
        prep = prepare_diffusion_batch(z0, z_c, np.zeros(n_eval, dtype=np.int64),
                                       sched, gamma, warm, 0.0, rng,
                                       model.null_index)
        pred = AnalyticPredictor(world, sched, gamma)
        loss_zero = float(np.mean(np.sum(prep.eps**2, axis=1)))
        out_mlp, _ = model.forward_batch(prep.z_t, prep.z_c, prep.class_idx, prep.ts)
        loss_mlp = float(np.mean(np.sum((out_mlp - prep.eps) ** 2, axis=1)))
        err_an = np.empty(n_eval)
        for t_val in np.unique(prep.ts):
            mask = prep.ts == t_val
            eps_hat = pred.predict(prep.z_t[mask], prep.z_c[mask], None, int(t_val))
            err_an[mask] = np.sum((eps_hat - prep.eps[mask]) ** 2, axis=1)
        loss_analytic = float(np.mean(err_an))
        assert loss_analytic <= loss_mlp <= loss_zero, (
            f"analytic {loss_analytic:.3f}, mlp {loss_mlp:.3f}, zero {loss_zero:.3f}")


def _block_gemm_net(p, x):
    """The MLP as `predict` runs it: plain `x @ w.T` GEMMs over zero-padded
    blocks of 128 rows, on the float32 casts of the parameters and the input."""
    n = len(x)
    p = {name: value.astype(np.float32) for name, value in p.items()}
    blocks = np.zeros((-(-n // 128) * 128, x.shape[1]), np.float32)
    blocks[:n] = x
    out = []
    for block in blocks.reshape(-1, 128, x.shape[1]):
        h1 = np.tanh(block @ p["w1"].T + p["b1"])
        h2 = np.tanh(h1 @ p["w2"].T + p["b2"])
        out.append(h2 @ p["w3"].T + p["b3"])
    return np.concatenate(out)[:n]


class TestMlpDenoiser:
    def test_zero_weights_zero_output(self, rng):
        model = MlpDenoiser(latent_dim=4, hidden=8, seed=0)
        for value in model.params.values():
            value[...] = 0.0
        out = model.predict(rng.standard_normal((1, 4)), rng.standard_normal((1, 4)),
                            "class:1", 100)
        assert np.all(out == 0.0)

    def test_null_token_equivalence(self, rng):
        model = MlpDenoiser(latent_dim=4, hidden=8, n_classes=5, seed=2)
        z_t, z_c = rng.standard_normal((2, 1, 4))
        absent = model.predict(z_t, z_c, None, 40)
        explicit = model.predict(z_t, z_c, NULL_PROMPT, 40)
        assert np.array_equal(absent, explicit)

    def test_golden_snapshot(self):
        model = MlpDenoiser(latent_dim=4, hidden=16, time_dim=8, prompt_dim=4,
                            n_classes=5, seed=314)
        z_t, z_c = np.array([[0.5, -1.0, 2.0, 0.25]]), np.array([[0.4, -0.9, 1.8, 0.3]])
        trained, _ = model.forward_batch(z_t, z_c, np.array([2]), np.array([250]))
        assert np.allclose(trained[0], GOLDEN_PROBE_OUT, rtol=0, atol=1e-12)
        out = model.predict(z_t, z_c, "class:2", 250)
        assert np.allclose(out[0], GOLDEN_PROBE_PREDICT, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 7, 200])
    def test_predict_equals_gathered_input(self, rng, batch):
        # Inference as first written: the time and prompt rows gathered once
        # per batch row. One broadcast row of each must give the same bits.
        model = MlpDenoiser(latent_dim=6, hidden=24, n_classes=5, seed=9)
        for t in (1, 250, 500, 999):
            for prompt in (None, "class:3", "a cheetah in tall grass"):
                z_t, z_c = rng.standard_normal((2, batch, 6))
                idx = prompt_to_index(prompt, model.n_classes)
                x = model._assemble(z_t, z_c, np.full(batch, idx), np.full(batch, t))
                want = _block_gemm_net(model.params, x)
                assert np.array_equal(model.predict(z_t, z_c, prompt, t), want)

    @pytest.mark.parametrize("grown", [False, True], ids=["fresh", "table_grown"])
    def test_predict_step_row_is_the_table_row(self, rng, grown):
        # predict embeds its own step; it must read what row t of a table of
        # every step holds, whether or not forward_batch grew the model's table.
        table = time_embedding(np.arange(100_001), 32)
        model = MlpDenoiser(latent_dim=6, hidden=24, n_classes=5, seed=9)
        if grown:
            z = rng.standard_normal((3, 6))
            model.forward_batch(z, z, np.zeros(3, np.int64), np.array([1, 480, 600]))
            assert len(model._temb) > 600
        p = model.params
        for t in (0, 1, 120, 480, 600, 999, 99_999, 100_000):
            z_t, z_c = rng.standard_normal((2, 4, 6))
            shared = np.concatenate([table[t], p["emb"][3]])
            x = np.concatenate([z_t, z_c, np.broadcast_to(shared, (4, len(shared)))], axis=1)
            want = _block_gemm_net(p, x)
            assert np.array_equal(model.predict(z_t, z_c, "class:3", t), want), t
        with pytest.raises(ContractError, match="time steps must be >= 0, got -1"):
            model.predict(z_t, z_c, "class:3", -1)

    def test_in_place_parameter_write_reaches_the_next_predict(self, rng):
        # predict copies the parameters to float32 on every call, so a write
        # into them, as a training step makes, is never served stale.
        model = MlpDenoiser(latent_dim=6, hidden=24, n_classes=5, seed=9)
        z_t, z_c = rng.standard_normal((2, 3, 6))
        before = model.predict(z_t, z_c, "class:3", 250)
        model.params["w3"][...] *= 2.0
        model.params["emb"][3] += 1.0
        x = model._assemble(z_t, z_c, np.full(3, 3), np.full(3, 250))
        after = model.predict(z_t, z_c, "class:3", 250)
        assert np.array_equal(after, _block_gemm_net(model.params, x))
        assert not np.array_equal(after, before)

    def test_work_buffers_keep_lone_call_bits(self, rng):
        # Batches that grow and shrink reuse the instance's work buffers. Every
        # row keeps the bits of its lone call, and an array returned earlier,
        # such as the prompt half of a guided step, is not changed by later calls.
        model = MlpDenoiser(latent_dim=6, hidden=24, n_classes=5, seed=9)
        lone = MlpDenoiser(latent_dim=6, hidden=24, n_classes=5, seed=9)
        returned = []
        for batch, t in zip((1, 200, 7, 1000, 3), (499, 1, 250, 17, 0)):
            z_t, z_c = rng.standard_normal((2, batch, 6))
            for prompt in ("class:3", None):
                out = model.predict(z_t, z_c, prompt, t)
                returned.append((out, out.copy()))
                for r in range(batch):
                    assert np.array_equal(out[r], lone.predict(z_t[r:r + 1], z_c[r:r + 1],
                                                               prompt, t)[0]), (batch, r)
        for out, copy in returned:
            assert np.array_equal(out, copy)

    def test_prediction_pure(self, rng):
        model = MlpDenoiser(latent_dim=3, seed=7)
        z_t, z_c = rng.standard_normal((2, 1, 3))
        a = model.predict(z_t, z_c, "class:1", 17)
        b = model.predict(z_t, z_c, "class:1", 17)
        assert np.array_equal(a, b)

    def test_prompt_mapping(self):
        assert prompt_to_index(None, 10) == 10
        assert prompt_to_index(NULL_PROMPT, 10) == 10
        assert prompt_to_index("class:3", 10) == 3
        free = prompt_to_index("a cheetah in tall grass", 10)
        assert 0 <= free < 10
        assert free == prompt_to_index("a cheetah in tall grass", 10)
        for malformed in ("class:10", "class:11", "class:abc", "class:1e3"):
            with pytest.raises(ContractError):
                prompt_to_index(malformed, 10)

    def test_time_embedding_shape_and_range(self):
        emb = time_embedding(np.array([0, 1, 500]), 32)
        assert emb.shape == (3, 32)
        assert np.all(np.abs(emb) <= 1.0)

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        model = MlpDenoiser(latent_dim=5, hidden=12, n_classes=4, seed=88)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        z_t, z_c = rng.standard_normal((2, 1, 5))
        assert np.array_equal(loaded.predict(z_t, z_c, "class:2", 99),
                              model.predict(z_t, z_c, "class:2", 99))


    def test_checkpoint_meta_is_checked_before_a_model_is_built(self, tmp_path):
        # A header claiming hidden = 4096 over the arrays of a 128-wide model made
        # 459 MiB of Glorot weights before its arrays were compared.
        model = MlpDenoiser(latent_dim=16, seed=3)
        meta = np.array([1, 16, 4096, model.time_dim, model.prompt_dim, model.n_classes, 3])
        path = tmp_path / "lying.npz"
        np.savez(path, __meta__=meta, **model.params)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=r"checkpoint w1 is not float64 "
                                                         r"\(4096, 80\)"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20, peak

class TestFloat64Agreement:
    @pytest.mark.parametrize("steps", [0, 2000], ids=["fresh", "trained"])
    def test_predict_agrees_with_float64_forward(self, tmp_path, steps):
        # predict runs in float32; training's forward_batch, in float64, on the
        # same rows of budget.cfg's latents, steps and prompts. Measured over 5
        # seeds: the largest |difference| was 1.3e-6 (fresh) and 2.0e-6 (2,000
        # steps) on outputs up to 2.5 and 4.9, or at most 5.7e-7 of the largest
        # output; the bound is 2e-6 of it, 17 float32 epsilons.
        cfg_path = Path(__file__).resolve().parent.parent / "configs" / "budget.cfg"
        ctx = build_context(load_config(cfg_path))
        model = ctx.predictor
        if steps:
            out = tmp_path / "model.npz"
            assert main(["train-denoiser", "--config", str(cfg_path), "--steps", str(steps),
                         "--out", str(out), "--quiet"]) == 0
            model = load_checkpoint(out)
        rng = np.random.default_rng(31)
        z0, z_c, _ = make_training_set(ctx, n=200, rng=rng)
        worst = top = 0.0
        for t in (1, 20, 100, 250, 500, 999):
            for idx in (model.null_index, 0, 3, 9):
                z_t = residual_forward(z0, z_c, t, ctx.gamma, rng.standard_normal(z0.shape),
                                       ctx.sched)
                prompt = NULL_PROMPT if idx == model.null_index else f"class:{idx}"
                got = model.predict(z_t, z_c, prompt, t)
                want, _ = model.forward_batch(z_t, z_c, np.full(200, idx), np.full(200, t))
                worst = max(worst, float(np.max(np.abs(got - want))))
                top = max(top, float(np.max(np.abs(want))))
        assert worst <= 2e-6 * top, (worst, top)


class _PerfectModel:
    """Test stub that answers with the exact noise of the prepared batch."""

    def __init__(self, prep):
        self.prep = prep

    def forward_batch(self, z_t, z_c, class_idx, ts):
        return self.prep.eps.copy(), None  # the loss overwrites the output


def _toy_batch(sched, rng, d=4, n=64, dropout=0.0, decode_noise=0.25):
    z0 = rng.standard_normal((n, d))
    z_c = z0 + decode_noise * rng.standard_normal((n, d))
    labels = rng.integers(0, 5, size=n)
    return prepare_diffusion_batch(z0, z_c, labels, sched, GAMMA, 500, dropout,
                                   rng, null_index=5)


class TestLosses:
    def test_perfect_predictor_zero_diffusion_loss(self, sched, rng):
        prep = _toy_batch(sched, rng)
        total, parts, _ = loss_and_grads(_PerfectModel(prep), prep, TrainConfig(), sched,
                                         want_grads=False)
        assert parts["diffusion"] == 0.0
        assert total == parts["diffusion"] + parts["latent_mse"]

    def test_zero_predictor_loss_close_to_dimension(self, sched, rng):
        d = 16
        model = MlpDenoiser(latent_dim=d, hidden=8, seed=0)
        for value in model.params.values():
            value[...] = 0.0
        z0 = rng.standard_normal((20_000, d))
        prep = prepare_diffusion_batch(z0, z0, np.zeros(len(z0), dtype=np.int64),
                                       sched, GAMMA, 500, 0.10, rng, model.null_index)
        _, parts, _ = loss_and_grads(model, prep, TrainConfig(), sched,
                                     want_grads=False)
        loss = parts["diffusion"]
        assert abs(loss - d) <= 4.0 * d * math.sqrt(2.0 / len(z0))

    def test_stage1_reductions(self, sched, rng):
        prep = _toy_batch(sched, rng)
        model = MlpDenoiser(latent_dim=4, hidden=8, seed=3)
        total, parts, _ = loss_and_grads(model, prep, TrainConfig(), sched,
                                         want_grads=False)
        assert total == parts["diffusion"] + parts["latent_mse"] == parts["total"]
        assert list(parts) == ["diffusion", "latent_mse", "total"]

    def test_stage1_latent_term_vanishes_for_perfect_decode(self, sched, rng):
        prep = _toy_batch(sched, rng, decode_noise=0.0)
        _, parts, _ = loss_and_grads(MlpDenoiser(latent_dim=4, seed=0), prep,
                                     TrainConfig(), sched, want_grads=False)
        assert parts["latent_mse"] == 0.0

    def test_prompt_dropout_rate(self, rng):
        check_prompt_dropout(rng, n=100_000)

    def test_batch_uses_residual_forward(self, sched, rng):
        prep = _toy_batch(sched, rng, n=8)
        for i in range(8):
            want = residual_forward(prep.z0[i], prep.z_c[i], int(prep.ts[i]),
                                    GAMMA, prep.eps[i], sched)
            assert np.array_equal(prep.z_t[i], want)

    def test_empty_batch_rejected(self, sched, rng):
        with pytest.raises(ContractError):
            prepare_diffusion_batch(np.zeros((0, 3)), np.zeros((0, 3)),
                                    np.zeros(0, dtype=np.int64), sched, GAMMA,
                                    500, 0.1, rng, 5)


class TestGradients:
    def test_matches_central_differences(self, rng):
        check_gradients(rng, n=20)


class TestTraining:
    def test_zero_steps_leaves_model_unchanged(self, sched, rng):
        model = MlpDenoiser(latent_dim=4, hidden=8, seed=6)
        before = {k: v.copy() for k, v in model.params.items()}
        data = (rng.standard_normal((64, 4)), rng.standard_normal((64, 4)),
                np.zeros(64, dtype=np.int64))
        history = train(model, data, TrainConfig(steps=0), sched, rng,
                        gamma=GAMMA)
        assert history == []
        for k in before:
            assert np.array_equal(model.params[k], before[k])

    def test_short_run_reduces_loss(self, sched):
        rng = np.random.default_rng(15)
        d = 8
        z0 = rng.standard_normal((2048, d))
        z_c = z0 + 0.3 * rng.standard_normal((2048, d))
        labels = rng.integers(0, 10, size=2048)
        model = MlpDenoiser(latent_dim=d, hidden=64, seed=2)
        tc = TrainConfig(learning_rate=2e-2, steps=800, warm_start_step=500)
        history = train(model, (z0, z_c, labels), tc, sched, rng, gamma=GAMMA)
        first = np.mean([h["total"] for h in history[:20]])
        last = np.mean([h["total"] for h in history[-20:]])
        assert last < first

    def test_divergence_raises(self, sched, rng):
        model = MlpDenoiser(latent_dim=4, hidden=16, seed=3)
        data = (rng.standard_normal((256, 4)), rng.standard_normal((256, 4)),
                np.zeros(256, dtype=np.int64))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError):
                train(model, data,
                      TrainConfig(learning_rate=1e6, steps=200),
                      sched, rng, gamma=GAMMA)

    @pytest.mark.parametrize("kw", [{"steps": -1}, {"batch_size": 0}, {"batch_size": -4},
                                    {"warm_start_step": 0}],
                             ids=["negative_steps", "zero_batch", "negative_batch",
                                  "zero_warm_start"])
    def test_config_rejects_bad_steps_and_batch_size(self, kw):
        with pytest.raises(ConfigurationError, match=next(iter(kw))):
            TrainConfig(**kw)


class _ReferenceMlp(MlpDenoiser):
    """The training step as first written: the time embedding recomputed per
    call, the full input gradient scattered with np.add.at, and a fresh array
    for every bias add, tanh and tanh derivative."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = dict(self.params)  # writable: the reference loop rebinds entries

    def forward_batch(self, z_t, z_c, class_idx, ts):
        x = np.concatenate([z_t, z_c, time_embedding(ts, self.time_dim),
                            self.params["emb"][class_idx]], axis=1)
        p = self.params
        h1 = np.tanh(x @ p["w1"].T + p["b1"])
        h2 = np.tanh(h1 @ p["w2"].T + p["b2"])
        return h2 @ p["w3"].T + p["b3"], (x, h1, h2, class_idx)

    def backward_batch(self, cache, dout):
        x, h1, h2, class_idx = cache
        p = self.params
        grads = {"w3": dout.T @ h2, "b3": dout.sum(axis=0)}
        dh2 = (dout @ p["w3"]) * (1.0 - h2**2)
        grads["w2"] = dh2.T @ h1
        grads["b2"] = dh2.sum(axis=0)
        dh1 = (dh2 @ p["w2"]) * (1.0 - h1**2)
        grads["w1"] = dh1.T @ x
        grads["b1"] = dh1.sum(axis=0)
        dx = dh1 @ p["w1"]
        demb = np.zeros_like(p["emb"])
        np.add.at(demb, class_idx, dx[:, -self.prompt_dim:])
        grads["emb"] = demb
        return grads


def _reference_train(model, dataset, cfg, sched, rng, gamma):
    z0s, z_cs, labels = dataset
    n = len(z0s)
    history = []
    for step in range(cfg.steps):
        pick = rng.integers(0, n, size=min(cfg.batch_size, n))
        prep = prepare_diffusion_batch(z0s[pick], z_cs[pick], labels[pick], sched,
                                       gamma, min(cfg.warm_start_step, sched.T),
                                       cfg.dropout_rate, rng, model.null_index)
        total, parts, grads = loss_and_grads(model, prep, cfg, sched)
        for name, g in grads.items():
            model.params[name] -= cfg.learning_rate * g
        history.append({"step": step, **parts})
    return history


def _training_set(d=16, n=512, seed=21):
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal((n, d))
    return z0, z0 + 0.3 * rng.standard_normal((n, d)), rng.integers(0, 10, size=n)


class TestTrainingStepIdentity:
    """The trimmed training step keeps every bit of the step it replaced."""

    def test_cached_time_rows_equal_the_formula(self):
        model = MlpDenoiser(latent_dim=2, time_dim=32, seed=0)
        z = np.zeros((1, 2))
        temb_cols = slice(4, 4 + 32)  # after z_t and z_c

        def row(t):  # a copy: _assemble writes into the input work buffer
            return model._assemble(z, z, np.zeros(1, dtype=np.int64),
                                   np.array([t]))[0, temb_cols].copy()

        before = [row(t) for t in range(11)]
        small = len(model._temb)
        grown = [row(t) for t in range(1001)]
        assert small < len(model._temb)
        for t in range(1001):
            want = time_embedding(np.array([t]), 32)[0]
            assert np.array_equal(grown[t], want), t
            assert t > 10 or np.array_equal(before[t], want), t
        ts = np.array([999, 3, 3, 0, 1000, 517])
        batch = model._assemble(np.zeros((6, 2)), np.zeros((6, 2)),
                                np.zeros(6, dtype=np.int64), ts)[:, temb_cols]
        assert np.array_equal(batch, time_embedding(ts, 32))

    def test_negative_time_step_rejected(self):
        # A negative index would wrap around the cached table: t=-1 read the
        # row for t=0 on a fresh model and the row for t=800 after t=400.
        model = MlpDenoiser(latent_dim=2, seed=0)
        z = np.zeros((1, 2))
        for grown in (False, True):
            if grown:
                model._time_rows(400)
            for ts in (-1, np.array([3, -1])):
                with pytest.raises(ContractError):
                    model._time_rows(ts)
            with pytest.raises(ContractError):
                model.predict(z, z, None, -1)

    def test_prompt_columns_of_the_input_gradient(self):
        rng = np.random.default_rng(3)
        model = MlpDenoiser(latent_dim=16, seed=3)
        dh1 = rng.standard_normal((128, model.hidden))
        w1 = model.params["w1"]
        assert np.array_equal(dh1 @ w1[:, -model.prompt_dim:],
                              (dh1 @ w1)[:, -model.prompt_dim:])

    def test_backward_matches_add_at_scatter(self):
        rng = np.random.default_rng(4)
        model = MlpDenoiser(latent_dim=16, n_classes=10, seed=4)
        ref = _ReferenceMlp(latent_dim=16, n_classes=10, seed=4)
        # Repeated classes, the null token, and classes 0 and 1 never drawn.
        class_idx = np.concatenate([np.full(40, 2), np.full(30, model.null_index),
                                    rng.integers(3, 10, size=58)])
        rng.shuffle(class_idx)
        z_t, z_c = rng.standard_normal((2, 128, 16))
        ts = rng.integers(1, 600, size=128)
        dout = rng.standard_normal((128, 16))
        out, cache = model.forward_batch(z_t, z_c, class_idx, ts)
        ref_out, ref_cache = ref.forward_batch(z_t, z_c, class_idx, ts)
        assert np.array_equal(out, ref_out)
        grads = model.backward_batch(cache, dout)
        ref_grads = ref.backward_batch(ref_cache, dout)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name
        assert np.all(grads["emb"][[0, 1]] == 0.0)

    def test_train_matches_reference_loop(self, sched):
        data = _training_set()
        cfg = TrainConfig(steps=50, warm_start_step=500)
        model = MlpDenoiser(latent_dim=16, seed=5)
        ref = _ReferenceMlp(latent_dim=16, seed=5)
        history = train(model, data, cfg, sched, np.random.default_rng(8), GAMMA)
        ref_history = _reference_train(ref, data, cfg, sched, np.random.default_rng(8),
                                       GAMMA)
        assert len(history) == 50
        assert history == ref_history
        for name in ref.params:
            assert np.array_equal(model.params[name], ref.params[name]), name


class TestWorkBuffers:
    """The training step runs in buffers kept on the model; these pin what
    each call may overwrite."""

    def test_grads_survive_forward_only_and_predict_calls(self, sched, rng):
        model = MlpDenoiser(latent_dim=4, hidden=16, seed=7)
        prep = _toy_batch(sched, rng, n=32)
        _, _, grads = loss_and_grads(model, prep, TrainConfig(), sched)
        kept = {name: g.copy() for name, g in grads.items()}
        for n in (32, 8, 64):  # the same, a smaller and a larger batch
            loss_and_grads(model, _toy_batch(sched, rng, n=n), TrainConfig(), sched,
                           want_grads=False)
            model.predict(rng.standard_normal((n, 4)), rng.standard_normal((n, 4)),
                          "class:1", 40)
        for name in kept:
            assert np.array_equal(grads[name], kept[name]), name

    def test_forward_only_calls_keep_the_loss(self, sched, rng):
        # The loss overwrites forward_batch's output; it is recomputed per call.
        model = MlpDenoiser(latent_dim=4, hidden=16, seed=7)
        prep = _toy_batch(sched, rng, n=32)
        first = loss_and_grads(model, prep, TrainConfig(), sched, want_grads=False)
        loss_and_grads(model, _toy_batch(sched, rng, n=64), TrainConfig(), sched)
        assert loss_and_grads(model, prep, TrainConfig(), sched, want_grads=False) == first

    def test_parameter_written_in_place_is_trained(self, sched):
        data = _training_set()
        cfg = TrainConfig(steps=20, warm_start_step=500)
        model = MlpDenoiser(latent_dim=16, seed=5)
        ref = _ReferenceMlp(latent_dim=16, seed=5)
        for m in (model, ref):
            m.params["w2"][...] *= 0.5
        history = train(model, data, cfg, sched, np.random.default_rng(8), GAMMA)
        ref_history = _reference_train(ref, data, cfg, sched, np.random.default_rng(8),
                                       GAMMA)
        assert history == ref_history
        for name in ref.params:
            assert np.array_equal(model.params[name], ref.params[name]), name

    def test_predict_between_forward_and_backward_keeps_the_gradients(self, sched, rng):
        # predict runs in float32 buffers of its own, so a call between a
        # training step's forward and backward passes leaves the cache alone.
        model = MlpDenoiser(latent_dim=4, hidden=16, seed=7)
        prep = _toy_batch(sched, rng, n=32)
        dout = rng.standard_normal((32, 4))
        grads = []
        for interleaved in (False, True):
            _, cache = model.forward_batch(prep.z_t, prep.z_c, prep.class_idx, prep.ts)
            if interleaved:
                model.predict(rng.standard_normal((32, 4)), rng.standard_normal((32, 4)),
                              "class:1", 40)
            step = model.backward_batch(cache, dout)
            grads.append({name: g.copy() for name, g in step.items()})
        for name in grads[0]:
            assert np.array_equal(grads[0][name], grads[1][name]), name

    def test_parameters_and_buffers_start_on_cache_lines(self, sched, rng):
        # Odd sizes, so a packed layout would put most views mid-line.
        model = MlpDenoiser(latent_dim=5, hidden=7, time_dim=4, prompt_dim=3,
                            n_classes=5, seed=1)
        prep = _toy_batch(sched, rng, d=5, n=9)
        loss_and_grads(model, prep, TrainConfig(), sched)
        model.predict(prep.z_t, prep.z_c, None, 40)
        arrays = [*model.params.values(), *model._grads.values(), *model._work(9),
                  *model._params32.values(), *model._work(9, np.float32)]
        assert [a.dtype for a in model._work(9, np.float32)] == [np.float32] * 4
        assert [a.ctypes.data % 64 for a in arrays] == [0] * len(arrays)

    def test_replacing_a_parameter_raises(self):
        # Training updates the flat array the parameters view, so a parameter
        # is written in place, never replaced.
        model = MlpDenoiser(latent_dim=4, hidden=8, seed=6)
        with pytest.raises(TypeError):
            model.params["w2"] = np.zeros((8, 8))
