import math

import numpy as np
import pytest

from gencomm.denoiser import (AnalyticPredictor, GaussianWorld,
                              MlpDenoiser, TrainConfig,
                              load_checkpoint, loss_and_grads,
                              prepare_diffusion_batch, prompt_to_index,
                              save_checkpoint, time_embedding, train)
from gencomm.errors import ConfigurationError, ContractError, TrainingError
from gencomm.jscc import CodecConfig, make_linear_codec
from gencomm.sampler import residual_forward
from gencomm.schedule import residual_weight

GAMMA = 0.3

# Pinned self-consistency snapshot: MlpDenoiser(latent_dim=4, hidden=16,
# time_dim=8, prompt_dim=4, n_classes=5, seed=314) on the fixed probe below.
GOLDEN_PROBE_OUT = [0.18051467258291917, 0.06874601223701958,
                    0.40172909638460486, 0.039522918496625856]


def identity_world(d=4, noise=0.0):
    eye = np.eye(d)
    return GaussianWorld(mu0=np.zeros(d), sigma0=eye, obs_matrix=eye,
                         obs_noise_cov=noise * eye)


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
        z0, z_c = world.sample_pair(rng, n=200_000)
        want_cov_c = (world.obs_matrix @ world.sigma0 @ world.obs_matrix.T
                      + world.obs_noise_cov)
        got_cov_c = np.cov(z_c, rowvar=False)
        assert np.max(np.abs(got_cov_c - want_cov_c)) <= 0.02
        assert np.max(np.abs(z0.mean(axis=0))) <= 0.02

    def test_clean_posterior_cov_bounds(self):
        codec = make_linear_codec(CodecConfig(k_prime=4, k=1), seed=2)
        world = GaussianWorld.ar1(codec, snr_db=10.0, rho=0.9)
        cov = world.clean_posterior_cov()
        assert np.trace(cov) <= np.trace(world.sigma0) + 1e-12
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-10)


class TestRayleighWorldModel:
    def test_matches_monte_carlo_equalizer_chain(self, rng):
        # Simulate the real per-symbol chain (projection -> fixed nominal
        # scale -> fading -> MMSE equalizer -> back-projection) and compare
        # the empirical first two moments of z_c against the world's
        # Gaussian-equivalent observation model.
        from gencomm.channel import ChannelConfig, mmse_equalize, pack_complex, transmit

        codec = make_linear_codec(CodecConfig(k_prime=3, k=2), seed=21)
        snr_db = 8.0
        world = GaussianWorld.ar1(codec, snr_db, kind="rayleigh", rho=0.8)
        d = world.dim
        root = np.linalg.cholesky(world.sigma0 + 1e-12 * np.eye(d))
        sigma2 = 10.0 ** (-snr_db / 10.0)
        n = 40_000
        z0s = rng.standard_normal((n, d)) @ root.T
        z_cs = np.empty_like(z0s)
        chan = ChannelConfig("rayleigh", snr_db)
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

    def test_identity_channel_closed_form(self, sched, rng):
        world = identity_world()
        t = 450
        ab = sched.alpha_bar(t)
        z0 = rng.standard_normal(4)
        z_t = rng.standard_normal(4)
        got = AnalyticPredictor(world, sched, GAMMA).predict(z_t[None], z0[None], None, t)[0]
        want = (z_t - math.sqrt(ab) * z0) / math.sqrt(1.0 - ab)
        assert np.max(np.abs(got - want)) <= 1e-8

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
        z0, z_c = world.sample_pair(rng, n=n)
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
            z0_p, z_c_p = world.sample_pair(probe_rng)
            eps_p = probe_rng.standard_normal(d)
            z_t_p = (math.sqrt(ab) * z0_p
                     + math.sqrt(1 - ab) * (gamma * (z_c_p - z0_p) + eps_p))
            x_p = np.concatenate([z_c_p, z_t_p, [1.0]])
            mc = x_p @ coef
            se = np.sqrt(sigma2_hat * (x_p @ xtx_inv @ x_p))
            analytic = pred.predict(z_t_p[None], z_c_p[None], None, t)[0]
            assert np.all(np.abs(analytic - mc) <= 3.0 * se), (
                f"analytic {analytic} vs regression {mc} +- {se}")

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
        z0_tr, z_c_tr = world.sample_pair(rng, n=n_train)
        labels = np.zeros(n_train, dtype=np.int64)
        model = MlpDenoiser(latent_dim=d, hidden=64, seed=5)
        tc = TrainConfig(learning_rate=2e-2, batch_size=128, steps=1500,
                         warm_start_step=warm)
        train(model, (z0_tr, z_c_tr, labels), tc, sched, rng, gamma=gamma)

        n_eval = 100_000
        z0, z_c = world.sample_pair(rng, n=n_eval)
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
            coefs = pred._coefs(int(t_val))
            gain, mu_w = coefs[3], coefs[4]
            w = np.hstack([prep.z_c[mask], prep.z_t[mask]])
            z0_mean = world.mu0 + (w - mu_w) @ gain.T
            c = math.sqrt(1.0 - sched.alpha_bar(int(t_val)))
            denom = math.sqrt(sched.alpha_bar(int(t_val))) - c * gamma
            eps_hat = (prep.z_t[mask] - c * gamma * prep.z_c[mask]
                       - denom * z0_mean) / c
            err_an[mask] = np.sum((eps_hat - prep.eps[mask]) ** 2, axis=1)
        loss_analytic = float(np.mean(err_an))
        assert loss_analytic <= loss_mlp <= loss_zero, (
            f"analytic {loss_analytic:.3f}, mlp {loss_mlp:.3f}, zero {loss_zero:.3f}")


class TestMlpDenoiser:
    def test_zero_weights_zero_output(self, rng):
        model = MlpDenoiser(latent_dim=4, hidden=8, seed=0)
        for name in model.params:
            model.params[name] = np.zeros_like(model.params[name])
        out = model.predict(rng.standard_normal((1, 4)), rng.standard_normal((1, 4)),
                            "class:1", 100)
        assert np.all(out == 0.0)

    def test_null_token_equivalence(self, rng):
        model = MlpDenoiser(latent_dim=4, hidden=8, n_classes=5, seed=2)
        z_t, z_c = rng.standard_normal((2, 1, 4))
        absent = model.predict(z_t, z_c, None, 40)
        explicit = model.predict(z_t, z_c, model.null_index, 40)
        assert np.array_equal(absent, explicit)

    def test_golden_snapshot(self):
        model = MlpDenoiser(latent_dim=4, hidden=16, time_dim=8, prompt_dim=4,
                            n_classes=5, seed=314)
        out = model.predict(np.array([[0.5, -1.0, 2.0, 0.25]]),
                            np.array([[0.4, -0.9, 1.8, 0.3]]), "class:2", 250)
        assert np.allclose(out[0], GOLDEN_PROBE_OUT, atol=1e-12)

    def test_prediction_pure(self, rng):
        model = MlpDenoiser(latent_dim=3, seed=7)
        z_t, z_c = rng.standard_normal((2, 1, 3))
        a = model.predict(z_t, z_c, "class:1", 17)
        b = model.predict(z_t, z_c, "class:1", 17)
        assert np.array_equal(a, b)

    def test_prompt_mapping(self):
        assert prompt_to_index(None, 10) == 10
        assert prompt_to_index("class:3", 10) == 3
        assert prompt_to_index(4, 10) == 4
        free = prompt_to_index("a cheetah in tall grass", 10)
        assert 0 <= free < 10
        assert free == prompt_to_index("a cheetah in tall grass", 10)
        with pytest.raises(ContractError):
            prompt_to_index("class:11", 10)

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


class _PerfectModel:
    """Test stub that answers with the exact noise of the prepared batch."""

    def __init__(self, prep):
        self.prep = prep

    def forward_batch(self, z_t, z_c, class_idx, ts):
        return self.prep.eps, None


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
        for name in model.params:
            model.params[name] = np.zeros_like(model.params[name])
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

    def test_prompt_dropout_rate(self, sched, rng):
        n = 100_000
        z0 = rng.standard_normal((n, 4))
        prep = prepare_diffusion_batch(z0, z0, np.zeros(n, dtype=np.int64),
                                       sched, GAMMA, 500, 0.10, rng, null_index=5)
        assert abs(prep.n_dropped / n - 0.10) <= 0.01

    def test_batch_uses_residual_forward(self, sched, rng):
        prep = _toy_batch(sched, rng, n=8)
        for i in range(8):
            want = residual_forward(prep.z0[i], prep.z_c[i], int(prep.ts[i]),
                                    GAMMA, prep.eps[i], sched)
            assert np.allclose(prep.z_t[i], want, atol=1e-14)

    def test_empty_batch_rejected(self, sched, rng):
        with pytest.raises(ContractError):
            prepare_diffusion_batch(np.zeros((0, 3)), np.zeros((0, 3)),
                                    np.zeros(0, dtype=np.int64), sched, GAMMA,
                                    500, 0.1, rng, 5)


class TestGradients:
    def test_matches_central_differences(self, sched):
        rng = np.random.default_rng(7)
        model = MlpDenoiser(latent_dim=3, hidden=6, time_dim=4, prompt_dim=3,
                            n_classes=3, seed=1)
        prep = prepare_diffusion_batch(
            rng.standard_normal((10, 3)),
            rng.standard_normal((10, 3)) * 0.5,
            rng.integers(0, 3, size=10), sched, GAMMA, 500, 0.2, rng, 3)
        cfg = TrainConfig()
        _, _, grads = loss_and_grads(model, prep, cfg, sched)
        names = list(model.params)
        for _ in range(20):
            name = names[int(rng.integers(len(names)))]
            idx = np.unravel_index(int(rng.integers(model.params[name].size)),
                                   model.params[name].shape)
            h = 1e-5
            orig = model.params[name][idx]
            model.params[name][idx] = orig + h
            up, _, _ = loss_and_grads(model, prep, cfg, sched, want_grads=False)
            model.params[name][idx] = orig - h
            down, _, _ = loss_and_grads(model, prep, cfg, sched, want_grads=False)
            model.params[name][idx] = orig
            fd = (up - down) / (2 * h)
            an = grads[name][idx]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-4, (
                f"{name}{idx}: fd={fd:.3e} analytic={an:.3e}")


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

    @pytest.mark.parametrize("kw", [{"steps": -1}, {"batch_size": 0}, {"batch_size": -4}],
                             ids=["negative_steps", "zero_batch", "negative_batch"])
    def test_config_rejects_bad_steps_and_batch_size(self, kw):
        with pytest.raises(ConfigurationError, match=next(iter(kw))):
            TrainConfig(**kw)


class _ReferenceMlp(MlpDenoiser):
    """The training step as first written: the time embedding recomputed per
    call, the full input gradient scattered with np.add.at, and a fresh array
    for every bias add, tanh and tanh derivative."""

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

        def row(t):
            return model._assemble(z, z, np.zeros(1, dtype=np.int64),
                                   np.array([t]))[0, temb_cols]

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
