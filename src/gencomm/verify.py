"""Self-contained invariant suites behind the `verify` CLI subcommand.

Each check re-derives its expectations independently (closed forms, brute
force, Monte Carlo) and raises AssertionError on violation. A check that loops
or samples takes its size as `n`; the defaults keep the whole bundle to
seconds, and the unit tests call these functions with a larger `n`.
"""

from __future__ import annotations

import io
import math
import sys
import zlib
from dataclasses import replace

import numpy as np

from . import sidechannel
from .arithmetic import ac_decode, ac_encode
from .channel import (ChannelConfig, mmse_equalize, normalize_power, pack_complex,
                      snr_to_sigma2, transmit, unpack_complex, zf_equalize)
from .config import ExperimentConfig
from .denoiser import (AnalyticPredictor, ExactRecoveryOracle, GaussianWorld,
                       MlpDenoiser, TrainConfig, loss_and_grads,
                       prepare_diffusion_batch)
from .errors import DecodeError
from .jscc import CodecConfig, cbr, make_linear_codec
from .ldpc import ldpc_decode, ldpc_encode, ldpc_make
from .metrics import frechet_gauss, mse, psnr
from .pipeline import (DEFAULT_WARM_START_TABLE, build_context, run_trial,
                       warm_start_for_cbr)
from .sampler import (SamplerConfig, cfg_combine, predict_z0, residual_forward,
                      sample, sampler_step, step_grid, warm_start)
from .schedule import build_schedule, residual_weight, update_coeffs


def check_schedule_tables(rng):
    sched = build_schedule()
    assert sched.alpha_bar(0) == 1.0
    assert np.all(np.diff(sched.alpha_bars) < 0)
    prod = np.cumprod(1.0 - sched.betas)
    rel = np.abs(sched.alpha_bars[1:] - prod) / prod
    assert rel.max() <= 1e-14, f"cumulative product drift {rel.max():.2e}"


def check_coefficient_identities(rng):
    sched = build_schedule()
    for n_steps in (1, 2, 5, 10):
        for warm in (100, 500, 900):
            gamma = residual_weight(warm, sched)
            grid = step_grid(warm, n_steps) + [0]
            for t, t_prev in zip(grid[:-1], grid[1:]):
                a, b = update_coeffs(t_prev, t, sched)
                ab_t = sched.alpha_bar(t)
                ab_p = sched.alpha_bar(t_prev)
                assert abs(a * math.sqrt(ab_t) + b - math.sqrt(ab_p)) <= 1e-12
                assert abs(a * a * (1 - ab_t) - (1 - ab_p)) <= 1e-12
                assert abs(math.sqrt(1 - ab_p) * gamma - a * gamma * math.sqrt(1 - ab_t)) <= 1e-12


def check_warm_start_coincidence(rng, n=100):
    sched = build_schedule()
    warm = 500
    gamma = residual_weight(warm, sched)
    for _ in range(n):
        z0 = rng.standard_normal(8)
        z_c = rng.standard_normal(8)
        probe = np.random.default_rng(rng.integers(2**32))
        z_init, eps = warm_start(z_c, warm, sched, probe)
        z_fwd = residual_forward(z0, z_c, warm, gamma, eps, sched)
        assert np.max(np.abs(z_init - z_fwd)) <= 1e-12


def check_inversion_roundtrip(rng, n=200):
    sched = build_schedule()
    warm = 500
    gamma = residual_weight(warm, sched)
    for _ in range(n):
        t = int(rng.integers(1, warm))
        z0, z_c, eps = rng.standard_normal((3, 6))
        z_t = residual_forward(z0, z_c, t, gamma, eps, sched)
        back = predict_z0(z_t, z_c, eps, t, gamma, sched)
        assert np.max(np.abs(back - z0)) <= 1e-10


def check_ddim_reduction(rng, n=100):
    sched = build_schedule()
    for _ in range(n):
        t = int(rng.integers(2, sched.T))
        t_prev = int(rng.integers(1, t))
        z_t = rng.standard_normal(6)
        eps_hat = rng.standard_normal(6)
        ab_t = sched.alpha_bar(t)
        ab_p = sched.alpha_bar(t_prev)
        x0 = (z_t - math.sqrt(1 - ab_t) * eps_hat) / math.sqrt(ab_t)
        textbook = math.sqrt(ab_p) * x0 + math.sqrt(1 - ab_p) * eps_hat
        z0_hat = predict_z0(z_t, np.zeros(6), eps_hat, t, 0.0, sched)
        ours = sampler_step(z_t, z0_hat, t_prev, t, sched)
        assert np.max(np.abs(ours - textbook)) <= 1e-12


def check_exact_oracle_recovery(rng, n=10):
    sched = build_schedule()
    cfg = SamplerConfig(steps=5, warm_start_step=500)
    gamma = residual_weight(500, sched)
    for _ in range(n):
        z0 = rng.standard_normal(8)
        z_c = rng.standard_normal(8)
        oracle = ExactRecoveryOracle(z0, sched, gamma)
        out, trace = sample(z_c, oracle, None, cfg, sched,
                            np.random.default_rng(rng.integers(2**32)))
        # the output and every estimate after the singular warm-start step
        for got in [out] + [step.z0_hat for step in trace.steps[1:]]:
            assert np.max(np.abs(got - z0)) <= 1e-9


def check_frozen_noise_trajectory(rng, n=10):
    sched = build_schedule()
    warm = 500
    gamma = residual_weight(warm, sched)
    for _ in range(n):
        z0, z_c = rng.standard_normal((2, 8))
        probe = np.random.default_rng(rng.integers(2**32))
        z, eps = warm_start(z_c, warm, sched, probe)
        res = gamma * (z_c - z0) + eps
        grid = step_grid(warm, 5) + [0]
        for t, t_prev in zip(grid[:-1], grid[1:]):
            ab = sched.alpha_bar(t)
            want = math.sqrt(ab) * z0 + math.sqrt(1 - ab) * res
            assert np.max(np.abs(z - want)) <= 1e-9
            z = sampler_step(z, z0, t_prev, t, sched)
        assert np.max(np.abs(z - z0)) <= 1e-9


class _SeededPredictor:
    """Deterministic pseudo-random predictor distinguishing prompts."""

    def predict(self, z_t, z_c, prompt, t):
        tag = 0 if prompt is None else (zlib.crc32(str(prompt).encode()) % 997)
        return np.stack([
            np.random.default_rng(abs(int(row[0] * 1e6)) % 2**31 + t + tag)
            .standard_normal(row.shape) for row in z_t])


def check_cfg_identities(rng):
    u, c = rng.standard_normal((2, 12))
    assert np.array_equal(cfg_combine(u, c, 1.0), c)
    assert np.array_equal(cfg_combine(u, c, 0.0), u)
    assert np.allclose(cfg_combine(np.zeros(3), np.ones(3), 2.0), 2.0 * np.ones(3))
    sched = build_schedule()
    z_c = rng.standard_normal(6)
    pred = _SeededPredictor()
    seed = int(rng.integers(2**32))
    cond = sample(z_c, pred, "class:3",
                  SamplerConfig(steps=3, warm_start_step=300, guidance=1.0),
                  sched, np.random.default_rng(seed))[0]
    again = sample(z_c, pred, "class:3",
                   SamplerConfig(steps=3, warm_start_step=300, guidance=1.0),
                   sched, np.random.default_rng(seed))[0]
    assert np.array_equal(cond, again)
    omega0 = sample(z_c, pred, "class:3",
                    SamplerConfig(steps=3, warm_start_step=300, guidance=0.0),
                    sched, np.random.default_rng(seed))[0]
    uncond = sample(z_c, pred, None,
                    SamplerConfig(steps=3, warm_start_step=300, guidance=0.0),
                    sched, np.random.default_rng(seed))[0]
    assert np.array_equal(omega0, uncond)


def check_channel_basics(rng):
    x = np.arange(1.0, 5.0)
    packed = pack_complex(x)
    assert np.array_equal(packed.real, [1.0, 2.0]) and np.array_equal(packed.imag, [3.0, 4.0])
    assert np.array_equal(unpack_complex(packed), x)
    v = rng.standard_normal(64)
    v_norm, scale = normalize_power(v)
    assert abs(np.dot(v_norm, v_norm) / 32 - 1.0) <= 1e-12
    v2, scale2 = normalize_power(2 * v)
    assert np.allclose(v2, v_norm) and abs(scale2 - scale / 2) <= 1e-12
    assert snr_to_sigma2(0.0) == 1.0
    assert abs(snr_to_sigma2(10.0) - 0.1) <= 1e-15
    assert abs(snr_to_sigma2(3.0) - 0.501187) <= 1e-6


def check_channel_calibration(rng, n=100_000):
    tol = 9.4 / math.sqrt(n)  # |noise|^2 and |h|^2 are exponential: SE = 1/sqrt(n)
    x, _ = normalize_power(rng.standard_normal(2 * n))
    x_c = pack_complex(x)
    for kind in ("awgn", "rayleigh"):
        y, h = transmit(x_c, ChannelConfig(kind, 10.0), rng)
        noise = y - h * x_c
        var = float(np.mean(np.abs(noise) ** 2))
        assert abs(var - 0.1) / 0.1 <= tol, f"{kind} noise variance {var}"
        if kind == "rayleigh":
            gain = float(np.mean(np.abs(h) ** 2))
            assert abs(gain - 1.0) <= tol, f"mean |h|^2 = {gain}"


def check_mmse_vs_zf(rng, n=20_000):
    x, _ = normalize_power(rng.standard_normal(2 * n))
    x_c = pack_complex(x)
    sigma2 = snr_to_sigma2(10.0)
    y, h = transmit(x_c, ChannelConfig("rayleigh", 10.0), rng)
    err_mmse = float(np.mean((mmse_equalize(y, h, sigma2) - x) ** 2))
    err_zf = float(np.mean((zf_equalize(y, h) - x) ** 2))
    assert err_mmse <= err_zf, f"MMSE {err_mmse} vs ZF {err_zf}"


def check_codec_properties(rng):
    square = make_linear_codec(CodecConfig(k_prime=8, k=8), seed=5)
    z = rng.standard_normal(16)[None]
    x, scale = square.encode(z)
    assert np.max(np.abs(square.decode(x, 0.0, scale) - z)) <= 1e-10
    wide = make_linear_codec(CodecConfig(k_prime=8, k=2), seed=5)
    gram = wide.projection @ wide.projection.T
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10
    x, scale = wide.encode(z)
    z_c = wide.decode(x, 0.0, scale)
    x2, scale2 = wide.encode(z_c)
    z_c2 = wide.decode(x2, 0.0, scale2)
    assert np.max(np.abs(z_c2 - z_c)) <= 1e-10, "decode∘encode not idempotent"
    assert np.max(np.abs((z - z_c) @ wide.projection.T)) <= 1e-10
    assert np.linalg.norm(z_c) <= np.linalg.norm(z) + 1e-12
    assert abs(cbr(CodecConfig(k_prime=640, k=640, height=256, width=256,
                               channels=3)) - 0.003255) <= 1e-6


def check_analytic_predictor(rng):
    sched = build_schedule()
    d = 4
    eye = np.eye(d)
    ident = GaussianWorld(mu0=np.zeros(d), sigma0=eye, obs_matrix=eye,
                          obs_noise_cov=np.zeros((d, d)))
    pred = AnalyticPredictor(ident, sched, gamma=0.3)
    z0 = rng.standard_normal(d)
    z_t = rng.standard_normal(d)
    ab = sched.alpha_bar(400)
    want = (z_t - math.sqrt(ab) * z0) / math.sqrt(1 - ab)
    got = pred.predict(z_t[None], z0[None], None, 400)[0]
    assert np.max(np.abs(got - want)) <= 1e-8
    mu = np.full(d, 1.5)
    point = GaussianWorld(mu0=mu, sigma0=np.zeros((d, d)), obs_matrix=eye,
                          obs_noise_cov=0.1 * eye)
    pred2 = AnalyticPredictor(point, sched, gamma=0.3)
    z_c = rng.standard_normal(d)
    c = math.sqrt(1 - ab)
    denom = math.sqrt(ab) - c * 0.3
    want2 = (z_t - c * 0.3 * z_c - denom * mu) / c
    assert np.max(np.abs(pred2.predict(z_t[None], z_c[None], None, 400)[0] - want2)) <= 1e-8


def check_arithmetic_roundtrip(rng):
    corpus = [b"", b"a", b"hello world", b"a" * 2000,
              bytes(rng.integers(0, 256, size=300, dtype=np.uint8))]
    for _ in range(300):
        length = int(rng.integers(0, 60))
        corpus.append(bytes(rng.integers(0, 256, size=length, dtype=np.uint8)))
    for data in corpus:
        assert ac_decode(ac_encode(data)) == data
    repeated = ac_encode(b"a" * 4096)
    assert len(repeated) / 8 < 100, f"repetitive input compressed to {len(repeated)/8} bytes"
    # Fuzzed streams decode to something or raise DecodeError, never crash.
    for _ in range(50):
        junk = rng.integers(0, 2, size=int(rng.integers(0, 120))).astype(np.uint8)
        try:
            out = ac_decode(junk, max_bytes=4096)
            assert isinstance(out, bytes)
        except DecodeError:
            pass
    stream = ac_encode(bytes(rng.integers(0, 256, size=200, dtype=np.uint8)))
    try:
        ac_decode(stream[: len(stream) // 2], max_bytes=4096)
        raise AssertionError("truncated stream decoded without error")
    except DecodeError:
        pass


def check_ldpc_properties(rng, n=10):
    code = ldpc_make(256, seed=11)
    assert code.rate == 0.5
    assert np.all(code.H.sum(axis=0) == 3) and np.all(code.H.sum(axis=1) == 6)
    again = ldpc_make(256, seed=11)
    assert np.array_equal(code.H, again.H)
    for _ in range(n):
        info = rng.integers(0, 2, size=code.k).astype(np.uint8)
        word = ldpc_encode(code, info)
        assert not np.any((code.H @ word.astype(np.int64)) % 2)
        llrs = np.where(word == 0, 30.0, -30.0)
        res = ldpc_decode(code, llrs)
        assert res.converged and res.iterations == 1
        assert np.array_equal(res.bits, word)


def check_sidechannel_frame(rng):
    report = sidechannel.send_prompt("a cheetah running across grass", 300.0, rng,
                                     code=sidechannel.default_code(256, 11))
    assert report.ok and report.decoded == "a cheetah running across grass"
    assert report.k_o == math.ceil(report.coded_bits / 2)
    dead = sidechannel.send_prompt("x", -40.0, rng,
                                   code=sidechannel.default_code(256, 11))
    assert not dead.ok and dead.decoded is None


def check_metrics(rng):
    v = rng.standard_normal(32)
    assert mse(v, v) == 0.0
    assert abs(psnr(0.1 * 4.0, 2.0) - 10.0) <= 1e-12
    batch = rng.standard_normal((64, 4))
    assert abs(frechet_gauss(batch, batch)) <= 1e-8
    delta = np.array([1.0, -2.0, 0.5, 0.0])
    shifted = batch + delta
    assert abs(frechet_gauss(batch, shifted) - float(delta @ delta)) <= 1e-6


def check_warm_start_table(rng):
    for point, step in DEFAULT_WARM_START_TABLE:
        assert warm_start_for_cbr(point) == step
    assert warm_start_for_cbr(0.5) == 300
    assert warm_start_for_cbr(1e-6) == 600


def check_pipeline_determinism(rng):
    cfg = ExperimentConfig(master_seed=13, trials=2, sweep_axis="none",
                           predictor="analytic", prompt=None,
                           codec=CodecConfig(k_prime=4, k=2, height=8, width=8,
                                             channels=1),
                           warm_start=500)
    ctx = build_context(cfg)
    a = run_trial(ctx, 0).result
    b = run_trial(build_context(cfg), 0).result
    assert replace(a, wall_time=0.0) == replace(b, wall_time=0.0)
    assert a.psnr_refined > a.psnr_coarse if a.mse_refined < a.mse_coarse else True


def check_prompt_dropout(rng, n=20_000):
    sched = build_schedule()
    model = MlpDenoiser(latent_dim=4, hidden=8, seed=0)
    z0 = rng.standard_normal((n, 4))
    prep = prepare_diffusion_batch(z0, z0, np.zeros(len(z0), dtype=np.int64),
                                   sched, 0.3, 500, 0.10, rng, model.null_index)
    rate = prep.n_dropped / len(z0)  # binomial at p = 0.1: SE = sqrt(0.09/n)
    assert abs(rate - 0.10) <= 9.4 * math.sqrt(0.09 / n), f"dropout rate {rate}"


def check_gradients(rng, n=5):
    sched = build_schedule()
    model = MlpDenoiser(latent_dim=3, hidden=6, time_dim=4, prompt_dim=3,
                        n_classes=3, seed=1)
    z0 = rng.standard_normal((8, 3))
    z_c = z0 + 0.3 * rng.standard_normal((8, 3))
    prep = prepare_diffusion_batch(z0, z_c, rng.integers(0, 3, size=8), sched,
                                   0.3, 500, 0.10, rng, model.null_index)
    cfg = TrainConfig()
    _, _, grads = loss_and_grads(model, prep, cfg, sched)
    for _ in range(n):
        name = ["w1", "b1", "w2", "b2", "w3", "b3", "emb"][int(rng.integers(7))]
        flat_idx = int(rng.integers(model.params[name].size))
        idx = np.unravel_index(flat_idx, model.params[name].shape)
        h = 1e-5
        orig = model.params[name][idx]
        model.params[name][idx] = orig + h
        up, _, _ = loss_and_grads(model, prep, cfg, sched, want_grads=False)
        model.params[name][idx] = orig - h
        down, _, _ = loss_and_grads(model, prep, cfg, sched, want_grads=False)
        model.params[name][idx] = orig
        fd = (up - down) / (2 * h)
        an = grads[name][idx]
        denom = max(abs(fd), abs(an), 1e-8)
        assert abs(fd - an) / denom < 1e-4, f"{name}{idx}: fd={fd} analytic={an}"


ALL_CHECKS = [
    ("schedule tables", check_schedule_tables),
    ("coefficient identities", check_coefficient_identities),
    ("warm-start coincidence", check_warm_start_coincidence),
    ("inversion round trip", check_inversion_roundtrip),
    ("ddim reduction", check_ddim_reduction),
    ("exact-oracle recovery", check_exact_oracle_recovery),
    ("frozen-noise trajectory", check_frozen_noise_trajectory),
    ("guidance identities", check_cfg_identities),
    ("channel basics", check_channel_basics),
    ("channel calibration", check_channel_calibration),
    ("mmse vs zero-forcing", check_mmse_vs_zf),
    ("codec properties", check_codec_properties),
    ("analytic predictor", check_analytic_predictor),
    ("arithmetic coding round trip", check_arithmetic_roundtrip),
    ("ldpc properties", check_ldpc_properties),
    ("side-channel framing", check_sidechannel_frame),
    ("metrics identities", check_metrics),
    ("warm-start table", check_warm_start_table),
    ("pipeline determinism", check_pipeline_determinism),
    ("prompt dropout rate", check_prompt_dropout),
    ("gradient check", check_gradients),
]


def run_verification(seed: int = 7, quiet: bool = False) -> tuple[int, int, str]:
    """Run every invariant suite; returns (passed, failed, report text), and
    writes the report to stderr unless quiet."""
    buf = io.StringIO()
    passed = failed = 0
    for name, fn in ALL_CHECKS:
        key = zlib.crc32(name.encode("utf-8"))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(key,)))
        try:
            fn(rng)
        except AssertionError as exc:
            failed += 1
            buf.write(f"FAIL {name}: {exc}\n")
        except Exception as exc:  # a crash is a failed invariant, with context
            failed += 1
            buf.write(f"FAIL {name}: {type(exc).__name__}: {exc}\n")
        else:
            passed += 1
            buf.write(f"PASS {name}\n")
    buf.write(f"{passed} passed, {failed} failed\n")
    report = buf.getvalue()
    if not quiet:
        sys.stderr.write(report)
    return passed, failed, report
