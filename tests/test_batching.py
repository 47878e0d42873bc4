"""Batch-first invariants: every batched stage gives each row exactly the
bits of a lone call, whatever the batch size, and a failing row fails alone.

The reduction orders these rest on are pinned first: a stacked
matrix-vector product (`W @ X[:, :, None]`, `X[:, None, :] @ W.T`) rounds
like the lone product. A plain gemm (`X @ W.T`) in general does not, but a
gemm over zero-padded blocks of a fixed row count, as in the MLP layers,
gives each row the same bits at any position and in any batch.
"""

import math
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gencomm.pipeline as pipeline_mod
from gencomm.channel import (DRAW_ROWS, ChannelConfig, apply_channel, mmse_equalize,
                             normalize_power, pack_complex, power_scales, transmit)
from gencomm.config import ExperimentConfig
from gencomm.denoiser import (_BLOCK, AnalyticPredictor, ExactRecoveryOracle, GaussianWorld,
                              MlpDenoiser, TrainConfig)
from gencomm.errors import ContractError, NormalizationError
from gencomm.jscc import CodecConfig, LinearCodec, make_linear_codec
from gencomm.ldpc import ldpc_make
from gencomm.metrics import mse
from gencomm.pipeline import build_context, make_training_set, run_trial, sweep
from gencomm.sampler import SamplerConfig, sample, sample_batch
from gencomm.schedule import residual_weight
from gencomm.sidechannel import measure_link

BATCH_SIZES = (1, 3, 40)


def _rows_equal(batch, lone):
    return np.array_equal(batch, np.stack(lone))


def _block_gemm(x, w):
    """x @ w.T as one gemm per zero-padded block of _BLOCK rows."""
    n = len(x)
    blocks = np.zeros((-(-n // _BLOCK) * _BLOCK, x.shape[1]), x.dtype)
    blocks[:n] = x
    return (blocks.reshape(-1, _BLOCK, x.shape[1]) @ w.T).reshape(-1, len(w))[:n]


class TestReductionOrder:
    @pytest.mark.parametrize("b", BATCH_SIZES)
    def test_stacked_matvec_matches_lone_product(self, rng, b):
        w = rng.standard_normal((24, 40))
        x = rng.standard_normal((b, 40))
        assert _rows_equal((w @ x[:, :, None])[:, :, 0], [w @ r for r in x])
        assert _rows_equal((x[:, None, :] @ w.T)[:, 0], [(r[None] @ w.T)[0] for r in x])

    @pytest.mark.parametrize("b", (1, 3, 40, 128, 129, 300))
    @pytest.mark.parametrize("shape", [(128, 80), (128, 128), (16, 128)],
                             ids=["layer1", "layer2", "layer3"])
    def test_block_gemm_row_bits_do_not_depend_on_batch_or_position(self, rng, b, shape):
        w = rng.standard_normal(shape)
        x = rng.standard_normal((b, shape[1]))
        lone = [_block_gemm(r[None], w)[0] for r in x]
        assert _rows_equal(_block_gemm(x, w), lone)
        order = rng.permutation(b)
        assert _rows_equal(_block_gemm(x[order], w), [lone[i] for i in order])
        assert _rows_equal(_block_gemm(np.vstack([x, x[::-1]]), w), lone + lone[::-1])

    def test_block_is_one_training_batch(self):
        # A default training batch is exactly one block, so it keeps a plain gemm's bits.
        assert _BLOCK == TrainConfig().batch_size

    def test_row_power_matches_dot(self, rng):
        x = rng.standard_normal((17, 10))
        assert _rows_equal((x[:, None, :] @ x[:, :, None])[:, 0, 0],
                           [np.dot(r, r) for r in x])

    def test_row_mean_matches_lone_mean(self, rng):
        a, b = rng.standard_normal((2, 9, 16))
        assert _rows_equal(mse(a, b), [mse(x, y) for x, y in zip(a, b)])


class TestCodecAndChannel:
    @pytest.mark.parametrize("b", BATCH_SIZES)
    def test_encode_decode_rows(self, rng, b):
        codec = make_linear_codec(CodecConfig(k_prime=8, k=3), seed=5, tikhonov_lambda=0.2)
        z = rng.standard_normal((b, 16))
        x, scales = codec.encode(z)
        lone = [codec.encode(r[None]) for r in z]
        assert _rows_equal(x, [e[0][0] for e in lone])
        assert _rows_equal(scales, [e[1][0] for e in lone])
        y = rng.standard_normal((b, 6))
        assert _rows_equal(codec.decode(y, 0.3, scales),
                           [codec.decode(r[None], 0.3, s[None])[0] for r, s in zip(y, scales)])

    def test_power_scales_match_normalize_power(self, rng):
        x = rng.standard_normal((7, 12))
        assert _rows_equal(power_scales(x), [normalize_power(r)[1] for r in x])

    def test_zero_row_gets_nan_scale_alone(self, rng):
        codec = make_linear_codec(CodecConfig(k_prime=4, k=2), seed=5)
        z = rng.standard_normal((3, 8))
        z[1] = 0.0
        x, scales = codec.encode(z)
        assert np.isnan(scales[1]) and np.all(np.isnan(x[1]))
        assert np.isfinite(scales[[0, 2]]).all()

    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_channel_rows_match_transmit(self, rng, kind):
        cfg = ChannelConfig(kind, 4.0)
        x = pack_complex(rng.standard_normal((5, 6)))
        seeds = range(5)
        lone = [transmit(r, cfg, np.random.default_rng(s)) for r, s in zip(x, seeds)]
        draws = np.stack([np.random.default_rng(s).standard_normal((DRAW_ROWS[kind], 3))
                          for s in seeds])
        y, h = apply_channel(x, draws, cfg)
        assert _rows_equal(y, [e[0] for e in lone]) and _rows_equal(h, [e[1] for e in lone])
        assert _rows_equal(mmse_equalize(y, h, 0.4),
                           [mmse_equalize(a, b, 0.4) for a, b in lone])


def _predictors(sched, d, z0):
    gamma = residual_weight(500, sched)
    codec = make_linear_codec(CodecConfig(k_prime=d // 2, k=2), seed=3)
    world = GaussianWorld.ar1(codec, 6.0, rho=0.8)
    return {
        "analytic": (AnalyticPredictor(world, sched, gamma), None),
        "mlp": (MlpDenoiser(latent_dim=d, hidden=24, seed=2), "class:4"),
        "oracle": (ExactRecoveryOracle(z0, sched, gamma), None),
    }


class TestPredictorsAndSampler:
    @pytest.mark.parametrize("name", ["analytic", "mlp", "oracle"])
    @pytest.mark.parametrize("b", BATCH_SIZES)
    def test_predict_rows(self, sched, rng, name, b):
        d = 8
        z_t, z_c, z0 = rng.standard_normal((3, b, d))
        pred, prompt = _predictors(sched, d, z0)[name]
        for p in (prompt, None):
            batch = pred.predict(z_t, z_c, p, 300)
            if name == "oracle":
                lone = [ExactRecoveryOracle(z, sched, pred.gamma)
                        .predict(a[None], c[None], p, 300)[0] for z, a, c in zip(z0, z_t, z_c)]
            else:
                lone = [pred.predict(a[None], c[None], p, 300)[0] for a, c in zip(z_t, z_c)]
            assert _rows_equal(batch, lone)

    def test_mlp_inference_agrees_with_training_forward(self, rng):
        # Inference and training run one forward pass, in blocks of _BLOCK rows;
        # 200 rows are more than one block. Inference runs it in float32, on the
        # float32 casts of training's input and parameters.
        model = MlpDenoiser(latent_dim=8, seed=2)
        z_t, z_c = rng.standard_normal((2, 200, 8))
        out = model.predict(z_t, z_c, "class:1", 250)
        again = model.predict(z_t[:5], z_c[:5], "class:1", 250)
        assert np.array_equal(out[:5], again)
        _, (x, *_) = model.forward_batch(z_t, z_c, np.full(200, 1), np.full(200, 250))
        p = {name: value.astype(np.float32) for name, value in model.params.items()}
        h = x.astype(np.float32)
        for layer in ("1", "2"):
            h = np.tanh(_block_gemm(h, p["w" + layer]) + p["b" + layer])
        assert np.array_equal(_block_gemm(h, p["w3"]) + p["b3"], out)

    @pytest.mark.parametrize("name", ["analytic", "mlp", "oracle"])
    @pytest.mark.parametrize("b", BATCH_SIZES)
    def test_sample_rows(self, sched, rng, name, b):
        d = 8
        z_c, z0 = rng.standard_normal((2, b, d))
        pred, prompt = _predictors(sched, d, z0)[name]
        cfg = SamplerConfig(steps=5, warm_start_step=500, guidance=2.5)
        eps = np.stack([np.random.default_rng(s).standard_normal(d) for s in range(b)])
        out, trace = sample_batch(z_c, pred, prompt, cfg, sched, eps)
        for r in range(b):
            lone_pred = (ExactRecoveryOracle(z0[r], sched, pred.gamma)
                         if name == "oracle" else pred)
            z, lone_trace = sample(z_c[r], lone_pred, prompt, cfg, sched,
                                   np.random.default_rng(r))
            assert np.array_equal(out[r], z)
            for step, lone in zip(trace.steps, lone_trace.steps):
                assert np.array_equal(step.z0_hat[r], lone.z0_hat)


TOY_CODEC = CodecConfig(k_prime=4, k=2, height=8, width=8, channels=1)


def _same_fields(a, b):
    """Every RunResult field but wall_time equal; NaN equals NaN."""
    for f in fields(a):
        if f.name == "wall_time":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))):
            return False
    return True


def _sweep_cfg(predictor, kind, seed, trials, prompt=None, sidechannel=False):
    return ExperimentConfig(
        master_seed=seed, trials=trials, sweep_axis="snr", snr_points=(1.0, 9.0),
        predictor=predictor, channel=ChannelConfig(kind, 10.0), warm_start=400,
        codec=TOY_CODEC, prompt=prompt, sidechannel_enabled=sidechannel,
        ldpc_n=256, ldpc_seed=11)


class TestSweepBatchSize:
    @given(predictor=st.sampled_from(["analytic", "mlp", "exact-oracle"]),
           kind=st.sampled_from(["awgn", "rayleigh"]),
           seed=st.integers(0, 2**31 - 1),
           trials=st.integers(1, 11),
           sidechannel=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_rows_do_not_depend_on_batch_size(self, predictor, kind, seed, trials,
                                              sidechannel):
        cfg = _sweep_cfg(predictor, kind, seed, trials, prompt="class:3",
                         sidechannel=sidechannel)
        runs = []
        for size in (1, 3, pipeline_mod.TRIALS_PER_BATCH):
            with mock.patch.object(pipeline_mod, "TRIALS_PER_BATCH", size):
                runs.append(sweep(cfg))
        (rows, aggs), others = runs[0], runs[1:]
        assert not any(r.error for r in rows)
        for other_rows, other_aggs in others:
            assert [r.trial_id for r in other_rows] == [r.trial_id for r in rows]
            assert all(_same_fields(a, b) for a, b in zip(rows, other_rows))
            for a, b in zip(aggs, other_aggs):
                a, b = dict(a, wall_time=0.0), dict(b, wall_time=0.0)
                assert all(a[k] == b[k] or (math.isnan(a[k]) and math.isnan(b[k]))
                           for k in a if k != "kind")

    @pytest.mark.parametrize("predictor", ["analytic", "mlp", "exact-oracle"])
    def test_sweep_rows_equal_run_trial(self, predictor):
        cfg = _sweep_cfg(predictor, "rayleigh", 21, 6, prompt="class:3", sidechannel=True)
        rows, _ = sweep(cfg)
        for axis_index, snr in enumerate(cfg.snr_points):
            ctx = build_context(cfg, axis_index, snr)
            for t in range(cfg.trials):
                row = rows[axis_index * cfg.trials + t]
                assert _same_fields(row, run_trial(ctx, t).result)


class TestRowFailures:
    def test_one_zero_power_row_gives_one_error_row(self, monkeypatch):
        cfg = _sweep_cfg("mlp", "awgn", 4, 5)
        clean, _ = sweep(cfg)
        real = pipeline_mod.draw_batch

        def zero_latent(ctx, trial_ids):
            draws = real(ctx, trial_ids)
            if 3 in trial_ids and ctx.axis_index == 1:
                # mu0 = 0, so zero prior draws give z0 = 0 and an all-zero codeword
                draws.prior[trial_ids.index(3)] = 0.0
            return draws

        monkeypatch.setattr(pipeline_mod, "draw_batch", zero_latent)
        rows, aggregates = sweep(cfg)
        failed = [r for r in rows if r.error]
        assert [(r.axis_index, r.trial_id) for r in failed] == [(1, 3)]
        assert failed[0].error.startswith("NormalizationError")
        assert all(_same_fields(a, b) for a, b in zip(rows, clean) if not a.error)
        assert [a["n_failed"] for a in aggregates if a["kind"] == "mean"] == [0, 1]
        with pytest.raises(NormalizationError):
            run_trial(build_context(cfg, 1, 9.0), 3)

    @pytest.mark.parametrize("predictor", ["mlp", "exact-oracle"])
    def test_zero_power_rows_fail_alone(self, monkeypatch, predictor):
        cfg = _sweep_cfg(predictor, "rayleigh", 6, 7, prompt="class:3", sidechannel=True)
        ctx = build_context(cfg, 0, 1.0)
        real = pipeline_mod.draw_batch

        def two_bad_rows(ctx, trial_ids):
            draws = real(ctx, trial_ids)
            draws.prior[[trial_ids.index(1), trial_ids.index(4)]] = 0.0
            return draws

        direct = [run_trial(ctx, t) for t in range(cfg.trials)]
        monkeypatch.setattr(pipeline_mod, "draw_batch", two_bad_rows)
        got = pipeline_mod.run_trials(ctx, list(range(cfg.trials)))
        assert [r.trial_id for r in got.rows] == list(range(cfg.trials))
        assert [(r.trial_id, r.error.partition(":")[0]) for r in got.rows if r.error] == [
            (1, "NormalizationError"), (4, "NormalizationError")]
        assert [(r, type(e)) for r, e in enumerate(got.errors) if e] == [
            (1, NormalizationError), (4, NormalizationError)]
        live = [out for t, out in enumerate(direct) if t not in (1, 4)]
        assert all(_same_fields(r, out.result) for r, out in zip(
            [r for r in got.rows if not r.error], live))
        assert np.array_equal(got.z0, np.stack([out.z0 for out in live]))
        assert np.array_equal(got.z0_hat, np.stack([out.z0_hat for out in live]))

        def all_bad(ctx, trial_ids):
            draws = real(ctx, trial_ids)
            draws.prior[:] = 0.0
            return draws

        monkeypatch.setattr(pipeline_mod, "draw_batch", all_bad)
        got = pipeline_mod.run_trials(ctx, [0, 1])
        assert [r.error.partition(":")[0] for r in got.rows] == ["NormalizationError"] * 2
        assert got.z0.shape == got.z0_hat.shape == (0, ctx.world.dim)

    def test_sampler_error_fails_only_rows_with_that_prompt(self):
        # The MLP has 10 classes, so a received "class:99" is a ContractError;
        # rows whose prompt was lost sample unconditionally and succeed.
        cfg = _sweep_cfg("mlp", "awgn", 4, 12, prompt="class:99", sidechannel=True)
        rows, _ = sweep(cfg)
        ctx = build_context(cfg, 0, 1.0)
        for row in rows[: cfg.trials]:
            if row.error:
                assert row.error.startswith("ContractError")
            else:
                assert not row.prompt_ok
                assert _same_fields(row, run_trial(ctx, row.trial_id).result)
        assert 0 < sum(bool(r.error) for r in rows[: cfg.trials]) < cfg.trials

    def test_non_finite_mlp_row_leaves_no_trace_in_later_calls(self, rng):
        # The padding rows of the last block are zeroed on every call, so an
        # inf or nan row left in the input buffer cannot reach a later batch.
        model = MlpDenoiser(latent_dim=8, seed=2)
        z_t, z_c = rng.standard_normal((2, 7, 8))
        z_t[3], z_c[5] = np.inf, np.nan
        with np.errstate(invalid="ignore"):
            model.predict(z_t, z_c, "class:1", 250)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = model.predict(z_t[:2], z_c[:2], "class:1", 250)
        assert np.isfinite(out).all()

    def test_run_trial_raises_a_sampler_error(self):
        # Without a side channel every row samples with "class:99".
        ctx = build_context(_sweep_cfg("mlp", "awgn", 4, 1, prompt="class:99"), 0, 1.0)
        with pytest.raises(ContractError, match="prompt class 99"):
            run_trial(ctx, 0)


def test_training_set_matches_per_sample_chain():
    cfg = _sweep_cfg("mlp", "rayleigh", 8, 1)
    ctx = build_context(cfg)
    z0s, z_cs, _ = make_training_set(ctx, n=12, rng=np.random.default_rng(5))
    rng = np.random.default_rng(5)
    sigma2 = 10.0 ** (-ctx.snr_db / 10.0)
    for z0_want, z_c_want in zip(z0s, z_cs):
        z0 = ctx.world.mu0 + ctx.prior_root @ rng.standard_normal(ctx.world.dim)
        x, scale = ctx.codec.encode(z0[None])
        y, h = transmit(pack_complex(x[0]), ChannelConfig("rayleigh", ctx.snr_db), rng)
        z_c = ctx.codec.decode(mmse_equalize(y, h, sigma2)[None], sigma2, scale)[0]
        assert np.array_equal(z0, z0_want) and np.array_equal(z_c, z_c_want)


def test_engine_runs_the_codec_under_its_traced_names(monkeypatch):
    # benchmarks/spans.py times LinearCodec.encode and LinearCodec.decode; a
    # batch path under other names would read 0 there. One call per batch.
    calls = []
    for name in ("encode", "decode"):
        def counted(self, *args, _name=name, _method=getattr(LinearCodec, name)):
            calls.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(LinearCodec, name, counted)
    monkeypatch.setattr(pipeline_mod, "TRIALS_PER_BATCH", 3)
    rows, _ = sweep(_sweep_cfg("analytic", "awgn", 4, 5))  # two points of two batches
    assert len(rows) == 10 and calls == ["encode", "decode"] * 4
    calls.clear()
    make_training_set(build_context(_sweep_cfg("mlp", "rayleigh", 8, 1)), n=12,
                      rng=np.random.default_rng(5))
    assert calls == ["encode", "decode"]


def test_measure_link_does_not_depend_on_frames_per_decode(monkeypatch):
    code = ldpc_make(256, 11)
    want = measure_link(code, 1.0, 70 * code.k, np.random.default_rng(3), max_iters=20)
    monkeypatch.setattr(code, "chunk_blocks", 1)
    assert measure_link(code, 1.0, 70 * code.k, np.random.default_rng(3), max_iters=20) == want
    assert 0.0 < want["fer"] < 1.0
