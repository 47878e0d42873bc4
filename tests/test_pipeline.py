import math
from dataclasses import fields, replace

import numpy as np
import pytest

from gencomm.channel import ChannelConfig
from gencomm.config import ExperimentConfig, config_metadata
from gencomm.errors import ConfigurationError, ContractError
from gencomm.jscc import CodecConfig
from gencomm.pipeline import (DEFAULT_WARM_START_TABLE, build_context, make_training_set,
                              read_results, run_trial, sweep, warm_start_for_cbr,
                              write_results)
from gencomm.verify import check_pipeline_determinism, check_warm_start_table

TOY_CODEC = CodecConfig(k_prime=4, k=2, height=8, width=8, channels=1)


def toy_config(**kw):
    base = dict(master_seed=77, trials=6, sweep_axis="none", prompt=None,
                predictor="analytic", warm_start=400, codec=TOY_CODEC,
                sidechannel_enabled=False)
    base.update(kw)
    return ExperimentConfig(**base)


class TestWarmStartTable:
    @pytest.mark.parametrize("point,step", list(DEFAULT_WARM_START_TABLE))
    def test_published_points(self, point, step):
        assert warm_start_for_cbr(point) == step

    def test_clamps_outside_range(self, rng):
        # also: every published point maps to its own step
        check_warm_start_table(rng)

    def test_nearest_with_tie_toward_larger_step(self):
        # exact midpoint between 0.0020 and 0.0033
        assert warm_start_for_cbr(0.00265) == 600
        assert warm_start_for_cbr(0.0027) == 500

    def test_nonpositive_cbr_rejected(self):
        with pytest.raises(ContractError):
            warm_start_for_cbr(0.0)


def _no_timing(row):
    return replace(row, wall_time=0.0)


class TestRunTrial:
    def test_deterministic(self, rng):
        check_pipeline_determinism(rng)

    def test_different_trials_differ(self):
        ctx = build_context(toy_config())
        assert run_trial(ctx, 0).result.mse_coarse != run_trial(ctx, 1).result.mse_coarse

    def test_psnr_consistent_with_mse(self):
        ctx = build_context(toy_config())
        for t in range(6):
            r = run_trial(ctx, t).result
            assert (r.psnr_refined > r.psnr_coarse) == (r.mse_refined < r.mse_coarse)

    def test_prompt_side_channel_accounted(self):
        cfg = toy_config(prompt="class:3", sidechannel_enabled=True,
                         ldpc_n=256, ldpc_seed=11,
                         channel=ChannelConfig("awgn", 12.0))
        r = run_trial(build_context(cfg), 0).result
        assert r.k_o > 0 and r.prompt_ok

    def test_sidechannel_failure_falls_back_to_unconditional(self):
        cfg = toy_config(prompt="class:3", sidechannel_enabled=True,
                         ldpc_n=256, ldpc_seed=11, sidechannel_snr_db=-40.0)
        out = run_trial(build_context(cfg), 0)
        assert not out.result.prompt_ok
        assert math.isfinite(out.result.mse_refined)

    def test_warm_start_exceeding_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            build_context(toy_config(warm_start=800, schedule_steps=700))

    def test_mlp_predictor_runs(self):
        cfg = toy_config(predictor="mlp")
        r = run_trial(build_context(cfg), 0).result
        assert math.isfinite(r.mse_refined)

    def test_rayleigh_end_to_end(self):
        cfg = toy_config(channel=ChannelConfig("rayleigh", 10.0), trials=20)
        ctx = build_context(cfg)
        for t in range(20):
            r = run_trial(ctx, t).result
            assert math.isfinite(r.mse_refined)
            assert r.mse_refined <= 10.0 * r.mse_coarse

    def test_mlp_checkpoint_predictor(self, tmp_path):
        from gencomm.denoiser import MlpDenoiser, save_checkpoint

        path = tmp_path / "model.npz"
        save_checkpoint(MlpDenoiser(latent_dim=8, hidden=16, seed=4), path)
        cfg = toy_config(predictor="mlp", mlp_checkpoint=str(path))
        r = run_trial(build_context(cfg), 0).result
        assert math.isfinite(r.mse_refined)
        # mismatched latent dimension is a configuration error
        save_checkpoint(MlpDenoiser(latent_dim=6, hidden=16, seed=4), path)
        with pytest.raises(ConfigurationError, match="latent dim"):
            build_context(toy_config(predictor="mlp", mlp_checkpoint=str(path)))


class TestSweep:
    def test_single_point_matches_run_trial(self):
        cfg = toy_config(trials=8)
        rows, aggregates = sweep(cfg)
        ctx = build_context(cfg)
        direct = [run_trial(ctx, t).result for t in range(8)]
        for row, want in zip(rows, direct):
            assert row.mse_coarse == want.mse_coarse
            assert row.mse_refined == want.mse_refined
        means = [a for a in aggregates if a["kind"] == "mean"]
        assert means[0]["mse_coarse"] == pytest.approx(
            np.mean([r.mse_coarse for r in direct]))

    def test_snr_axis(self):
        cfg = toy_config(sweep_axis="snr", snr_points=(0.0, 10.0), trials=3)
        rows, aggregates = sweep(cfg)
        assert len(rows) == 6
        assert sorted({r.snr_db for r in rows}) == [0.0, 10.0]
        assert len(aggregates) == 4  # mean + std per axis point

    def test_cbr_axis_derives_k_and_warm_start(self):
        codec = CodecConfig(k_prime=12, k=2, height=32, width=32, channels=1)
        cfg = ExperimentConfig(master_seed=5, trials=2, sweep_axis="cbr",
                               cbr_points=(0.002, 0.0033, 0.0059, 0.011),
                               predictor="analytic", prompt=None, codec=codec,
                               sidechannel_enabled=False)
        rows, _ = sweep(cfg)
        by_axis = {}
        for r in rows:
            by_axis[r.axis_index] = (r.k, r.warm_start)
        # k = round(cbr * 1024), clamped to k_prime; warm start via the table
        assert by_axis[0] == (2, 600)
        assert by_axis[1] == (3, 500)
        assert by_axis[2] == (6, 400)
        assert by_axis[3] == (11, 300)

    def test_thread_counts_agree(self):
        # trials >= d+1 so every aggregate is finite and comparable
        cfg = toy_config(sweep_axis="snr", snr_points=(3.0, 9.0), trials=10)
        rows1, agg1 = sweep(cfg, threads=1)
        rows4, agg4 = sweep(cfg, threads=4)
        assert [_no_timing(r) for r in rows1] == [_no_timing(r) for r in rows4]
        strip = [{k: v for k, v in a.items() if k != "wall_time"} for a in agg1]
        strip4 = [{k: v for k, v in a.items() if k != "wall_time"} for a in agg4]
        assert strip == strip4

    def test_frechet_filled_when_enough_trials(self):
        cfg = toy_config(trials=12)  # d = 8 -> need >= 9
        rows, _ = sweep(cfg)
        assert all(math.isfinite(r.frechet_gauss) for r in rows)
        assert len({r.frechet_gauss for r in rows}) == 1

    def test_frechet_nan_when_too_few(self):
        rows, _ = sweep(toy_config(trials=3))
        assert all(math.isnan(r.frechet_gauss) for r in rows)

    def test_partial_failures_recorded_per_row(self, monkeypatch, tmp_path):
        import gencomm.pipeline as pipeline_mod
        from gencomm.errors import NormalizationError

        real = pipeline_mod.draw_batch

        def flaky(ctx, trial_ids):
            if trial_ids == [1]:
                # commas and newlines must not corrupt the CSV layout
                raise NormalizationError("synthetic failure, shape (3, 4)\nboom")
            return real(ctx, trial_ids)

        # One trial per batch, so a failed draw stage fails trial 1 alone.
        monkeypatch.setattr(pipeline_mod, "TRIALS_PER_BATCH", 1)
        monkeypatch.setattr(pipeline_mod, "draw_batch", flaky)
        rows, aggregates = sweep(toy_config(trials=4))
        assert len(rows) == 4
        failed = [r for r in rows if r.error]
        assert len(failed) == 1 and failed[0].trial_id == 1
        assert "NormalizationError" in failed[0].error
        assert math.isnan(failed[0].mse_refined)
        mean = next(a for a in aggregates if a["kind"] == "mean")
        assert mean["n_failed"] == 1
        assert math.isfinite(mean["mse_coarse"])  # failures excluded from stats
        path = tmp_path / "failures.csv"
        write_results(rows, aggregates, {}, path)
        _, trials, _ = read_results(path)
        assert len(trials) == 4
        assert "synthetic failure" in trials[1]["error"]


def _same_fields(a, b):
    """Every RunResult field but wall_time equal; NaN equals NaN."""
    for f in fields(a):
        if f.name == "wall_time":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))):
            return False
    return True


class TestBatchedSideChannel:
    def _cfg(self, **kw):
        # 1 dB: some prompts fail. trials <= latent dim, so frechet_gauss
        # stays NaN in sweep rows as in run_trial rows.
        base = dict(trials=8, sweep_axis="snr", snr_points=(1.0,), prompt="class:3",
                    sidechannel_enabled=True, ldpc_n=256, ldpc_seed=11)
        return toy_config(**{**base, **kw})

    def test_sweep_equals_run_trial_per_trial(self):
        cfg = self._cfg()
        rows, _ = sweep(cfg)
        ctx = build_context(cfg, 0, 1.0)
        direct = [run_trial(ctx, t).result for t in range(cfg.trials)]
        assert {r.prompt_ok for r in rows} == {True, False}
        assert not any(r.error for r in rows)
        for row, want in zip(rows, direct):
            assert _same_fields(row, want), (row, want)

    def test_failure_in_one_trial_side_channel(self, monkeypatch):
        import gencomm.pipeline as pipeline_mod

        cfg = self._cfg()
        ctx = build_context(cfg, 0, 1.0)
        direct = [run_trial(ctx, t).result for t in range(cfg.trials)]
        real = pipeline_mod.draw_batch

        def poisoned(ctx, trial_ids):
            # z0 = 0 in trial 2: its latent has no power to normalise.
            draws = real(ctx, trial_ids)
            if 2 in trial_ids:
                draws.prior[trial_ids.index(2)] = 0.0
            return draws

        monkeypatch.setattr(pipeline_mod, "draw_batch", poisoned)
        rows, aggregates = sweep(cfg)
        assert [r.trial_id for r in rows if r.error] == [2]
        assert "NormalizationError" in rows[2].error
        assert {r.prompt_ok for r in rows if not r.error} == {True, False}
        for row, want in zip(rows, direct):
            if row.trial_id != 2:
                assert _same_fields(row, want)
        assert next(a for a in aggregates if a["kind"] == "mean")["n_failed"] == 1

    def test_batch_size_changes_nothing(self, monkeypatch):
        import gencomm.pipeline as pipeline_mod

        cfg = self._cfg(trials=10)
        whole, agg = sweep(cfg)
        monkeypatch.setattr(pipeline_mod, "TRIALS_PER_BATCH", 3)
        split, agg3 = sweep(cfg)
        assert all(_same_fields(a, b) for a, b in zip(whole, split))
        assert len(split) == 10 and split[-1].trial_id == 9
        assert [a["mse_refined"] for a in agg] == [a["mse_refined"] for a in agg3]


def _counting(monkeypatch, module, name):
    """Replace `module.name` by a wrapper that counts its calls."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSweepSharing:
    """A sweep builds what does not depend on the point once; each point
    still gets the rows a fresh `build_context` gives."""

    SNR_POINTS = (1.0, 4.0, 7.0, 10.0, 13.0)
    # 8x8x1 source: k = round(cbr * 64) = 1, 1, 2, 3
    CBR_POINTS = (0.015, 0.02, 0.03, 0.05)

    def test_snr_sweep_builds_model_codec_and_schedule_once(self, monkeypatch):
        import gencomm.pipeline as pipeline_mod

        counts = {name: _counting(monkeypatch, pipeline_mod, name)
                  for name in ("MlpDenoiser", "make_linear_codec", "build_schedule")}
        rows, _ = sweep(toy_config(predictor="mlp", sweep_axis="snr",
                                   snr_points=self.SNR_POINTS, trials=2))
        assert len(rows) == 10
        assert {name: len(calls) for name, calls in counts.items()} == {
            "MlpDenoiser": 1, "make_linear_codec": 1, "build_schedule": 1}

    def test_cbr_sweep_builds_one_codec_per_k(self, monkeypatch):
        import gencomm.pipeline as pipeline_mod

        codecs = _counting(monkeypatch, pipeline_mod, "make_linear_codec")
        rows, _ = sweep(toy_config(sweep_axis="cbr", cbr_points=self.CBR_POINTS, trials=2))
        assert [r.k for r in rows] == [1, 1, 1, 1, 2, 2, 3, 3]
        assert [c[0].k for c in codecs] == [1, 2, 3]

    @pytest.mark.parametrize("axis", ["snr", "cbr"])
    @pytest.mark.parametrize("predictor", ["analytic", "mlp", "mlp-checkpoint"])
    def test_points_equal_fresh_contexts(self, tmp_path, axis, predictor):
        from gencomm.denoiser import MlpDenoiser, save_checkpoint
        from gencomm.pipeline import _axis_points, run_trials

        extra = {}
        if predictor == "mlp-checkpoint":
            path = tmp_path / "model.npz"
            save_checkpoint(MlpDenoiser(latent_dim=8, hidden=16, seed=4), path)
            predictor, extra = "mlp", {"mlp_checkpoint": str(path)}
        # trials <= latent dim keeps frechet_gauss NaN in sweep rows too
        cfg = toy_config(predictor=predictor, sweep_axis=axis, snr_points=self.SNR_POINTS,
                         cbr_points=self.CBR_POINTS, trials=4,
                         channel=ChannelConfig("rayleigh", 10.0), **extra)
        rows, _ = sweep(cfg)
        points = _axis_points(cfg)
        assert len(rows) == 4 * len(points)
        for (axis_index, snr_db, codec_cfg), lo in zip(points, range(0, len(rows), 4)):
            fresh = run_trials(build_context(cfg, axis_index, snr_db, codec_cfg), list(range(4)))
            for row, want in zip(rows[lo:lo + 4], fresh.rows):
                assert _same_fields(row, want), (row, want)

    def test_sweeps_share_no_model(self, monkeypatch):
        import gencomm.pipeline as pipeline_mod

        contexts = []
        real = pipeline_mod.run_trials

        def recording(ctx, trial_ids):
            contexts.append(ctx)
            return real(ctx, trial_ids)

        monkeypatch.setattr(pipeline_mod, "run_trials", recording)
        for seed in (1, 2):
            sweep(toy_config(predictor="mlp", sweep_axis="snr", snr_points=(1.0, 9.0),
                             trials=2, master_seed=seed))
        first, second = contexts[:2], contexts[2:]
        assert first[0].predictor is first[1].predictor
        assert second[0].predictor is second[1].predictor
        assert first[0].predictor is not second[0].predictor
        assert first[0].codec is not second[0].codec
        assert not np.array_equal(first[0].predictor.params["w1"],
                                  second[0].predictor.params["w1"])


class TestPersistence:
    def _sweep(self):
        cfg = toy_config(trials=10, prompt="class:2", sidechannel_enabled=True,
                         ldpc_n=256, ldpc_seed=11)
        rows, aggregates = sweep(cfg)
        return cfg, rows, aggregates

    def test_csv_roundtrip(self, tmp_path):
        cfg, rows, aggregates = self._sweep()
        path = tmp_path / "out.csv"
        write_results(rows, aggregates, config_metadata(cfg), path, fmt="csv")
        meta, trials, aggs = read_results(path, fmt="csv")
        assert len(trials) == len(rows) and len(aggs) == len(aggregates)
        for rec, row in zip(trials, rows):
            assert rec["mse_refined"] == row.mse_refined  # 17g is lossless
            assert rec["prompt_ok"] == row.prompt_ok
            assert rec["k_o"] == row.k_o
        assert meta["spec_version"] == "1"

    def test_json_roundtrip(self, tmp_path):
        cfg, rows, aggregates = self._sweep()
        path = tmp_path / "out.json"
        write_results(rows, aggregates, config_metadata(cfg), path, fmt="json")
        meta, trials, aggs = read_results(path, fmt="json")
        assert trials[0]["mse_coarse"] == rows[0].mse_coarse
        assert aggs[0]["kind"] == "mean"

    def test_empty_results_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results([], [], {"spec_version": 1}, path, fmt="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "# spec_version = 1"
        assert lines[1].startswith("kind,axis_index,trial_id")
        assert len(lines) == 3  # metadata + trial header + aggregate header

    def test_timing_column_off_by_default(self, tmp_path):
        cfg, rows, aggregates = self._sweep()
        path = tmp_path / "out.csv"
        write_results(rows, aggregates, {}, path, fmt="csv")
        header = path.read_text().splitlines()[0]
        assert "wall_time" not in header
        write_results(rows, aggregates, {}, path, fmt="csv", include_timing=True)
        assert "wall_time" in path.read_text().splitlines()[0]

    def test_infinite_psnr_survives_both_formats(self, tmp_path):
        # mse of exactly 0 maps to infinite psnr; the formats must carry it
        from gencomm.pipeline import RunResult
        row = RunResult(axis_index=0, trial_id=0, snr_db=10.0, cbr=0.01,
                        warm_start=500, k=2, k_o=0, mse_coarse=0.1,
                        mse_refined=0.0, psnr_coarse=10.0,
                        psnr_refined=math.inf, frechet_gauss=0.0,
                        prompt_ok=True, wall_time=0.0)
        for fmt in ("csv", "json"):
            path = tmp_path / f"inf.{fmt}"
            write_results([row], [], {}, path, fmt=fmt)
            _, trials, _ = read_results(path, fmt=fmt)
            assert math.isinf(trials[0]["psnr_refined"])
            assert trials[0]["mse_refined"] == 0.0

    def test_write_is_deterministic(self, tmp_path):
        cfg, rows, aggregates = self._sweep()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_results(rows, aggregates, config_metadata(cfg), a)
        write_results(rows, aggregates, config_metadata(cfg), b)
        assert a.read_bytes() == b.read_bytes()


def test_refinement_never_diverges_at_reference_point():
    # Per-trial blowup guard. The refined/coarse ratio is statistically
    # unbounded as trials grow (sampler noise is independent of lucky channel
    # draws), so the guard is exercised at a pinned deterministic scenario.
    cfg = ExperimentConfig(master_seed=11, trials=500, sweep_axis="none",
                           prompt=None, predictor="analytic", warm_start=500,
                           channel=ChannelConfig("awgn", 10.0),
                           codec=CodecConfig(k_prime=8, k=2, height=32,
                                             width=32, channels=1),
                           sidechannel_enabled=False)
    ctx = build_context(cfg)
    for t in range(500):
        r = run_trial(ctx, t).result
        assert r.mse_refined <= 10.0 * r.mse_coarse, (t, r.mse_refined, r.mse_coarse)


def test_make_training_set_shapes_and_labels():
    ctx = build_context(toy_config())
    rng = np.random.default_rng(3)
    z0s, z_cs, labels = make_training_set(ctx, n=64, rng=rng, n_classes=10)
    assert z0s.shape == (64, 8) and z_cs.shape == (64, 8)
    assert labels.min() >= 0 and labels.max() <= 9
    # labels follow the first coordinate's prior quantile
    hi = z0s[:, 0] > 1.0
    assert labels[hi].min() >= 5
