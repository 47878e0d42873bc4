import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from gencomm.cli import main
from gencomm.denoiser import load_checkpoint
from gencomm.errors import ConfigurationError, TrainingError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, body):
    path = tmp_path / "exp.cfg"
    path.write_text(body)
    return str(path)


SMALL_SWEEP = """
[experiment]
master_seed = 7
trials = 4
predictor = analytic
prompt =
[codec]
k = 2
k_prime = 4
height = 8
width = 8
channels = 1
[sampler]
warm_start = 400
[sidechannel]
enabled = false
"""


class TestExitCodes:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--seed", "7"]) == 0
        err = capsys.readouterr().err
        assert "passed, 0 failed" in err
        assert err.count("PASS") >= 20

    def test_unknown_flag_is_configuration_error(self, capsys):
        assert main(["simulate", "--config", "x.cfg", "--bogus"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["explode"]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.cfg"]) == 1

    def test_precondition_violation_names_cause(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[sampler]\nsteps = 5\nwarm_start = 3\n")
        assert main(["simulate", "--config", cfg]) == 1
        assert "warm_start" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "[sampler]\nwarm_start = soon\n",
        "[sidechannel]\nsnr_db = loud\n",
        "[experiment]\npeak = 0\n",
        "[experiment]\nmaster_seed = -1\n",
        "[sidechannel]\nbp_iters = -1\n",
        "[experiment]\nsnr_points = 1 nan\n",
        "[experiment]\nsnr_points = -inf 3\n",
        "[channel]\nsnr_db = nan\n",
        "[sidechannel]\nsnr_db = -inf\n",
        "[experiment]\ncbr_points = 0.002 nan\n",
        "[experiment]\ncbr_points = inf\n",
        "[experiment]\ncbr_points = -1\n",
        "[experiment]\ncbr_points = 0\n",
        "[codec]\nseed = -1\n",
        "[sidechannel]\nldpc_seed = -5\n",
        "[experiment]\npeak = nan\n",
        "[sampler]\nguidance = nan\n",
        "[codec]\ntikhonov_lambda = nan\n",
        "[sampler]\nsingular_guard = nan\n",
        "[experiment]\npeak = inf\n",
        "[experiment]\npeak = 1e200\n",
        "[experiment]\npeak = 1e-200\n",
        "[sampler]\nguidance = inf\n",
        "[codec]\ntikhonov_lambda = inf\n",
        "[sampler]\nsingular_guard = inf\n",
        "[world]\nprior_var = inf\n",
        "[world]\nprior_var = 1e308\n",
    ], ids=["warm_start", "sidechannel_snr_db", "peak", "master_seed", "bp_iters",
            "snr_points_nan", "snr_points_neg_inf", "channel_snr_nan", "sidechannel_snr_neg_inf",
            "cbr_nan", "cbr_inf", "cbr_negative", "cbr_zero", "codec_seed_negative",
            "ldpc_seed_negative", "peak_nan", "guidance_nan", "tikhonov_lambda_nan",
            "singular_guard_nan", "peak_inf", "peak_square_overflows", "peak_square_underflows",
            "guidance_inf", "tikhonov_lambda_inf", "singular_guard_inf", "prior_var_inf",
            "prior_var_power_overflows"])
    def test_bad_config_value_is_configuration_error(self, tmp_path, capsys, body):
        assert main(["simulate", "--config", write_cfg(tmp_path, body)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_std_of_a_column_near_1e300_is_finite(self, tmp_path):
        # np.std's squared deviations overflow here; the std is taken on the
        # column scaled by its largest magnitude, with no warning raised.
        body = ("[experiment]\ntrials = 2\n[world]\nprior_var = 1e300\n"
                "[sidechannel]\nenabled = false\n")
        out = tmp_path / "huge.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep-snr", "--config", write_cfg(tmp_path, body), "--out", str(out),
                         "--quiet"]) == 0
        rows, header = [], None
        for line in out.read_text().splitlines():
            if line.startswith("kind,"):
                header = line.split(",")
            elif not line.startswith("#"):
                rows.append(dict(zip(header, line.split(","))))
        stds = [r for r in rows if r["kind"] == "std"]
        assert len(stds) == 5
        for std in stds:
            trials = [r for r in rows if r["kind"] == "trial"
                      and r["axis_index"] == std["axis_index"]]
            for name in ("mse_coarse", "mse_refined"):
                col = np.array([float(r[name]) for r in trials])
                assert np.abs(col).max() > 1e299
                scale = np.abs(col).max()
                assert math.isfinite(float(std[name]))
                assert float(std[name]) == float(scale * np.std(col / scale))

    def test_mean_and_frechet_of_latents_near_1e153_are_finite(self, tmp_path):
        # 300 squared latents near 1e306 overflow in np.cov's sums and in the
        # mean of the mse columns; both are taken on scaled values instead.
        body = ("[experiment]\ntrials = 300\nsnr_points = 7\n[world]\nprior_var = 1e306\n"
                "[sidechannel]\nenabled = false\n")
        out = tmp_path / "huge.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep-snr", "--config", write_cfg(tmp_path, body), "--out", str(out),
                         "--quiet"]) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        header = next(x for x in lines if x.startswith("kind,axis_index,n_trials")).split(",")
        aggs = [dict(zip(header, x.split(","))) for x in lines
                if x.startswith(("mean,", "std,"))]
        assert [a["kind"] for a in aggs] == ["mean", "std"]
        for agg in aggs:
            for name in ("mse_coarse", "mse_refined", "frechet_gauss"):
                assert math.isfinite(float(agg[name])), (agg["kind"], name)
        assert float(aggs[0]["mse_coarse"]) > 1e305

    def test_huge_cbr_point_clamps_to_k_prime(self, tmp_path):
        cfg = write_cfg(tmp_path, "[experiment]\ntrials = 2\ncbr_points = 1e306\n"
                                  "[codec]\nk_prime = 8\n")
        out = tmp_path / "cbr.csv"
        assert main(["sweep-cbr", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        trials = [dict(zip(header, x.split(","))) for x in lines if x.startswith("trial,")]
        assert [t["k"] for t in trials] == ["8", "8"]

    def test_infinite_snr_is_a_noiseless_channel(self, tmp_path):
        body = "[experiment]\ntrials = 2\nsnr_points = inf\n[sidechannel]\nenabled = false\n"
        out = tmp_path / "inf.csv"
        assert main(["sweep-snr", "--config", write_cfg(tmp_path, body), "--out", str(out),
                     "--quiet"]) == 0
        assert ",inf," in out.read_text() and "Error" not in out.read_text()

    @pytest.mark.parametrize("body", [
        "trials = 3\n",
        "[experiment]\ntrials = 3\ntrials = 4\n",
    ], ids=["no_section_header", "duplicate_key"])
    def test_malformed_config_file_is_configuration_error(self, tmp_path, capsys, body):
        assert main(["simulate", "--config", write_cfg(tmp_path, body)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None,
        b"not a checkpoint\n",
        b"",
        "npz_without_meta",
        "truncated_npz",
    ], ids=["missing", "not_npz", "empty", "no_meta", "truncated"])
    def test_unreadable_checkpoint_is_configuration_error(self, tmp_path, capsys, content):
        path = tmp_path / "model.npz"
        if content == "npz_without_meta":
            np.savez(path, w1=np.zeros(3))
        elif content == "truncated_npz":
            np.savez(path, __meta__=np.arange(7), w1=np.zeros(3))
            path.write_bytes(path.read_bytes()[:40])
        elif content is not None:
            path.write_bytes(content)
        body = SMALL_SWEEP.replace("predictor = analytic",
                                   f"predictor = mlp\nmlp_checkpoint = {path}")
        assert main(["simulate", "--config", write_cfg(tmp_path, body)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "internal error" not in err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_train_denoiser_rejects_steps_below_one(self, tmp_path, capsys, steps):
        out = tmp_path / "model.npz"
        assert main(["train-denoiser", "--config", str(CONFIGS / "budget.cfg"),
                     "--steps", steps, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "--steps" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error,code,prefix", [
        (TrainingError("loss diverged at step 48"), 2, "runtime error: TrainingError: "),
        (ConfigurationError("dropout_rate must be in [0, 1)"), 1, "configuration error: "),
    ], ids=["training_error", "configuration_error"])
    def test_train_denoiser_maps_errors_to_exit_codes(self, tmp_path, monkeypatch,
                                                      capsys, error, code, prefix):
        def failing_train(*args, **kwargs):
            raise error

        monkeypatch.setattr("gencomm.cli.train", failing_train)
        out = tmp_path / "d.npz"
        assert main(["train-denoiser", "--config", str(CONFIGS / "budget.cfg"),
                     "--steps", "5", "--out", str(out)]) == code
        assert capsys.readouterr().err == f"{prefix}{error}\n"
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_verify_report_file(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["verify", "--seed", "7", "--quiet", "--out", str(out)]) == 0
        text = out.read_text()
        assert "passed, 0 failed" in text and "PASS" in text

    def test_verify_failure_exits_three(self, monkeypatch, capsys):
        import gencomm.verify as verify_mod

        def broken(rng):
            raise AssertionError("deliberately broken invariant")

        monkeypatch.setattr(verify_mod, "ALL_CHECKS",
                            verify_mod.ALL_CHECKS + [("synthetic", broken)])
        assert main(["verify", "--seed", "7"]) == 3
        assert "FAIL synthetic" in capsys.readouterr().err


class TestSimulateAndSweep:
    def test_simulate_writes_results(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_SWEEP)
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "mse_refined" in text
        assert "# spec_version = 1" in text

    def test_sweep_snr_byte_identical_runs_and_threads(self, tmp_path):
        cfg = str(CONFIGS / "snr_sweep.cfg")
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{name}.csv"
            rc = main(["sweep-snr", "--config", cfg, "--trials", "4",
                       "--out", str(out), "--threads", threads, "--quiet"])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_mlp_sweep_matches_golden(self, tmp_path):
        # The MLP predictor's path, pinned byte for byte like the analytic
        # golden of acceptance criterion 11.
        out = tmp_path / "budget.csv"
        assert main(["sweep-snr", "--config", str(CONFIGS / "budget.cfg"), "--seed", "7",
                     "--trials", "8", "--out", str(out), "--quiet"]) == 0
        golden = Path(__file__).resolve().parent / "data" / "golden_budget_sweep.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_sweep_cbr_runs(self, tmp_path):
        cfg = str(CONFIGS / "cbr_sweep.cfg")
        out = tmp_path / "cbr.csv"
        assert main(["sweep-cbr", "--config", cfg, "--trials", "2",
                     "--out", str(out), "--quiet"]) == 0
        assert "warm_start" in out.read_text()

    def test_json_format(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SWEEP)
        out = tmp_path / "r.json"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["trials"]) == 4

    def test_quiet_silences_stderr(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_SWEEP)
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        machine_first = out.read_bytes()
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err != ""
        assert out.read_bytes() == machine_first  # --quiet never changes output


class TestOtherCommands:
    def test_sidechannel_test_table(self, tmp_path):
        cfg = write_cfg(tmp_path, "[experiment]\ntrials = 2\n"
                                  "snr_points = 6\n[sidechannel]\nldpc_n = 256\n"
                                  "ldpc_seed = 11\n")
        out = tmp_path / "ber.csv"
        assert main(["sidechannel-test", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,info_bits,frames,ber,fer"
        assert len(lines) == 2

    def test_train_denoiser_writes_checkpoint_and_curve(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SWEEP)
        out = tmp_path / "model.npz"
        assert main(["train-denoiser", "--config", cfg, "--out", str(out),
                     "--steps", "30", "--quiet"]) == 0
        model = load_checkpoint(out)
        assert model.latent_dim == 8
        curve = (tmp_path / "model.npz.loss.csv").read_text().splitlines()
        assert curve[0] == "step,total,diffusion,latent_mse"
        assert len(curve) == 31

    def test_train_denoiser_rerun_replaces_curve(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SWEEP)
        out = tmp_path / "model.npz"
        for steps in ("30", "12"):
            assert main(["train-denoiser", "--config", cfg, "--out", str(out),
                         "--steps", steps, "--quiet"]) == 0
        curve = (tmp_path / "model.npz.loss.csv").read_text().splitlines()
        assert curve[0] == "step,total,diffusion,latent_mse"
        assert len(curve) == 13 and curve[1].startswith("0,")

    def test_train_denoiser_requires_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_SWEEP)
        assert main(["train-denoiser", "--config", cfg]) == 1

    def test_sample_emits_vectors(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SWEEP)
        out = tmp_path / "sample.json"
        assert main(["sample", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        rec = json.loads(out.read_text())
        assert len(rec["z0"]) == 8 and len(rec["z0_hat"]) == 8
        assert rec["warm_start"] == 400

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SWEEP)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["sample", "--config", cfg, "--out", str(a), "--quiet"])
        main(["sample", "--config", cfg, "--seed", "99", "--out", str(b),
              "--quiet"])
        assert json.loads(a.read_text())["z0"] != json.loads(b.read_text())["z0"]
