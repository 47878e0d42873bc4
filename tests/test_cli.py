import ast
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gencomm
from gencomm import pipeline
from gencomm.cli import main
from gencomm.config import RANGES, SIZE_LIMITS, SNR_DB_MAX, SNR_DB_MIN
from gencomm.denoiser import MlpDenoiser, load_checkpoint, save_checkpoint
from gencomm.errors import ConfigurationError, TrainingError
from gencomm.verify import ALL_CHECKS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DATA = Path(__file__).resolve().parent / "data"
# One PASS line per check, in order, shows that the default sizes run every check.
VERIFY_REPORT = "".join(f"PASS {name}\n" for name, _ in ALL_CHECKS) + "21 passed, 0 failed\n"


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
        assert capsys.readouterr().err == VERIFY_REPORT

    def test_negative_verify_seed_is_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["verify", "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "configuration error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["verify"], ["simulate", "--config", str(CONFIGS / "budget.cfg")], ["sidechannel-test"],
        ["train-denoiser", "--config", str(CONFIGS / "budget.cfg"), "--steps", "1"],
        ["sample", "--config", str(CONFIGS / "budget.cfg")],
    ], ids=lambda argv: argv[0])
    def test_out_must_be_a_file_in_an_existing_directory(self, tmp_path, capsys, argv):
        for out in (tmp_path / "missing" / "out", tmp_path):
            assert main([*argv, "--out", str(out), "--quiet"]) == 1
            assert "configuration error: --out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        "[experiment]\npeak = inf\n",
        "[experiment]\npeak = 1e200\n",
        "[experiment]\npeak = 1e-200\n",
        "[sampler]\nguidance = inf\n",
        "[codec]\ntikhonov_lambda = inf\n",
        "[world]\nprior_var = inf\n",
        "[world]\nprior_var = 1e308\n",
        "[world]\nprior_var = 5e-324\n",
        "[world]\nprior_var = 1e-310\n",
        "[experiment]\nsnr_points = -7000\n",
        "[channel]\nsnr_db = -7000\n",
        "[experiment]\nsnr_points = 1\n[sidechannel]\nsnr_db = -7000\n",
    ], ids=["warm_start", "sidechannel_snr_db", "peak", "master_seed", "bp_iters",
            "snr_points_nan", "snr_points_neg_inf", "channel_snr_nan", "sidechannel_snr_neg_inf",
            "cbr_nan", "cbr_inf", "cbr_negative", "cbr_zero", "codec_seed_negative",
            "ldpc_seed_negative", "peak_nan", "guidance_nan", "tikhonov_lambda_nan",
            "peak_inf", "peak_square_overflows", "peak_square_underflows",
            "guidance_inf", "tikhonov_lambda_inf", "prior_var_inf",
            "prior_var_power_overflows", "prior_var_min_subnormal",
            "prior_var_power_reciprocal_overflows", "snr_points_below_its_limit",
            "channel_snr_below_its_limit", "sidechannel_snr_below_its_limit"])
    def test_bad_config_value_is_configuration_error(self, tmp_path, capsys, body):
        assert main(["simulate", "--config", write_cfg(tmp_path, body)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["sweep-snr"], ["sweep-cbr"], ["sidechannel-test"], ["sample"],
        ["train-denoiser", "--steps", "2"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("body,message", [
        ("[schedule]\nkind = bogus\n", "schedule kind must be one of"),
        ("[schedule]\nsteps = 0\n", "T must be >= 1"),
        ("[schedule]\nbeta_min = 0.5\nbeta_max = 0.1\n", "need 0 < beta_min <= beta_max < 1"),
        ("[sampler]\nsteps = 0\n", "steps must be >= 1"),
        ("[sampler]\nguidance = -1\n", "guidance must be >= 0"),
        ("[sampler]\nwarm_start = 5000\n", "warm_start (5000) exceeds schedule steps (1000)"),
        ("[codec]\ntikhonov_lambda = -1\n", "tikhonov_lambda must be >= 0"),
        ("[world]\nprior_var = 1e307\n", "[world] prior_var must be in [1e-06, 1e+06], got 1e+307"),
        # The singular-step tolerance is a fixed constant now; a config that
        # still sets it is refused rather than silently run at another value.
        ("[sampler]\nsingular_guard = 1e-9\n",
         "unknown key 'singular_guard' in section [sampler]"),
    ], ids=["schedule_kind", "schedule_steps", "beta_min_above_beta_max", "sampler_steps",
            "guidance_negative", "warm_start_above_schedule",
            "tikhonov_lambda_negative", "prior_var_above_its_window", "singular_guard_retired"])
    def test_bad_value_fails_every_command_that_reads_a_config(self, tmp_path, capsys, argv,
                                                               body, message):
        # Only the schedule, sampler, codec or point builders checked these, and
        # sidechannel-test, which calls none of them, exited 0.
        cfg = write_cfg(tmp_path, body)
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    @pytest.mark.parametrize("section,key", sorted(SIZE_LIMITS))
    def test_size_above_its_limit_is_configuration_error(self, tmp_path, capsys,
                                                         section, key):
        # Without a limit, 2^31 here asked numpy for 16-128 GiB.
        limit = SIZE_LIMITS[section, key]
        cfg = write_cfg(tmp_path, f"[{section}]\n{key} = {limit + 1}\n")
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            assert main(["sweep-snr", "--config", cfg, "--out", str(out)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert f"configuration error: [{section}] {key} must be <= {limit}" in err
        assert not out.exists()
        assert peak < 1 << 20  # nothing of the run was allocated

    @pytest.mark.parametrize("argv,body", [
        (["simulate"], "snr_points =\n"),
        (["sample"], "snr_points =\n"),
        (["train-denoiser", "--steps", "1"], "snr_points =\n"),
        (["sweep-cbr"], "snr_points =\n"),
        (["sweep-snr"], "sweep_axis = cbr\ncbr_points =\n"),
        (["sidechannel-test"], "sweep_axis = cbr\ncbr_points =\nsnr_points = 9\n"),
    ], ids=["simulate", "sample", "train-denoiser", "sweep-cbr", "sweep-snr",
            "sidechannel-test"])
    def test_command_sets_its_axis_before_the_file_is_validated(self, tmp_path, capsys,
                                                               argv, body):
        # The file's values were validated before the command's axis was set, so
        # an empty point list the command never reads failed it.
        cfg = write_cfg(tmp_path, SMALL_SWEEP.replace("[codec]", body + "[codec]"))
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert {p.name for p in tmp_path.iterdir()} > {"exp.cfg"}  # wrote its output

    def test_trials_flag_is_applied_before_the_file_is_validated(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SWEEP.replace("trials = 4", "trials = 0"))
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", cfg, "--trials", "5", "--out", str(out),
                     "--quiet"]) == 0
        _, trials, _ = pipeline.read_results(out)
        assert [t["trial_id"] for t in trials] == [0, 1, 2, 3, 4]

    def test_trials_flag_above_its_limit_is_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, SMALL_SWEEP), "--trials",
                     str(SIZE_LIMITS["experiment", "trials"] + 1), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "configuration error: [experiment] trials must be <= 100000, got 100001\n"
        assert not out.exists()

    @pytest.mark.parametrize("guidance,code", [("100", 0), ("100.0001", 1), ("1e300", 1)])
    def test_guidance_limit(self, tmp_path, capsys, guidance, code):
        # Unbounded, 1e300 overflowed a guided MLP refinement into an internal error.
        body = (SMALL_SWEEP.replace("predictor = analytic", "predictor = mlp")
                .replace("prompt =", "prompt = class:3")
                .replace("warm_start = 400", f"warm_start = 400\nguidance = {guidance}"))
        out = tmp_path / "g.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep-snr", "--config", write_cfg(tmp_path, body), "--out",
                         str(out), "--quiet"]) == code
        if code:
            assert "configuration error: [sampler] guidance must be <= 100" in (
                capsys.readouterr().err)
        assert out.exists() == (code == 0)

    def test_huge_cbr_point_clamps_to_k_prime(self, tmp_path):
        cfg = write_cfg(tmp_path, "[experiment]\ntrials = 2\ncbr_points = 1e306\n"
                                  "[codec]\nk_prime = 8\n")
        out = tmp_path / "cbr.csv"
        assert main(["sweep-cbr", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        trials = [dict(zip(header, x.split(","))) for x in lines if x.startswith("trial,")]
        assert [t["k"] for t in trials] == ["8", "8"]

    @pytest.mark.parametrize("command,predictor,kind", [
        ("sweep-snr", "analytic", "awgn"), ("sweep-snr", "mlp", "rayleigh"),
        ("sidechannel-test", "analytic", "awgn"),
    ], ids=["analytic_awgn", "mlp_rayleigh", "sidechannel_test"])
    @pytest.mark.parametrize("snr,magnitude", [
        (SNR_DB_MIN, 1.0), (SNR_DB_MAX, 1.0), (10.0, 1e-6), (10.0, 1e6),
    ], ids=["snr_min", "snr_max", "magnitudes_min", "magnitudes_max"])
    def test_range_edges_run_clean(self, tmp_path, command, predictor, kind, snr, magnitude):
        # Every SNR key at an edge of its range, or peak and prior_var at one of theirs.
        body = (f"[experiment]\ntrials = 2\npredictor = {predictor}\nsnr_points = {snr}\n"
                f"peak = {magnitude}\n[channel]\nkind = {kind}\nsnr_db = {snr}\n"
                f"[world]\nprior_var = {magnitude}\n"
                f"[sidechannel]\nsnr_db = {snr}\nldpc_n = 256\nldpc_seed = 11\n")
        out = tmp_path / "edge.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", write_cfg(tmp_path, body), "--out", str(out),
                         "--quiet"]) == 0
        assert "Error" not in out.read_text()

    @pytest.mark.parametrize("section,key,side", [
        (*key, side) for key in RANGES for side in ("low", "high")])
    def test_one_step_outside_a_range_is_configuration_error(self, tmp_path, capsys,
                                                             section, key, side):
        low, high = RANGES[section, key]
        value = np.nextafter(low, -math.inf) if side == "low" else np.nextafter(high, math.inf)
        cfg = write_cfg(tmp_path, f"[{section}]\n{key} = {float(value)!r}\n")
        out = tmp_path / "out.csv"
        assert main(["sweep-snr", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: [{section}] {key} must be in [{low:g}, {high:g}]" in err
        assert not out.exists()

    def test_infinite_snr_is_a_noiseless_channel(self, tmp_path):
        body = "[experiment]\ntrials = 2\nsnr_points = inf\n[sidechannel]\nenabled = false\n"
        out = tmp_path / "inf.csv"
        assert main(["sweep-snr", "--config", write_cfg(tmp_path, body), "--out", str(out),
                     "--quiet"]) == 0
        assert ",inf," in out.read_text() and "Error" not in out.read_text()

    @pytest.mark.parametrize("argv", [
        ["sidechannel-test", "--format", "json"],
        ["sidechannel-test", "--timings"],
        ["train-denoiser", "--format", "json"],
        ["train-denoiser", "--timings"],
        ["train-denoiser", "--trials", "2"],
        ["sample", "--format", "json"],
        ["sample", "--timings"],
        ["sample", "--trials", "2"],
    ], ids=lambda argv: " ".join(argv))
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, capsys, argv):
        cfg = write_cfg(tmp_path, SMALL_SWEEP)
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 1
        assert "configuration error: unrecognized arguments" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

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

    @pytest.mark.parametrize("fault", ["wrong_shape", "complex", "missing", "nan", "inf",
                                       "beyond_float32"])
    def test_checkpoint_parameter_off_its_meta_is_configuration_error(self, tmp_path, capsys,
                                                                      fault):
        # The meta sizes the model (and its float64 parameters, which predict
        # copies to float32); a parameter that disagrees with it used to load and
        # fail inside the first matmul, or (complex) lose its imaginary part with
        # a warning. A nan weight wrote NaN cells and exited 0, an inf weight
        # failed in the matmul, and one past float32's range fails in the cast.
        path = tmp_path / "model.npz"
        save_checkpoint(MlpDenoiser(latent_dim=8), path)
        with np.load(path) as data:
            arrays = dict(data)
        if fault == "wrong_shape":
            arrays["w2"] = np.zeros((128, 100))
        elif fault == "complex":
            arrays["w2"] = arrays["w2"].astype(np.complex128)
        elif fault == "missing":
            del arrays["w2"]
        else:
            arrays["w2"][3, 4] = {"nan": np.nan, "inf": -np.inf, "beyond_float32": 1e39}[fault]
        np.savez(path, **arrays)
        body = SMALL_SWEEP.replace("predictor = analytic",
                                   f"predictor = mlp\nmlp_checkpoint = {path}")
        assert main(["sweep-snr", "--config", write_cfg(tmp_path, body),
                     "--out", str(tmp_path / "r.csv"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "w2" in err and "internal error" not in err

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

    # The goldens are argparse's output on CPython 3.10 and 3.11 (the CI versions);
    # later versions reword some messages and re-wrap some usage lines.
    @pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)),
                        reason="goldens hold the argparse text of Python 3.10 and 3.11")
    @pytest.mark.parametrize("argv, golden", [
        (["--help"], "help.txt"),
        (["--help", "sweep-snr"], "help.txt"),
        *[([c, "--help"], f"help-{c}.txt") for c in (
            "simulate", "sweep-snr", "sweep-cbr", "verify", "sidechannel-test",
            "train-denoiser", "sample")],
        (["explode"], "error-unknown-command.txt"),
        ([], "error-no-command.txt"),
        *[([c], "error-no-config.txt") for c in (
            "simulate", "sweep-snr", "sweep-cbr", "train-denoiser", "sample")],
        (["sidechannel-test", "--steps", "3"], "error-unknown-flag.txt"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_parser_text_is_pinned(self, monkeypatch, capsys, argv, golden):
        # Help goes to stdout with exit 0, a parse error to stderr with exit 1.
        monkeypatch.setenv("COLUMNS", "80")
        is_help = "--help" in argv
        assert main(argv) == (0 if is_help else 1)
        out, err = capsys.readouterr()
        assert (out, err)[not is_help] == (DATA / "cli" / golden).read_text()
        assert (out, err)[is_help] == ""

    def test_verify_report_file(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["verify", "--seed", "7", "--quiet", "--out", str(out)]) == 0
        assert out.read_text() == VERIFY_REPORT

    def test_verify_failure_exits_three(self, monkeypatch, capsys):
        import gencomm.verify as verify_mod

        def broken(rng):
            raise AssertionError("deliberately broken invariant")

        monkeypatch.setattr(verify_mod, "ALL_CHECKS",
                            verify_mod.ALL_CHECKS + [("synthetic", broken)])
        assert main(["verify", "--seed", "7"]) == 3
        assert "FAIL synthetic" in capsys.readouterr().err


def test_each_sized_check_runs_at_least_its_default_size_in_a_unit_test():
    trees = [ast.parse(p.read_text()) for p in Path(__file__).parent.glob("test_*.py")
             if p.name not in ("test_cli.py", "test_acceptance.py")]
    calls = [c for tree in trees for c in ast.walk(tree)
             if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)]
    # (function, n) of each `f(..., n=<literal>)` call in the unit tests
    sizes = {(c.func.id, kw.value.value) for c in calls for kw in c.keywords
             if kw.arg == "n" and isinstance(kw.value, ast.Constant)}
    for _, check in ALL_CHECKS:
        if (n_param := inspect.signature(check).parameters.get("n")) is not None:
            assert any(f == check.__name__ and n >= n_param.default for f, n in sizes), (
                f"no unit test calls {check.__name__} with a literal n >= {n_param.default}")


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
        golden = DATA / "golden_budget_sweep.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_mlp_sweep_memory_does_not_grow_with_the_warm_start(self, tmp_path):
        # A time-embedding table of every step up to twice the warm start took
        # 82 MB here; the predictor now embeds only the steps it reads.
        body = ("[experiment]\ntrials = 2\npredictor = mlp\nprompt =\n"
                "[schedule]\nsteps = 100000\nbeta_max = 0.001\n"
                "[sampler]\nwarm_start = 80000\n[sidechannel]\nenabled = false\n")
        out = tmp_path / "deep.csv"
        tracemalloc.start()
        try:
            assert main(["sweep-snr", "--config", write_cfg(tmp_path, body),
                         "--out", str(out), "--quiet"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "Error" not in out.read_text()
        assert peak < 16 << 20, peak

    def test_train_denoiser_matches_golden(self, tmp_path):
        # The training path, pinned: the loss curve byte for byte, and the
        # checkpoint by its arrays, since the npz stamps its write time.
        out = tmp_path / "model.npz"
        assert main(["train-denoiser", "--config", str(CONFIGS / "budget.cfg"),
                     "--steps", "50", "--out", str(out), "--quiet"]) == 0
        golden = DATA / "golden_train_curve.csv"
        assert Path(f"{out}.loss.csv").read_bytes() == golden.read_bytes()
        with np.load(out) as data:
            arrays = b"".join(data[name].tobytes() for name in sorted(data.files))
        assert hashlib.sha256(arrays).hexdigest() == (
            "416fbd27dd0b479c9bdeff518dfa86885aa823860470c2fd6369705b0735cc5b")

    def test_cbr_sweep_matches_golden(self, tmp_path):
        # The CBR path, which builds one codec per k, pinned byte for byte.
        out = tmp_path / "cbr.csv"
        assert main(["sweep-cbr", "--config", str(CONFIGS / "cbr_sweep.cfg"),
                     "--out", str(out), "--quiet"]) == 0
        golden = DATA / "golden_cbr_sweep.csv"
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("steps", [1, 5])
    def test_out_of_range_prompt_class_fails_every_mlp_row(self, tmp_path, steps):
        # A one-step run has only the singular step, whose prediction is never
        # used; its predictor call stays, so the class check still fails the row.
        body = ("[experiment]\ntrials = 3\npredictor = mlp\nprompt = class:99\n"
                f"snr_points = 1 7\n[sampler]\nsteps = {steps}\n"
                "[sidechannel]\nenabled = false\n")
        out = tmp_path / "c99.csv"
        assert main(["sweep-snr", "--config", write_cfg(tmp_path, body), "--out", str(out),
                     "--quiet"]) == 0
        note = "ContractError: prompt class 99 outside [0; 9]"
        metrics = ",".join(["nan"] * 5)
        want = [",".join(pipeline._TRIAL_COLUMNS)]
        want += [f"trial,{a},{t},{snr},0.001953125,600,2,0,{metrics},false,{note}"
                 for a, snr in enumerate((1, 7)) for t in range(3)]
        fields = pipeline._AGGREGATE_FIELDS[:-1]  # wall_time is written with --timings only
        want.append(",".join(["kind", "axis_index", "n_trials", "n_failed", *fields]))
        want += [f"{kind},{a},3,3," + ",".join(["nan"] * len(fields))
                 for a in (0, 1) for kind in ("mean", "std")]
        assert [line for line in out.read_text().splitlines()
                if not line.startswith("#")] == want

    @pytest.mark.parametrize("suffix", ["abc", "1e3"])
    def test_malformed_prompt_class_fails_every_mlp_row(self, tmp_path, suffix):
        body = ("[experiment]\ntrials = 2\npredictor = mlp\n"
                f"prompt = class:{suffix}\n[sidechannel]\nenabled = false\n")
        out = tmp_path / "bad.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, body), "--out", str(out),
                     "--quiet"]) == 0
        _, trials, aggregates = pipeline.read_results(out)
        assert [t["error"] for t in trials] == [
            f"ContractError: prompt class '{suffix}' is not an integer"] * 2
        # Every row failed, so the aggregates' integer columns read back as NaN.
        assert [(a["n_failed"], math.isnan(a["k"])) for a in aggregates] == [(2, True)] * 2

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

        def reject(token):  # a bare NaN or Infinity token is not JSON
            raise ValueError(f"non-JSON constant {token}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert len(payload["trials"]) == 4
        # Four trials at d = 8 are too few for frechet_gauss, so every row carries NaN.
        assert [t["frechet_gauss"] for t in payload["trials"]] == ["nan"] * 4
        _, trials, aggregates = pipeline.read_results(out, fmt="json")
        assert all(math.isnan(r["frechet_gauss"]) for r in trials + aggregates)
        assert all(isinstance(r["mse_refined"], float) for r in trials + aggregates)

    def test_output_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # One interpreter per thread count: OpenBLAS reads it once, at load.
        # 130 trials make the MLP's GEMMs run over more than one 128-row block.
        # 4 threads as on a 4-vCPU CI runner: sgemm (predict) splits its work
        # among threads unlike dgemm (training).
        script = textwrap.dedent("""\
            import sys
            from gencomm.cli import main
            cfg, out = sys.argv[1:]
            sys.exit(main(["sweep-snr", "--config", cfg, "--trials", "130",
                           "--out", f"{out}/sweep.csv", "--quiet"])
                     or main(["train-denoiser", "--config", cfg, "--steps", "50",
                              "--out", f"{out}/model.npz", "--quiet"]))
        """)
        src = str(Path(gencomm.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / threads
            out.mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-c", script, str(CONFIGS / "budget.cfg"),
                            str(out)], env=env, check=True)
            outputs.append([(out / name).read_bytes()
                            for name in ("sweep.csv", "model.npz", "model.npz.loss.csv")])
        assert outputs[0] == outputs[1] == outputs[2]

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

    def test_sidechannel_test_matches_link_golden(self, tmp_path):
        # The values of benchmarks/link_ber.cfg: BP on the n=1024 code, pinned
        # end to end byte for byte (0 dB runs every frame to the iteration cap).
        cfg = write_cfg(tmp_path, "[experiment]\nspec_version = 1\ntrials = 25\n"
                                  "snr_points = 0 1 2 3\n[sidechannel]\nldpc_n = 1024\n"
                                  "ldpc_seed = 7070\nbp_iters = 50\n")
        out = tmp_path / "link.csv"
        assert main(["sidechannel-test", "--config", cfg, "--seed", "7",
                     "--out", str(out), "--quiet"]) == 0
        golden = DATA / "golden_link_ber.csv"
        assert out.read_bytes() == golden.read_bytes()

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

    def test_train_then_sweep_with_one_config(self, tmp_path):
        # train-denoiser must not read the checkpoint it is about to write.
        out = tmp_path / "model.npz"
        body = SMALL_SWEEP.replace("predictor = analytic",
                                   f"predictor = mlp\nmlp_checkpoint = {out}")
        cfg = write_cfg(tmp_path, body)
        assert main(["train-denoiser", "--config", cfg, "--out", str(out),
                     "--steps", "30", "--quiet"]) == 0
        results = tmp_path / "r.csv"
        assert main(["sweep-snr", "--config", cfg, "--out", str(results), "--quiet"]) == 0
        meta, trials, _ = pipeline.read_results(results)
        assert len(trials) == 4 * 5 and not any(t["error"] for t in trials)
        assert meta["mlp_checkpoint"] == str(out)

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
