"""No config reaches an internal error: a fuzz guard driven by `config._SCHEMA`.

Each example perturbs one or two keys of a small valid config with an edge
value and runs a command in process with warnings as errors. Every command
must exit 0, 1 or 2 and never report an internal error. A sweep that exits 0
must write the same file when each trial runs as a batch of its own.
"""

import contextlib
import io
import warnings
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gencomm import pipeline
from gencomm.cli import main
from gencomm.config import _SCHEMA

EDGE_VALUES = ("0", "1", "-1", "2", "0.5", "3", "16", "600", "5e-324", "1e-300", "1e300",
               "1e306", "inf", "-inf", "nan", str(2**31), "-50", "60", "1e-6", "1e6")
PREDICTORS = ("analytic", "mlp")
COMMANDS = (("simulate",), ("sweep-snr",), ("sweep-cbr",), ("sidechannel-test",), ("sample",),
            ("train-denoiser", "--steps", "2"))
SWEEPS = {"simulate", "sweep-snr", "sweep-cbr"}
# Small enough that an example runs in milliseconds at the shipped edge values.
BASE = {
    ("experiment", "trials"): "3",
    ("experiment", "snr_points"): "4",
    ("experiment", "cbr_points"): "0.03",
    ("codec", "k"): "2",
    ("codec", "k_prime"): "4",
    ("codec", "height"): "8",
    ("codec", "width"): "8",
    ("sampler", "steps"): "2",
    ("sidechannel", "ldpc_n"): "24",
    ("sidechannel", "bp_iters"): "5",
}

perturbation = st.tuples(st.sampled_from(sorted(_SCHEMA)), st.sampled_from(EDGE_VALUES))


def render(values: dict) -> str:
    sections: dict = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([*argv, "--quiet"])
    return code, err.getvalue()


# The configs that CHANGES.md records as mended. Its malformed files are not key
# perturbations; test_cli.py runs those through `simulate`.
@example(command=("simulate",), predictor="mlp",
         changes=[(("experiment", "mlp_checkpoint"), "/nonexistent.npz")])
@example(command=("simulate",), predictor="analytic",
         changes=[(("sidechannel", "bp_iters"), "-1")])
@example(command=("sweep-snr",), predictor="analytic",
         changes=[(("world", "prior_var"), "inf"), (("sidechannel", "enabled"), "false")])
@example(command=("sweep-snr",), predictor="analytic", changes=[(("experiment", "peak"), "inf")])
@example(command=("sweep-snr",), predictor="mlp", changes=[(("sampler", "guidance"), "inf")])
@example(command=("sweep-snr",), predictor="analytic",
         changes=[(("codec", "tikhonov_lambda"), "inf")])
@example(command=("sweep-snr",), predictor="analytic",
         changes=[(("world", "prior_var"), "1e300"), (("sidechannel", "enabled"), "false")])
@example(command=("sweep-snr",), predictor="analytic",
         changes=[(("world", "prior_var"), "1e306"), (("experiment", "trials"), "300"),
                  (("sidechannel", "enabled"), "false")])
@example(command=("sweep-snr",), predictor="analytic",
         changes=[(("codec", "k_prime"), "8"), (("world", "prior_var"), "1e307"),
                  (("experiment", "trials"), "4"), (("sidechannel", "enabled"), "false")])
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(COMMANDS), predictor=st.sampled_from(PREDICTORS),
       changes=st.lists(perturbation, min_size=1, max_size=2))
def test_no_config_reaches_internal_error(tmp_path, command, predictor, changes):
    values = {**BASE, ("experiment", "predictor"): predictor, **dict(changes)}
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(render(values))
    out = tmp_path / "out"
    argv = [*command, "--config", str(cfg), "--out", str(out)]
    code, err = run(argv)
    assert code in (0, 1, 2), (code, err)
    assert "internal error" not in err, err
    if code == 0 and command[0] in SWEEPS:
        rows = out.read_bytes()
        with mock.patch.object(pipeline, "TRIALS_PER_BATCH", 1):
            assert run(argv) == (0, "")
        assert out.read_bytes() == rows
