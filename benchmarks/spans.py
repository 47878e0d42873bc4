"""In-memory spans and counters around calls into gencomm's public functions.

`installed(tracer)` replaces each traced name where it is looked up at call
time. `pipeline` and `sidechannel` bind names with `from .x import y`, so a
wrapper on the defining module alone would never run: `send_prompt` is
patched as `gencomm.pipeline.send_prompt`, `ldpc_decode` as
`gencomm.sidechannel.ldpc_decode`, and class methods on the class itself.

A wrapper calls the original with the same arguments and returns its result
unchanged; it only reads the clock and, for a few functions, fields of the
arguments or of the result. Helpers called ~1e5 times per run
(`schedule.alpha_bar`, `metrics.mse`, the BPSK mappers) are deliberately not
wrapped, to keep the tracing overhead small.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

# (layer name, module, class or None, attribute); one row per binding site.
TARGETS = (
    ("arithmetic.ac_encode", "gencomm.sidechannel", None, "ac_encode"),
    ("arithmetic.ac_decode", "gencomm.sidechannel", None, "ac_decode"),
    ("ldpc.ldpc_encode", "gencomm.sidechannel", None, "ldpc_encode"),
    ("ldpc.ldpc_decode", "gencomm.sidechannel", None, "ldpc_decode"),
    ("ldpc.ldpc_make", "gencomm.sidechannel", None, "ldpc_make"),
    ("sidechannel.send_prompt", "gencomm.pipeline", None, "send_prompt"),
    ("sidechannel.frame_prompt", "gencomm.sidechannel", None, "frame_prompt"),
    ("sidechannel.deframe_prompt", "gencomm.sidechannel", None, "deframe_prompt"),
    ("sidechannel.transmit_bits", "gencomm.sidechannel", None, "transmit_bits"),
    ("sidechannel.measure_link", "gencomm.sidechannel", None, "measure_link"),
    ("sampler.sample", "gencomm.pipeline", None, "sample"),
    ("denoiser.analytic.predict", "gencomm.denoiser", "AnalyticPredictor", "predict"),
    ("denoiser.mlp.predict", "gencomm.denoiser", "MlpDenoiser", "predict"),
    ("denoiser.mlp.forward_batch", "gencomm.denoiser", "MlpDenoiser", "forward_batch"),
    ("denoiser.mlp.backward_batch", "gencomm.denoiser", "MlpDenoiser", "backward_batch"),
    ("denoiser.loss_and_grads", "gencomm.denoiser", None, "loss_and_grads"),
    ("denoiser.prepare_diffusion_batch", "gencomm.denoiser", None,
     "prepare_diffusion_batch"),
    ("denoiser.train", "gencomm.cli", None, "train"),
    ("jscc.encode", "gencomm.jscc", "LinearCodec", "encode"),
    ("jscc.decode", "gencomm.jscc", "LinearCodec", "decode"),
    ("channel.transmit", "gencomm.pipeline", None, "transmit"),
    ("channel.mmse_equalize", "gencomm.pipeline", None, "mmse_equalize"),
    ("pipeline.build_context", "gencomm.pipeline", None, "build_context"),
    ("pipeline.build_context", "gencomm.cli", None, "build_context"),
    ("pipeline.run_trial", "gencomm.pipeline", None, "run_trial"),
    ("pipeline.sweep", "gencomm.cli", None, "sweep"),
    ("pipeline.write_results", "gencomm.cli", None, "write_results"),
    ("pipeline.make_training_set", "gencomm.cli", None, "make_training_set"),
    ("config.load_config", "gencomm.cli", None, "load_config"),
)

# Opened by the benchmark around each `gencomm.cli.main` call; the root span.
CLI_SPAN = "cli.main"
LAYERS = tuple(dict.fromkeys(name for name, *_ in TARGETS)) + (CLI_SPAN,)


class Tracer:
    """Spans `[name, parent index or -1, start, end]` plus named counters,
    all kept in memory. Single-threaded: spans nest through one stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.cold_predict_s: list[float] = []
        self._stack: list[int] = []
        self._seen_steps: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def duration(self, idx: int) -> float:
        _, _, start, end = self.spans[idx]
        return end - start

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)


# Counters read from arguments or results: hook(tracer, span index, args, kwargs, result).

def _count_decode(tracer, idx, args, kwargs, result):
    tracer.counters["ldpc.bp_iterations"] += result.iterations
    tracer.counters["ldpc.converged"] += bool(result.converged)


def _count_prompt(tracer, idx, args, kwargs, result):
    tracer.counters["sidechannel.ok"] += bool(result.ok)


def _count_rows(tracer, idx, args, kwargs, result):
    z_t = args[1] if len(args) > 1 else kwargs["z_t"]
    tracer.counters["denoiser.mlp.rows"] += len(z_t)


def _count_steps(tracer, idx, args, kwargs, result):
    tracer.counters["denoiser.train.steps"] += len(result)


def _note_cold_predict(tracer, idx, args, kwargs, result):
    """The first call per predictor and step holds the lazy coefficient solve."""
    predictor = args[0]
    t = args[4] if len(args) > 4 else kwargs["t"]
    seen = tracer._seen_steps.setdefault(predictor, set())
    if t not in seen:
        seen.add(t)
        tracer.cold_predict_s.append(tracer.duration(idx))


HOOKS = {
    "ldpc.ldpc_decode": _count_decode,
    "sidechannel.send_prompt": _count_prompt,
    "denoiser.mlp.forward_batch": _count_rows,
    "denoiser.train": _count_steps,
    "denoiser.analytic.predict": _note_cold_predict,
}


def wrap(tracer: Tracer, name: str, fn, hook=None):
    """`fn` inside a span named `name`; returns exactly what `fn` returns."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, idx, args, kwargs, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Patch every target for the duration of the block, then restore it."""
    saved = []
    try:
        for name, module, cls, attr in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(tracer, name, original, HOOKS.get(name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer metrics from one tracer; a ratio with a zero base reads 0."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    trial_s = []
    for (name, _, start, end), own in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        self_s[name] += own
        inclusive[name] += end - start
        if name == "pipeline.run_trial":
            trial_s.append(end - start)
    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    c = tracer.counters
    out["ldpc.bp_iterations"] = int(c["ldpc.bp_iterations"])
    out["ldpc.converged_ratio"] = _ratio(c["ldpc.converged"], calls["ldpc.ldpc_decode"])
    out["ldpc.decode_us_per_iteration"] = _ratio(1e6 * inclusive["ldpc.ldpc_decode"],
                                                 c["ldpc.bp_iterations"])
    out["sidechannel.ok_ratio"] = _ratio(c["sidechannel.ok"],
                                         calls["sidechannel.send_prompt"])
    out["sampler.predict_calls_per_sample"] = _ratio(
        calls["denoiser.analytic.predict"] + calls["denoiser.mlp.predict"],
        calls["sampler.sample"])
    cold = tracer.cold_predict_s
    out["denoiser.analytic.cold_predict.count"] = len(cold)
    out["denoiser.analytic.cold_predict_s"] = statistics.median(cold) if cold else 0.0
    out["denoiser.analytic.cold_predict_s.max"] = max(cold, default=0.0)
    out["denoiser.mlp.rows_per_call"] = _ratio(c["denoiser.mlp.rows"],
                                               calls["denoiser.mlp.forward_batch"])
    out["denoiser.train.step_us"] = _ratio(1e6 * inclusive["denoiser.train"],
                                           c["denoiser.train.steps"])
    out["pipeline.run_trial.p50_us"] = 1e6 * _percentile(trial_s, 50)
    out["pipeline.run_trial.p99_us"] = 1e6 * _percentile(trial_s, 99)
    return out


def _percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]
