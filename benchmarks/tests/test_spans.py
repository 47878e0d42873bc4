"""Tests of the benchmark's own tracing and bookkeeping.

    python3 -m pytest benchmarks/tests -q
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import gencomm.cli
import gencomm.pipeline
import gencomm.sidechannel
import spans
from gencomm.denoiser import AnalyticPredictor
from gencomm.ldpc import ldpc_decode
from gencomm.sidechannel import default_code, transmit_bits
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_union_of_children():
    spans_ = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 0, 3.0, 6.0],    # overlaps a: [1, 6] is covered once
        ["c", 0, 9.0, 12.0],   # runs past the root: only [9, 10] counts
        ["a1", 1, 2.0, 3.0],
    ]
    assert spans.self_times(spans_) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_tracer_nests_spans_through_its_stack():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(name, parent) for name, parent, _, _ in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    own = spans.self_times(tracer.spans)
    outer = tracer.duration(0)
    assert own[0] == pytest.approx(outer - tracer.duration(1) - tracer.duration(2))


def test_wrapper_returns_the_same_object_and_passes_arguments():
    sentinel = object()
    calls = []

    def fn(*args, **kwargs):
        calls.append((args, kwargs))
        return sentinel

    tracer = spans.Tracer()
    assert spans.wrap(tracer, "f", fn)(1, k=2) is sentinel
    assert calls == [((1,), {"k": 2})]
    assert [s[0] for s in tracer.spans] == ["f"]


def test_wrapper_closes_its_span_when_the_call_raises():
    def boom():
        raise ValueError("x")

    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        spans.wrap(tracer, "boom", boom)()
    assert tracer.spans[0][3] >= tracer.spans[0][2] > 0.0
    assert tracer._stack == []


def test_installed_patches_lookup_sites_and_restores_them():
    before = (gencomm.pipeline.send_prompt, gencomm.sidechannel.ldpc_decode,
              AnalyticPredictor.predict, gencomm.cli.build_context)
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            assert gencomm.pipeline.send_prompt is not before[0]
            assert gencomm.sidechannel.ldpc_decode is not before[1]
            assert AnalyticPredictor.predict is not before[2]
            raise RuntimeError("leave the block early")
    after = (gencomm.pipeline.send_prompt, gencomm.sidechannel.ldpc_decode,
             AnalyticPredictor.predict, gencomm.cli.build_context)
    assert all(a is b for a, b in zip(before, after))


def test_traced_decode_returns_identical_values_and_counts():
    code = default_code(256, 11)
    llrs = transmit_bits(np.zeros(code.n, dtype=np.uint8), 1.0, np.random.default_rng(3))
    plain = ldpc_decode(code, llrs, 50)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = gencomm.sidechannel.ldpc_decode(code, llrs, 50)
    assert np.array_equal(plain.bits, traced.bits)
    assert (plain.converged, plain.iterations) == (traced.converged, traced.iterations)
    metrics = spans.per_layer_metrics(tracer)
    assert metrics["ldpc.ldpc_decode.calls"] == 1
    assert metrics["ldpc.bp_iterations"] == plain.iterations
    assert metrics["ldpc.converged_ratio"] == float(plain.converged)


@pytest.mark.parametrize("command", [
    ["sweep-snr", "--config", "configs/snr_sweep.cfg", "--trials", "3"],
    ["sweep-snr", "--config", "configs/budget.cfg", "--trials", "3"],
])
def test_traced_cli_output_is_byte_identical(tmp_path, command):
    blobs = []
    tracer = spans.Tracer()
    for name, traced in (("plain", False), ("traced", True)):
        out = tmp_path / f"{name}.csv"
        argv = [*command, "--seed", "5", "--out", str(out), "--quiet"]
        if traced:
            with spans.installed(tracer):
                assert gencomm.cli.main(argv) == 0
        else:
            assert gencomm.cli.main(argv) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    metrics = spans.per_layer_metrics(tracer)
    assert metrics["pipeline.run_trial.calls"] == 15
    assert metrics["sampler.sample.calls"] == 15


def test_cold_predict_is_first_call_per_predictor_and_step():
    tracer = spans.Tracer()
    for _ in range(2):
        predictor = object.__new__(AnalyticPredictor)
        for t in (10, 20, 10):
            idx = tracer.open("denoiser.analytic.predict")
            tracer.close(idx)
            spans._note_cold_predict(tracer, idx, (predictor, None, None, None, t), {}, None)
    assert len(tracer.cold_predict_s) == 4


def test_metric_names_are_valid_unique_and_produced():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]]
    names += [w["name"] for w in declared["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    produced = set(spans.per_layer_metrics(spans.Tracer())) | {"trace.overhead_ratio"}
    assert produced == {m["name"] for m in declared["per_layer"]}
    assert set(WORKLOADS) == {w["name"] for w in declared["workloads"]}


def test_nonzero_exit_fails_every_operation():
    wl = WORKLOADS["coded-snr"]
    batch = wl.collect(Path("unused"), rc=2)
    assert (batch.ops, batch.failed) == (wl.ops, wl.ops)
    assert batch.problems
