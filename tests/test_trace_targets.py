"""The benchmark's per-layer tracer patches gencomm names by (module, class,
attribute). A name it lists that no longer resolves makes `benchmarks/run.py
--trace 1` fail, so every row of its table must resolve here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # standard library imports only
    return spans.TARGETS


@pytest.mark.parametrize("layer,module,cls,attr", _targets())
def test_trace_target_resolves(layer, module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))
