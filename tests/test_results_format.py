"""The result writer and the per-point aggregates against reference
implementations that format every cell with `_fmt` and take each statistic
over a Python list of the column's values. The two must agree byte for byte
on any rows, including NaN, infinities, -0.0, subnormals and error notes."""

import itertools
import json
import math
import struct
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomm.pipeline import (_AGGREGATE_FIELDS, _TRIAL_COLUMNS, RunResult, _aggregate,
                              write_results)


def reference_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def reference_row_dict(r: RunResult, include_timing: bool) -> dict:
    rec = {"kind": "trial"}
    for f in fields(RunResult):
        rec[f.name] = getattr(r, f.name)
    if not include_timing:
        rec.pop("wall_time")
    return rec


def reference_json_cell(value):
    """Strict JSON has no NaN or Infinity: those floats are written as their CSV cells."""
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return reference_fmt(value)
    return value


def reference_write(rows, aggregates, metadata, path, fmt="csv", include_timing=False):
    agg_fields = [f for f in _AGGREGATE_FIELDS if include_timing or f != "wall_time"]
    if fmt == "json":
        payload = {
            "metadata": {k: reference_fmt(v) for k, v in metadata.items()},
            "trials": [{k: reference_json_cell(v)
                        for k, v in reference_row_dict(r, include_timing).items()}
                       for r in rows],
            "aggregates": [{k: reference_json_cell(v) for k, v in rec.items()
                            if include_timing or k != "wall_time"}
                           for rec in aggregates],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, allow_nan=False)
            fh.write("\n")
        return
    columns = _TRIAL_COLUMNS + (["wall_time"] if include_timing else [])
    agg_columns = ["kind", "axis_index", "n_trials", "n_failed", *agg_fields]
    lines = [f"# {key} = {reference_fmt(value)}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    for r in rows:
        rec = reference_row_dict(r, include_timing)
        lines.append(",".join(reference_fmt(rec[c]) for c in columns))
    lines.append(",".join(agg_columns))
    for rec in aggregates:
        lines.append(",".join(reference_fmt(rec[c]) for c in agg_columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_aggregate(rows, axis_index):
    ok = [r for r in rows if not r.error]
    out = []
    for kind, fn in (("mean", np.mean), ("std", np.std)):
        rec = {"kind": kind, "axis_index": axis_index,
               "n_trials": len(rows), "n_failed": len(rows) - len(ok)}
        for name in _AGGREGATE_FIELDS:
            values = [float(getattr(r, name)) for r in ok]
            with np.errstate(invalid="ignore", over="ignore"):
                rec[name] = float(fn(values)) if values else math.nan
            if math.isinf(rec[name]) and all(map(math.isfinite, values)):
                scale = max(map(abs, values))
                rec[name] = float(scale * fn([v / scale for v in values]))
        out.append(rec)
    return out


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           1e-310, 1.7976931348623157e308, 0.1, 1 / 3]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.integers(-10**6, 10**6))
# Error notes as `_failed_trial` writes them: one line, no commas.
notes = st.one_of(st.just(""), st.text(st.characters(blacklist_characters=",\r\n",
                                                     blacklist_categories=("Cs", "Zl", "Zp")),
                                       max_size=12))


@st.composite
def run_results(draw):
    ints = st.integers(0, 2**31)
    return RunResult(
        axis_index=draw(ints), trial_id=draw(ints), snr_db=draw(floats), cbr=draw(floats),
        warm_start=draw(ints), k=draw(ints), k_o=draw(ints), mse_coarse=draw(floats),
        mse_refined=draw(floats), psnr_coarse=draw(floats), psnr_refined=draw(floats),
        frechet_gauss=draw(floats), prompt_ok=draw(st.booleans()), wall_time=draw(floats),
        error=draw(notes))


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def table_aggregate(rows, axis_index):
    """`_aggregate` over the table of the rows' error-free values, one row each."""
    table = np.array([[getattr(r, name) for name in _AGGREGATE_FIELDS]
                      for r in rows if not r.error], np.float64)
    return _aggregate(table.reshape(-1, len(_AGGREGATE_FIELDS)), len(rows), axis_index)


def _aggregate_recording(fn, rows):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(rows, 3)
    return [{k: _bits(v) for k, v in rec.items()} for rec in out], \
        [(w.category, str(w.message)) for w in caught]


@settings(max_examples=150, deadline=None)
@given(st.lists(run_results(), max_size=12))
def test_aggregate_matches_list_reference(rows):
    assert _aggregate_recording(table_aggregate, rows) == \
        _aggregate_recording(reference_aggregate, rows)


@settings(max_examples=150, deadline=None)
@given(st.lists(run_results(), max_size=12), st.booleans())
def test_writer_matches_per_cell_reference(tmp_path_factory, rows, include_timing):
    tmp = tmp_path_factory.mktemp("writer")
    aggregates = reference_aggregate(rows, 0)
    metadata = {"spec_version": 1, "peak": 1.0, "prompt": "class:3", "enabled": True}
    for fmt in ("csv", "json"):
        got, want = tmp / f"got.{fmt}", tmp / f"want.{fmt}"
        write_results(rows, aggregates, metadata, got, fmt=fmt, include_timing=include_timing)
        reference_write(rows, aggregates, metadata, want, fmt=fmt,
                        include_timing=include_timing)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("include_timing", [False, True])
def test_writer_point_cells_match_by_identity(tmp_path, include_timing):
    # Rows of a point share their point's cell objects, and the writer formats
    # those cells once per run of rows. Here neighbouring runs hold cells equal
    # in value but not the same objects (0.0 and -0.0, or two 0.25s), with some
    # error rows (NaN frechet_gauss) between them; each must be written from its own.
    def row(snr, cbr, fg, error=""):
        return RunResult(axis_index=1, trial_id=len(rows), snr_db=snr, cbr=cbr, warm_start=500,
                         k=2, k_o=0, mse_coarse=0.1, mse_refined=0.05, psnr_coarse=10.0,
                         psnr_refined=13.0, frechet_gauss=fg, prompt_ok=True,
                         wall_time=0.5, error=error)

    signed = (0.0, -0.0)
    rows = []
    points = itertools.product(signed, (float("0.25"), float("0.25"), *signed), signed)
    for i, (snr, cbr, fg) in enumerate(points):
        rows.append(row(snr, cbr, fg))
        rows.append(row(snr, cbr, fg))
        if i % 3 == 2:
            rows.append(row(snr, cbr, math.nan, "ContractError: x"))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_results(rows, [], {}, got, include_timing=include_timing)
    reference_write(rows, [], {}, want, include_timing=include_timing)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.filterwarnings("error")
def test_infinite_psnr_std_is_nan_without_warning():
    rows = [RunResult(axis_index=0, trial_id=t, snr_db=10.0, cbr=0.01, warm_start=500, k=2,
                      k_o=0, mse_coarse=0.1, mse_refined=0.0, psnr_coarse=10.0,
                      psnr_refined=math.inf, frechet_gauss=math.nan, prompt_ok=True,
                      wall_time=0.0) for t in range(3)]
    mean, std = table_aggregate(rows, 0)
    assert mean["psnr_refined"] == math.inf
    assert math.isnan(std["psnr_refined"])
    assert std["mse_refined"] == 0.0
