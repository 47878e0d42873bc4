"""gencomm benchmark: one workload, checked, timed, and optionally traced.

    python3 benchmarks/run.py --workload coded-snr --seed 1 --seconds 10 --trace 0

Run from anywhere; the repository root is this file's parent directory.
The load is a closed loop with one client: each batch is one in-process
`gencomm.cli.main` call with `--threads 1` and a batch seed derived from
`--seed`; the next batch starts when the previous one returns. numpy and
BLAS keep the threading a user gets by default.

Order of a run:
  1. correctness, untimed: on `coded-snr` the golden sweep must match byte
     for byte; on every workload one batch runs twice with identical output;
  2. `--trace 0`: set-up time in fresh processes, then batches for
     `--seconds` (and at least the workload's guard batches); every batch's
     output is checked. A fixed reference kernel (`reference.py`) is timed
     between set-up probes and between batches, and `setup_s` and
     `ops_per_s` are scaled by it to the host speed at which it takes
     `reference.NOMINAL_S`, so that neighbours' load on a shared host moves
     them less;
  3. `--trace 1`: batches in pairs, one plain and one traced, for
     `--seconds`; the two outputs of a pair must be identical, the first
     `TRACE_BATCHES` traced batches give the per-layer metrics, and the
     ratio of the pair times gives `trace.overhead_ratio`.

Stdout carries a readable report, then as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics` (the `end_to_end` names
of BENCHMARK.json with `--trace 0`, the `per_layer` ones with `--trace 1`).
Exit code: 0 when every check passed, 1 when one failed, 2 when the
sources are missing (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
from reference import NOMINAL_S, ReferenceKernel

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("BENCHMARK.json", "src/gencomm/__init__.py", "src/gencomm/cli.py",
            "configs/snr_sweep.cfg", "configs/budget.cfg",
            "tests/data/golden_snr_sweep.csv")
SETUP_REPS = 15
TRACE_BATCHES = 3
# `coded-snr` at the golden's own settings must reproduce it byte for byte.
GOLDEN_ARGV = ("sweep-snr", "--config", "configs/snr_sweep.cfg", "--seed", "7",
               "--threads", "1", "--quiet")
GOLDEN_PATH = "tests/data/golden_snr_sweep.csv"
# Measured in a fresh interpreter: from before `import gencomm` until the
# first `build_context` for the workload's config returns.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import gencomm
from gencomm.config import load_config
from gencomm.pipeline import build_context
build_context(load_config({config!r}))
print(repr(time.perf_counter() - t0))
"""


def batch_seed(seed: int, index: int) -> int:
    """The `--seed` given to batch `index` of a run seeded with `seed`."""
    return int(np.random.SeedSequence([seed % 2**32, index]).generate_state(1)[0])


def run_batch(cli, wl, seed: int, work: Path, tracer=None):
    """One CLI call in a fresh directory; returns (seconds, checked Batch)."""
    out_dir = Path(tempfile.mkdtemp(dir=work))
    try:
        argv = wl.argv(seed, out_dir)
        if tracer is None:
            start = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - start
        else:
            with spans.installed(tracer):
                start = time.perf_counter()
                with tracer.span(spans.CLI_SPAN):
                    rc = cli.main(argv)
                elapsed = time.perf_counter() - start
        return elapsed, wl.collect(out_dir, rc)
    finally:
        shutil.rmtree(out_dir)


def check_correctness(cli, wl, seed: int, work: Path) -> list[str]:
    problems = []
    if wl.name == "coded-snr":
        out = work / "golden.csv"
        rc = cli.main([*GOLDEN_ARGV, "--out", str(out)])
        if rc != 0 or out.read_bytes() != (ROOT / GOLDEN_PATH).read_bytes():
            problems.append(f"coded-snr at seed 7 does not reproduce {GOLDEN_PATH}")
        out.unlink(missing_ok=True)
    _, first = run_batch(cli, wl, seed, work)
    _, second = run_batch(cli, wl, seed, work)
    problems += first.problems + second.problems
    if first.blob != second.blob:
        problems.append(f"{wl.name}: two runs with seed {seed} differ")
    return problems


def setup_seconds(wl, kernel: ReferenceKernel) -> tuple[float, float]:
    """Medians over fresh interpreters of the set-up time, as measured and
    scaled by the reference kernel timed before and after each probe."""
    code = SETUP_CODE.format(src=str(ROOT / "src"), config=str(ROOT / wl.config))
    times, scaled = [], []
    ref_before = kernel.seconds()
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ref_after = kernel.seconds()
        times.append(float(proc.stdout.split()[-1]))
        scaled.append(times[-1] * 2 * NOMINAL_S / (ref_before + ref_after))
        ref_before = ref_after
    return statistics.median(times), statistics.median(scaled)


def pooled(quality: dict, name: str) -> float:
    total, count = quality.get(name, (0.0, 0))
    return total / count if count else 0.0


def measure(cli, wl, seed: int, seconds: float, work: Path, kernel: ReferenceKernel):
    """Plain batches for `seconds`, at least `wl.guard_batches` of them.

    The reference kernel runs before the first batch and after each one. A
    batch's scaled time is its wall time times `reference.NOMINAL_S` over
    the mean of the kernel times on either side of it.
    """
    rates, scaled_s, quality, problems = [], [], {}, []
    attempted = failed = 0
    ref_before = kernel.seconds()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < wl.guard_batches or time.perf_counter() < deadline:
        elapsed, batch = run_batch(cli, wl, batch_seed(seed, index), work)
        ref_after = kernel.seconds()
        attempted += batch.ops
        failed += batch.failed
        problems += batch.problems
        rates.append(batch.ops / elapsed)
        scaled_s.append(elapsed * 2 * NOMINAL_S / (ref_before + ref_after))
        ref_before = ref_after
        if index < wl.guard_batches:
            for name, (total, count) in batch.quality.items():
                old_total, old_count = quality.get(name, (0.0, 0))
                quality[name] = (old_total + total, old_count + count)
        index += 1
    return rates, scaled_s, quality, attempted, failed, problems


def measure_traced(cli, wl, seed: int, seconds: float, work: Path, layer_tracer):
    """Plain and traced batches in pairs, alternating which runs first."""
    ratios, problems = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < TRACE_BATCHES or time.perf_counter() < deadline:
        tracer = layer_tracer if index < TRACE_BATCHES else spans.Tracer()
        s = batch_seed(seed, index)
        if index % 2 == 0:
            plain_s, plain = run_batch(cli, wl, s, work)
            traced_s, traced = run_batch(cli, wl, s, work, tracer)
        else:
            traced_s, traced = run_batch(cli, wl, s, work, tracer)
            plain_s, plain = run_batch(cli, wl, s, work)
        for batch in (plain, traced):
            attempted += batch.ops
            failed += batch.failed
            problems += batch.problems
        if plain.blob != traced.blob:
            problems.append(f"{wl.name}: traced output differs from plain output "
                            f"(batch seed {s})")
        ratios.append(traced_s / plain_s)
        index += 1
    return ratios, attempted, failed, problems


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine_record(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {key: os.environ.get(key, "unset") for key in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"gencomm sources not found under {ROOT}: {', '.join(missing)}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gencomm.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"imported gencomm from {cli.__file__}, not from {ROOT / 'src'}\n")
        return 2
    from workloads import THROUGHPUT_NAME, WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]

    layer_tracer = spans.Tracer()
    if args.trace:
        # Set-up as a fresh process does it, before anything warms a cache.
        with spans.installed(layer_tracer):
            cli.build_context(cli.load_config(str(ROOT / wl.config)))

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        problems = check_correctness(cli, wl, batch_seed(args.seed, 0), work)
        if args.trace:
            ratios, attempted, failed, more = measure_traced(
                cli, wl, args.seed, args.seconds, work, layer_tracer)
            values = spans.per_layer_metrics(layer_tracer)
            values["trace.overhead_ratio"] = statistics.median(ratios)
            named = {}
        else:
            kernel = ReferenceKernel()
            setup_raw, setup_s = setup_seconds(wl, kernel)
            rates, scaled_s, quality, attempted, failed, more = measure(
                cli, wl, args.seed, args.seconds, work, kernel)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "setup_s": setup_s,
                "ops_per_s": attempted / sum(scaled_s),
                "peak_rss_mb": peak_kib / 1024.0,
                "ok_ratio": 1.0 - failed / attempted,
                "quality_guard": pooled(quality, wl.quality[0]),
            }
            named = {THROUGHPUT_NAME[wl.op]: (statistics.median(rates), "1/s"),
                     "failed_ratio": (failed / attempted, "ratio"),
                     **{name: (pooled(quality, name), "1") for name in wl.quality}}
        problems += more
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    names = [m["name"] for m in section]
    if set(values) != set(names):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(names))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    print("machine " + json.dumps(machine_record(wl.name, args.seed), sort_keys=True))
    if not args.trace:
        print(f"{wl.name:<11} batches {len(rates)}; as measured: set-up median {setup_raw:.6g} s,"
              f" median batch rate {statistics.median(rates):.6g} {wl.op}s/s; scaled by the"
              f" reference kernel: set-up {setup_s:.6g} s, {values['ops_per_s']:.6g} {wl.op}s/s")
    for name, entry in metrics.items():
        print(f"{wl.name:<11} {name:<44} {entry['value']:>16.6g} {entry['unit']}")
    for name, (value, unit) in named.items():
        print(f"{wl.name:<11} {name:<44} {value:>16.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
