"""The benchmark's workloads: the `gencomm` CLI commands a user would run,
and how each command's output is checked and scored.

A batch is one `gencomm.cli.main` call. Every batch's output is parsed and
checked; its quality figures are kept as (sum, count) pairs so that the
guard over several batches is the pooled ratio, not a mean of ratios.
Needs `gencomm` importable (`src` on `sys.path`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from gencomm.denoiser import load_checkpoint
from gencomm.pipeline import read_results

LINK_HEADER = "snr_db,info_bits,frames,ber,fer"
LOSS_HEADER = "step,total,diffusion,latent_mse"
# train_final_loss averages the training loss over this trailing share of
# the steps: one minibatch of 128 is too noisy to compare across seeds.
FINAL_LOSS_SHARE = 0.1


@dataclass
class Batch:
    """Checked outcome of one CLI call."""

    ops: int                       # operations attempted
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, tuple[float, int]] = field(default_factory=dict)
    blob: bytes = b""              # output bytes that must repeat exactly


@dataclass(frozen=True)
class Workload:
    name: str
    op: str                        # what one unit of work is
    config: str                    # relative to the repository root
    command: tuple[str, ...]       # CLI arguments before the common ones
    out_name: str
    ops: int                       # operations per batch
    quality: tuple[str, ...]       # figures reported; the first is quality_guard
    guard_batches: int             # batches the quality figures pool over
    points: int                    # sweep points per batch

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        return [*self.command, "--config", self.config, "--seed", str(seed),
                "--threads", "1", "--out", str(out_dir / self.out_name), "--quiet"]

    def collect(self, out_dir: Path, rc: int) -> Batch:
        if rc != 0:
            return Batch(ops=self.ops, failed=self.ops,
                         problems=[f"{self.name}: gencomm exited {rc}"])
        try:
            return _COLLECT[self.command[0]](self, out_dir / self.out_name)
        except (OSError, ValueError, KeyError) as exc:
            return Batch(ops=self.ops, failed=self.ops,
                         problems=[f"{self.name}: unreadable output: {exc!r}"])


def _collect_sweep(wl: Workload, path: Path) -> Batch:
    _, trials, aggregates = read_results(path)
    batch = Batch(ops=wl.ops, blob=path.read_bytes())
    good = [r for r in trials if not r["error"]]
    batch.failed = len(trials) - len(good)
    if len(trials) != wl.ops or len(aggregates) != 2 * wl.points:
        batch.problems.append(f"{wl.name}: {len(trials)} trial rows and "
                              f"{len(aggregates)} aggregate rows, expected "
                              f"{wl.ops} and {2 * wl.points}")
    if batch.failed:
        batch.problems.append(f"{wl.name}: {batch.failed} trial rows with an error")
    if not all(math.isfinite(r["mse_refined"]) for r in good):
        batch.problems.append(f"{wl.name}: non-finite mse_refined")
    batch.quality = {
        "prompt_fail_ratio": (sum(not r["prompt_ok"] for r in good), len(good)),
        "mse_refined_mean": (sum(r["mse_refined"] for r in good), len(good)),
    }
    return batch


def _collect_link(wl: Workload, path: Path) -> Batch:
    text = path.read_text()
    lines = text.splitlines()
    batch = Batch(ops=wl.ops, blob=text.encode())
    rows = [line.split(",") for line in lines[1:]]
    if lines[:1] != [LINK_HEADER] or len(rows) != wl.points:
        batch.problems.append(f"{wl.name}: unexpected table layout")
        batch.failed = wl.ops
        return batch
    frames = bits = bit_errors = frame_errors = 0
    for _, info_bits, n_frames, ber, fer in rows:
        n_bits, n = int(info_bits), int(n_frames)
        bit_errors += round(float(ber) * n_bits)
        frame_errors += round(float(fer) * n)
        bits += n_bits
        frames += n
        if not (0.0 <= float(ber) <= 1.0 and 0.0 <= float(fer) <= 1.0):
            batch.problems.append(f"{wl.name}: ber/fer outside [0, 1]")
    if frames != wl.ops:
        batch.problems.append(f"{wl.name}: {frames} frames, expected {wl.ops}")
    batch.quality = {"ber": (bit_errors, bits), "fer": (frame_errors, frames)}
    return batch


def _collect_train(wl: Workload, path: Path) -> Batch:
    model = load_checkpoint(path)
    curve = Path(f"{path}.loss.csv").read_text()
    lines = curve.splitlines()
    batch = Batch(ops=wl.ops)
    totals = [float(line.split(",")[1]) for line in lines[1:]]
    if lines[:1] != [LOSS_HEADER] or len(totals) != wl.ops:
        batch.problems.append(f"{wl.name}: {len(totals)} loss rows, expected {wl.ops}")
        batch.failed = wl.ops
        return batch
    if not all(math.isfinite(v) for v in totals):
        batch.problems.append(f"{wl.name}: non-finite training loss")
    params = [model.params[name] for name in sorted(model.params)]
    batch.blob = curve.encode() + b"".join(p.tobytes() for p in params)
    tail = totals[-max(1, int(FINAL_LOSS_SHARE * len(totals))):]
    batch.quality = {"train_final_loss": (sum(tail) / len(tail), 1)}
    return batch


_COLLECT = {
    "sweep-snr": _collect_sweep,
    "sidechannel-test": _collect_link,
    "train-denoiser": _collect_train,
}

# Batch sizes keep one CLI call between about 0.3 and 1 s (2 CPUs), so a
# 20 s run holds 20 or more batches. The guard batches take about 60% of a
# run at today's speed; the quality figures pool over exactly that many.
WORKLOADS = {w.name: w for w in (
    Workload("coded-snr", op="trial", config="configs/snr_sweep.cfg",
             command=("sweep-snr", "--trials", "120"), out_name="out.csv",
             ops=600, points=5, guard_batches=14,
             quality=("prompt_fail_ratio", "mse_refined_mean")),
    Workload("mlp-budget", op="trial", config="configs/budget.cfg",
             command=("sweep-snr",), out_name="out.csv",
             ops=1000, points=5, guard_batches=24, quality=("mse_refined_mean",)),
    Workload("link-ber", op="frame", config="benchmarks/link_ber.cfg",
             command=("sidechannel-test",), out_name="out.csv",
             ops=100, points=4, guard_batches=16, quality=("ber", "fer")),
    Workload("train-mlp", op="step", config="configs/budget.cfg",
             command=("train-denoiser", "--steps", "400"), out_name="model.npz",
             ops=400, points=1, guard_batches=12, quality=("train_final_loss",)),
)}

# Each workload's own name for its throughput, printed in the report.
THROUGHPUT_NAME = {"trial": "trials_per_s", "frame": "frames_per_s",
                   "step": "train_steps_per_s"}
