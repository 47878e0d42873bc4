"""Command-line entry point.

Exit codes: 0 success, 1 configuration error, 2 runtime/numerical error,
3 when `verify` finds a failing invariant. Human-readable summaries go to
stderr; machine output goes to the --out path. Nothing is written outside
--out (train-denoiser additionally writes `<out>.loss.csv` next to its
checkpoint, replacing the curve of an earlier run to the same path).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import sidechannel
from .config import ExperimentConfig, config_metadata, load_config
from .denoiser import TrainConfig, MlpDenoiser, save_checkpoint, train
from .errors import ConfigurationError, GencommError
from .pipeline import build_context, make_training_set, run_trial, sweep, write_results
from .schedule import residual_weight
from .verify import run_verification


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); map to exit code 1
        raise ConfigurationError(message)


def _add_common(sub, config_required=True):
    sub.add_argument("--config", default=None, required=config_required,
                     help="experiment config file")
    sub.add_argument("--seed", type=int, default=None, help="override master seed")
    sub.add_argument("--out", default=None, help="machine-output path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--trials", type=int, default=None, help="override trial count")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; has no effect "
                          "(each sweep point runs as batches)")
    sub.add_argument("--quiet", action="store_true")
    sub.add_argument("--timings", action="store_true",
                     help="include per-trial wall time in results "
                          "(non-reproducible byte-wise)")


def build_parser() -> _Parser:
    parser = _Parser(prog="gencomm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "sweep-snr", "sweep-cbr"):
        _add_common(subs.add_parser(name))
    v = subs.add_parser("verify")
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--out", default=None)
    v.add_argument("--quiet", action="store_true")
    s = subs.add_parser("sidechannel-test")
    _add_common(s, config_required=False)
    t = subs.add_parser("train-denoiser")
    _add_common(t)
    t.add_argument("--steps", type=int, default=2000)
    sa = subs.add_parser("sample")
    _add_common(sa)
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, trials=args.trials)
    return cfg


def _emit(text: str, args) -> None:
    if not args.quiet:
        sys.stderr.write(text if text.endswith("\n") else text + "\n")


# Per-point means in the stderr summary of a sweep.
_SUMMARY_COLUMNS = ("snr_db", "cbr", "k", "warm_start", "mse_coarse", "mse_refined",
                    "psnr_gain_db", "frechet_gauss", "prompt_ok")


def _run_sweep(args, axis: str) -> int:
    cfg = replace(_load(args), sweep_axis=axis)
    rows, aggregates = sweep(cfg, threads=args.threads)
    failed = sum(1 for r in rows if r.error)
    if args.out:
        write_results(rows, aggregates, config_metadata(cfg), args.out,
                      fmt=args.format, include_timing=args.timings)
        _emit(f"{len(rows)} trials ({failed} failed) -> {args.out}", args)
    else:
        _emit(f"{len(rows)} trials ({failed} failed); no --out given", args)
    widths = [max(len(c), 9) for c in _SUMMARY_COLUMNS]
    _emit(" ".join(f"{c:>{w}}" for c, w in zip(_SUMMARY_COLUMNS, widths)), args)
    for rec in aggregates:
        if rec["kind"] == "mean":
            rec = dict(rec, psnr_gain_db=rec["psnr_refined"] - rec["psnr_coarse"])
            _emit(" ".join(f"{rec[c]:>{w}.6g}" for c, w in zip(_SUMMARY_COLUMNS, widths)),
                  args)
    return 0


def cmd_verify(args) -> int:
    passed, failed, report = run_verification(seed=args.seed, quiet=args.quiet)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    if args.quiet and failed:
        sys.stderr.write(f"{failed} invariant suite(s) failed\n")
    return 3 if failed else 0


def cmd_simulate(args) -> int:
    return _run_sweep(args, "none")


def cmd_sidechannel_test(args) -> int:
    cfg = _load(args)
    rng = np.random.default_rng(cfg.master_seed)
    code = sidechannel.default_code(cfg.ldpc_n, cfg.ldpc_seed)
    frames = cfg.trials
    lines = ["snr_db,info_bits,frames,ber,fer"]
    for snr_db in cfg.snr_points:
        stats = sidechannel.measure_link(code, snr_db, frames * code.k, rng,
                                         max_iters=cfg.bp_iters)
        lines.append(f"{stats['snr_db']:.17g},{stats['info_bits']},"
                     f"{stats['frames']},{stats['ber']:.17g},{stats['fer']:.17g}")
        _emit(f"snr {snr_db:+.1f} dB: ber={stats['ber']:.3e} fer={stats['fer']:.3e}",
              args)
    table = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    return 0


def cmd_train_denoiser(args) -> int:
    cfg = _load(args)
    if not args.out:
        raise ConfigurationError("train-denoiser requires --out for the checkpoint")
    if args.steps < 1:
        raise ConfigurationError(f"--steps must be >= 1, got {args.steps}")
    ctx = build_context(cfg)
    rng = np.random.default_rng(cfg.master_seed)
    dataset = make_training_set(ctx, n=4096, rng=rng)
    model = MlpDenoiser(latent_dim=ctx.world.dim, seed=cfg.master_seed)
    tc = TrainConfig(steps=args.steps, warm_start_step=ctx.sampler_cfg.warm_start_step)
    history = train(model, dataset, tc, ctx.sched, rng, gamma=ctx.gamma)
    save_checkpoint(model, args.out)
    curve_path = f"{args.out}.loss.csv"
    with open(curve_path, "w") as fh:
        fh.write("step,total,diffusion,latent_mse\n")
        for rec in history:
            fh.write(f"{rec['step']},{rec['total']:.17g},"
                     f"{rec['diffusion']:.17g},{rec['latent_mse']:.17g}\n")
    _emit(f"trained {args.steps} steps: loss {history[0]['total']:.4g} -> "
          f"{history[-1]['total']:.4g}; checkpoint {args.out}", args)
    return 0


def cmd_sample(args) -> int:
    cfg = replace(_load(args), trials=1)
    ctx = build_context(cfg)
    out = run_trial(ctx, trial_id=0)
    record = {
        "gamma": residual_weight(ctx.sampler_cfg.warm_start_step, ctx.sched),
        "warm_start": ctx.sampler_cfg.warm_start_step,
        "mse_coarse": out.result.mse_coarse,
        "mse_refined": out.result.mse_refined,
        "prompt_ok": out.result.prompt_ok,
        "k_o": out.result.k_o,
        "z0": out.z0.tolist(),
        "z0_hat": out.z0_hat.tolist(),
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _emit(f"mse coarse {out.result.mse_coarse:.6g} -> refined "
          f"{out.result.mse_refined:.6g}", args)
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "sweep-snr": lambda a: _run_sweep(a, "snr"),
    "sweep-cbr": lambda a: _run_sweep(a, "cbr"),
    "sidechannel-test": cmd_sidechannel_test,
    "train-denoiser": cmd_train_denoiser,
    "sample": cmd_sample,
}


def report_error(exc: GencommError) -> int:
    """Write the one-line message for a typed error; returns its exit code."""
    if isinstance(exc, ConfigurationError):
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    sys.stderr.write(f"runtime error: {type(exc).__name__}: {exc}\n")
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigurationError as exc:
        return report_error(exc)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except GencommError as exc:
        return report_error(exc)
    except Exception as exc:  # never leave an exception uncaught
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
