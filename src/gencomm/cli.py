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
import os
import sys

import numpy as np

from . import sidechannel
from .config import ExperimentConfig, config_metadata, load_config
from .denoiser import TrainConfig, MlpDenoiser, save_checkpoint, train
from .errors import ConfigurationError, GencommError
from .pipeline import build_context, make_training_set, run_trial, sweep, write_results
from .verify import run_verification


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); map to exit code 1
        raise ConfigurationError(message)


def _add_common(sub, config_required=True, trials=True):
    sub.add_argument("--config", default=None, required=config_required,
                     help="experiment config file")
    sub.add_argument("--seed", type=int, default=None, help="override master seed")
    sub.add_argument("--out", default=None, help="machine-output path")
    if trials:
        sub.add_argument("--trials", type=int, default=None, help="override trial count")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; has no effect "
                          "(each sweep point runs as batches)")
    sub.add_argument("--quiet", action="store_true")
    return sub


def _add_run(sub):
    _add_common(sub).add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--timings", action="store_true",
                     help="include per-trial wall time in results "
                          "(non-reproducible byte-wise)")


def _add_verify(sub):
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--out", default=None)
    sub.add_argument("--quiet", action="store_true")


def _add_train(sub):
    _add_common(sub, trials=False).add_argument("--steps", type=int, default=2000)


def build_parser(argv=()) -> _Parser:
    """The parser. If `argv` starts with a subcommand (all calls do but a bare
    --help or a malformed one), it builds only that one: argparse reads no other."""
    parser = _Parser(prog="gencomm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    first = argv[0] if argv else None
    for name in [first] if first in _COMMANDS else _COMMANDS:
        _COMMANDS[name][0](subs.add_parser(name))
    return parser


def _load(args, axis: str, **overrides) -> ExperimentConfig:
    """The config with the command's axis, --seed and --trials set before it is checked."""
    overrides["sweep_axis"] = axis
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    return load_config(args.config, **overrides) if args.config else ExperimentConfig(**overrides)


def _emit(text: str, args) -> None:
    if not args.quiet:
        sys.stderr.write(text if text.endswith("\n") else text + "\n")


# Per-point means in the stderr summary of a sweep.
_SUMMARY_COLUMNS = ("snr_db", "cbr", "k", "warm_start", "mse_coarse", "mse_refined",
                    "psnr_gain_db", "frechet_gauss", "prompt_ok")


def _run_sweep(args, axis: str) -> int:
    cfg = _load(args, axis)
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
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    passed, failed, report = run_verification(seed=args.seed, quiet=args.quiet)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    if args.quiet and failed:
        sys.stderr.write(f"{failed} invariant suite(s) failed\n")
    return 3 if failed else 0


def cmd_sidechannel_test(args) -> int:
    cfg = _load(args, "snr")
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
    # The model is trained from scratch, so the checkpoint it will be saved as is not read.
    cfg = _load(args, "none", mlp_checkpoint=None)
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
    cfg = _load(args, "none", trials=1)
    ctx = build_context(cfg)
    out = run_trial(ctx, trial_id=0)
    record = {
        "gamma": ctx.gamma,
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


# Each subcommand, in the order --help lists them: what adds its arguments, and what runs it.
_COMMANDS = {
    "simulate": (_add_run, lambda a: _run_sweep(a, "none")),
    "sweep-snr": (_add_run, lambda a: _run_sweep(a, "snr")),
    "sweep-cbr": (_add_run, lambda a: _run_sweep(a, "cbr")),
    "verify": (_add_verify, cmd_verify),
    "sidechannel-test": (lambda sub: _add_common(sub, config_required=False),
                         cmd_sidechannel_test),
    "train-denoiser": (_add_train, cmd_train_denoiser),
    "sample": (lambda sub: _add_common(sub, trials=False), cmd_sample),
}


def report_error(exc: GencommError) -> int:
    """Write the one-line message for a typed error; returns its exit code."""
    if isinstance(exc, ConfigurationError):
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    sys.stderr.write(f"runtime error: {type(exc).__name__}: {exc}\n")
    return 2


def main(argv=None) -> int:
    try:
        args = build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
    except ConfigurationError as exc:
        return report_error(exc)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        if args.out and (os.path.isdir(args.out)
                         or not os.path.isdir(os.path.dirname(os.path.abspath(args.out)))):
            raise ConfigurationError(f"--out {args.out} is not a file in an existing directory")
        return _COMMANDS[args.command][1](args)
    except GencommError as exc:
        return report_error(exc)
    except Exception as exc:  # never leave an exception uncaught
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
