#!/usr/bin/env python3
"""Two-stage training of the toy MLP denoiser on pipeline-generated triples.

Stage 1 optimizes the noise-prediction objective (latent-MSE reported as a
diagnostic); stage 2 adds the pixel-domain term through the fixed toy
decoder. Writes a checkpoint and a loss curve CSV. Exits 1 on a configuration
error and 2 on any other gencomm error (e.g. a diverged loss), with the CLI's
one-line message.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from gencomm.cli import report_error
from gencomm.config import load_config
from gencomm.denoiser import (MlpDenoiser, ToyPixelMap, TrainConfig,
                              save_checkpoint, train)
from gencomm.errors import GencommError
from gencomm.pipeline import build_context, make_training_set

ROOT = Path(__file__).resolve().parent.parent


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(ROOT / "configs" / "budget.cfg"))
    parser.add_argument("--out", default="results/denoiser.npz")
    parser.add_argument("--samples", type=int, default=4096)
    parser.add_argument("--stage1-steps", type=int, default=5000)
    parser.add_argument("--stage2-steps", type=int, default=1000)
    parser.add_argument("--lr", type=float, default=2e-2)
    args = parser.parse_args()

    cfg = load_config(args.config)
    ctx = build_context(cfg)
    rng = np.random.default_rng(cfg.master_seed)
    dataset = make_training_set(ctx, n=args.samples, rng=rng)
    model = MlpDenoiser(latent_dim=ctx.world.dim, seed=cfg.master_seed)
    pixmap = ToyPixelMap(ctx.world.dim)

    warm = ctx.sampler_cfg.warm_start_step
    hist1 = train(model, dataset,
                  TrainConfig.stage1(learning_rate=args.lr,
                                     steps=args.stage1_steps,
                                     warm_start_step=warm),
                  ctx.sched, rng, gamma=ctx.gamma)
    print(f"stage 1: {hist1[0]['total']:.3f} -> {hist1[-1]['total']:.3f} "
          f"({args.stage1_steps} steps)")
    hist2 = []
    if args.stage2_steps:
        hist2 = train(model, dataset,
                      TrainConfig.stage2(learning_rate=args.lr / 4,
                                         steps=args.stage2_steps,
                                         warm_start_step=warm),
                      ctx.sched, rng, gamma=ctx.gamma, pixel_map=pixmap)
        print(f"stage 2: {hist2[0]['total']:.3f} -> {hist2[-1]['total']:.3f} "
              f"({args.stage2_steps} steps)")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out)
    with open(f"{out}.loss.csv", "w") as fh:
        fh.write("stage,step,total,diffusion,latent_mse,pixel_mse\n")
        for stage, hist in ((1, hist1), (2, hist2)):
            for rec in hist:
                fh.write(f"{stage},{rec['step']},{rec['total']:.17g},"
                         f"{rec['diffusion']:.17g},{rec['latent_mse']:.17g},"
                         f"{rec.get('pixel_mse', float('nan')):.17g}\n")
    print(f"checkpoint {out}; loss curve {out}.loss.csv")
    return 0


def main() -> int:
    try:
        return run()
    except GencommError as exc:
        return report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
