"""End-to-end orchestration: source -> latent -> codec -> channel ->
equalize -> decode -> warm-start diffusion refinement -> metrics, plus
experiment sweeps and result persistence.

A trial runs in three stages: `transmit_trial` (its own z0, codec, channel,
equalizer and prompt LLRs), one batched side-channel decode shared by a
batch of trials (`decode_prompt_batch`), and `refine_trial` (deframe,
sampler, metrics). `run_trials` drives a batch through them; a sweep point
is one batch of up to TRIALS_PER_BATCH trials (more become several
batches, which bounds memory), and `run_trial` is a batch of one.

Determinism: every trial owns an isolated random stream derived from
(master seed, axis index, trial id), drawn in the same order in every trial
(z0, channel noise, side-channel noise, warm-start noise), and batched BP
decodes each block exactly as a lone decode would. So sweep outputs are
identical across runs, batch sizes and `--threads` values.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .channel import ChannelConfig, mmse_equalize, pack_complex, snr_to_sigma2, transmit
from .config import ExperimentConfig
from .denoiser import (AnalyticPredictor, ExactRecoveryOracle, GaussianWorld,
                       MlpDenoiser, load_checkpoint, psd_sqrt)
from .errors import ConfigurationError, ContractError, GencommError
from .jscc import CodecConfig, cbr, make_linear_codec
from .metrics import frechet_gauss, mse, psnr
from .sampler import SamplerConfig, sample
from .schedule import build_schedule, residual_weight
from .sidechannel import send_prompt  # noqa: F401  (benchmarks/spans.py traces this binding)
from . import sidechannel

TRIALS_PER_BATCH = 1024

# Warm-start step by channel bandwidth ratio (nearest entry, ties toward the
# larger step; clamped at the endpoints outside the covered range).
DEFAULT_WARM_START_TABLE: tuple[tuple[float, int], ...] = (
    (0.0020, 600),
    (0.0033, 500),
    (0.0059, 400),
    (0.011, 300),
)


def warm_start_for_cbr(
    cbr_value: float,
    table: tuple[tuple[float, int], ...] = DEFAULT_WARM_START_TABLE,
) -> int:
    if not table:
        raise ConfigurationError("warm-start table is empty")
    if cbr_value <= 0.0:
        raise ContractError(f"cbr must be > 0, got {cbr_value}")
    best_step = table[0][1]
    best_dist = abs(cbr_value - table[0][0])
    for point, step in table[1:]:
        dist = abs(cbr_value - point)
        if dist < best_dist:  # strict: ties keep the earlier (larger) step
            best_dist = dist
            best_step = step
    return best_step


@dataclass
class RunResult:
    axis_index: int
    trial_id: int
    snr_db: float
    cbr: float
    warm_start: int
    k: int
    k_o: int
    mse_coarse: float
    mse_refined: float
    psnr_coarse: float
    psnr_refined: float
    frechet_gauss: float
    prompt_ok: bool
    wall_time: float
    error: str = ""


@dataclass
class TrialContext:
    """Everything shared by the trials of one sweep point."""

    cfg: ExperimentConfig
    axis_index: int
    snr_db: float
    codec_cfg: CodecConfig
    codec: object
    sched: object
    world: GaussianWorld
    sampler_cfg: SamplerConfig
    gamma: float
    predictor: Optional[object]      # None for the per-trial oracle
    side_code: Optional[object]
    side_snr_db: float
    prior_root: np.ndarray


def trial_rng(master_seed: int, axis_index: int, trial_id: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(axis_index, trial_id))
    return np.random.default_rng(seq)


def build_context(
    cfg: ExperimentConfig,
    axis_index: int = 0,
    snr_db: Optional[float] = None,
    codec_cfg: Optional[CodecConfig] = None,
) -> TrialContext:
    snr_db = cfg.channel.snr_db if snr_db is None else snr_db
    codec_cfg = cfg.codec if codec_cfg is None else codec_cfg
    sched = build_schedule(cfg.schedule_steps, cfg.beta_min, cfg.beta_max,
                           cfg.schedule_kind)
    codec = make_linear_codec(codec_cfg, cfg.codec_seed, cfg.tikhonov_lambda)
    cbr_value = cbr(codec_cfg)
    warm = cfg.warm_start if cfg.warm_start is not None else warm_start_for_cbr(cbr_value)
    if warm > sched.T:
        raise ConfigurationError(f"warm-start step {warm} exceeds schedule T={sched.T}")
    sampler_cfg = SamplerConfig(steps=cfg.sampler_steps, warm_start_step=warm,
                                guidance=cfg.guidance,
                                singular_guard=cfg.singular_guard)
    gamma = residual_weight(warm, sched)
    world = GaussianWorld.ar1(codec, snr_db, kind=cfg.channel.kind,
                              prior_var=cfg.prior_var, rho=cfg.prior_ar1_rho)
    if cfg.predictor == "analytic":
        predictor = AnalyticPredictor(world, sched, gamma)
    elif cfg.predictor == "mlp":
        if cfg.mlp_checkpoint:
            predictor = load_checkpoint(cfg.mlp_checkpoint)
            if predictor.latent_dim != 2 * codec_cfg.k_prime:
                raise ConfigurationError(
                    f"checkpoint latent dim {predictor.latent_dim} does not match "
                    f"codec latent dim {2 * codec_cfg.k_prime}"
                )
        else:
            predictor = MlpDenoiser(latent_dim=2 * codec_cfg.k_prime,
                                    seed=cfg.master_seed)
    else:
        predictor = None  # exact-oracle, built per trial around the drawn z0
    side_code = None
    if cfg.prompt is not None and cfg.sidechannel_enabled:
        side_code = sidechannel.default_code(cfg.ldpc_n, cfg.ldpc_seed)
    side_snr = cfg.sidechannel_snr_db if cfg.sidechannel_snr_db is not None else snr_db
    return TrialContext(cfg=cfg, axis_index=axis_index, snr_db=snr_db,
                        codec_cfg=codec_cfg, codec=codec, sched=sched, world=world,
                        sampler_cfg=sampler_cfg, gamma=gamma, predictor=predictor,
                        side_code=side_code, side_snr_db=side_snr,
                        prior_root=psd_sqrt(world.sigma0))


@dataclass
class TrialOutput:
    result: RunResult
    z0: Optional[np.ndarray] = None
    z0_hat: Optional[np.ndarray] = None


@dataclass
class TrialInFlight:
    """One trial between its transmit and refine stages."""

    trial_id: int
    rng: np.random.Generator          # the trial's stream, resumed by the sampler
    z0: np.ndarray
    z_c: np.ndarray
    prompt_llrs: Optional[np.ndarray]  # (blocks, n); None without a side channel
    elapsed: float                     # seconds spent in the trial's own stages
    prompt_bits: Optional[sidechannel.PromptBits] = None


def transmit_trial(ctx: TrialContext, trial_id: int) -> TrialInFlight:
    """Draw z0, send it through codec, channel and equalizer, and draw the
    prompt's received LLRs, all from the trial's own stream."""
    cfg = ctx.cfg
    start = time.perf_counter()
    rng = trial_rng(cfg.master_seed, ctx.axis_index, trial_id)

    z0 = ctx.world.mu0 + ctx.prior_root @ rng.standard_normal(ctx.world.dim)
    x, scale = ctx.codec.encode(z0)
    sigma2 = snr_to_sigma2(ctx.snr_db)
    y_c, h = transmit(pack_complex(x), ChannelConfig(cfg.channel.kind, ctx.snr_db), rng)
    z_c = ctx.codec.decode(mmse_equalize(y_c, h, sigma2), sigma2, scale)

    llrs = None
    if ctx.side_code is not None:
        llrs = sidechannel.transmit_prompt(cfg.prompt, ctx.side_snr_db, rng, ctx.side_code)
        if not np.all(np.isfinite(llrs)):
            raise ContractError("prompt LLRs must be finite")
    return TrialInFlight(trial_id, rng, z0, z_c, llrs, time.perf_counter() - start)


def decode_prompt_batch(ctx: TrialContext, trials: list[TrialInFlight]) -> None:
    """One block-diagonal BP decode of every trial's prompt blocks."""
    if ctx.side_code is None:
        return
    decoded = sidechannel.decode_prompts(ctx.side_code, [t.prompt_llrs for t in trials],
                                         ctx.cfg.bp_iters)
    for trial, bits in zip(trials, decoded):
        trial.prompt_bits = bits


def refine_trial(ctx: TrialContext, trial: TrialInFlight, shared_time: float) -> TrialOutput:
    """Deframe the prompt, run the warm-start sampler and score the trial."""
    cfg = ctx.cfg
    start = time.perf_counter()
    k_o = 0
    prompt_ok = True
    prompt = cfg.prompt
    if trial.prompt_bits is not None:
        report = sidechannel.receive_prompt(cfg.prompt, trial.prompt_bits, ctx.side_code)
        k_o = report.k_o
        prompt_ok = report.ok
        prompt = report.decoded  # None on failure -> unconditional sampling

    predictor = ctx.predictor
    if predictor is None:
        predictor = ExactRecoveryOracle(trial.z0, ctx.sched, ctx.gamma)
    z0_hat, _ = sample(trial.z_c, predictor, prompt, ctx.sampler_cfg, ctx.sched, trial.rng)

    m_coarse = mse(trial.z0, trial.z_c)
    m_refined = mse(trial.z0, z0_hat)
    result = RunResult(
        axis_index=ctx.axis_index, trial_id=trial.trial_id, snr_db=ctx.snr_db,
        cbr=cbr(ctx.codec_cfg), warm_start=ctx.sampler_cfg.warm_start_step,
        k=ctx.codec_cfg.k, k_o=k_o,
        mse_coarse=m_coarse, mse_refined=m_refined,
        psnr_coarse=psnr(m_coarse, cfg.peak), psnr_refined=psnr(m_refined, cfg.peak),
        frechet_gauss=math.nan, prompt_ok=prompt_ok,
        wall_time=trial.elapsed + shared_time + time.perf_counter() - start,
    )
    return TrialOutput(result=result, z0=trial.z0, z0_hat=z0_hat)


def _failed_trial(ctx: TrialContext, trial_id: int, exc: GencommError) -> TrialOutput:
    """An error row: NaN metrics and a single-line, comma-free note."""
    nan = math.nan
    note = f"{type(exc).__name__}: {exc}".replace(",", ";")
    note = " ".join(note.split())
    return TrialOutput(result=RunResult(
        axis_index=ctx.axis_index, trial_id=trial_id, snr_db=ctx.snr_db,
        cbr=cbr(ctx.codec_cfg), warm_start=ctx.sampler_cfg.warm_start_step,
        k=ctx.codec_cfg.k, k_o=0, mse_coarse=nan, mse_refined=nan,
        psnr_coarse=nan, psnr_refined=nan, frechet_gauss=nan,
        prompt_ok=False, wall_time=0.0, error=note))


def run_trials(
    ctx: TrialContext, trial_ids: list[int], isolate: bool = True
) -> list[TrialOutput]:
    """Run a batch of one sweep point's trials through the three stages.

    With `isolate`, a GencommError in one trial's stage becomes an error row
    for that trial and the others carry on; without it, the error is raised.
    Each trial's wall time is its own stages plus an equal share of the
    batched side-channel decode.
    """
    outputs: dict[int, TrialOutput] = {}

    def attempt(trial_id, stage, *args):
        try:
            return stage(*args)
        except GencommError as exc:
            if not isolate:
                raise
            outputs[trial_id] = _failed_trial(ctx, trial_id, exc)
            return None

    trials = [attempt(i, transmit_trial, ctx, i) for i in trial_ids]
    trials = [t for t in trials if t is not None]
    start = time.perf_counter()
    decode_prompt_batch(ctx, trials)
    shared = (time.perf_counter() - start) / max(len(trials), 1)
    for t in trials:
        out = attempt(t.trial_id, refine_trial, ctx, t, shared)
        if out is not None:
            outputs[t.trial_id] = out
    return [outputs[i] for i in trial_ids]


def run_trial(ctx: TrialContext, trial_id: int) -> TrialOutput:
    """One full transmission + refinement; deterministic per (seed, ids).
    Errors propagate."""
    return run_trials(ctx, [trial_id], isolate=False)[0]


def _axis_points(cfg: ExperimentConfig) -> list[tuple[int, float, CodecConfig]]:
    """(axis index, snr, codec config) per sweep point."""
    if cfg.sweep_axis == "snr":
        return [(i, v, cfg.codec) for i, v in enumerate(cfg.snr_points)]
    if cfg.sweep_axis == "cbr":
        points = []
        source_dims = cfg.codec.channels * cfg.codec.height * cfg.codec.width
        for i, target in enumerate(cfg.cbr_points):
            k = int(round(target * source_dims))
            k = max(1, min(k, cfg.codec.k_prime))
            points.append((i, cfg.channel.snr_db, replace(cfg.codec, k=k)))
        return points
    return [(0, cfg.channel.snr_db, cfg.codec)]


_AGGREGATE_FIELDS = ("snr_db", "cbr", "warm_start", "k", "k_o", "mse_coarse",
                     "mse_refined", "psnr_coarse", "psnr_refined",
                     "frechet_gauss", "prompt_ok", "wall_time")


def sweep(cfg: ExperimentConfig, threads: int = 1) -> tuple[list[RunResult], list[dict]]:
    """Run the full trial grid; returns (per-trial rows, aggregate rows).

    Each sweep point runs as batches of `run_trials`. `threads` is accepted
    for compatibility and changes nothing. A failing trial is recorded as a
    row with NaN metrics and an error note.
    """
    all_rows: list[RunResult] = []
    aggregates: list[dict] = []
    for axis_index, snr_db, codec_cfg in _axis_points(cfg):
        ctx = build_context(cfg, axis_index, snr_db, codec_cfg)
        ids = list(range(cfg.trials))
        outputs: list[TrialOutput] = []
        for lo in range(0, len(ids), TRIALS_PER_BATCH):
            outputs += run_trials(ctx, ids[lo : lo + TRIALS_PER_BATCH])

        good = [o for o in outputs if not o.result.error]
        dim = ctx.world.dim
        if len(good) >= dim + 1:
            fg = frechet_gauss(np.stack([o.z0 for o in good]),
                               np.stack([o.z0_hat for o in good]))
            for o in good:
                o.result.frechet_gauss = fg
        rows = [o.result for o in outputs]
        all_rows.extend(rows)
        aggregates.extend(_aggregate(rows, axis_index))
    return all_rows, aggregates


def _aggregate(rows: list[RunResult], axis_index: int) -> list[dict]:
    ok = [r for r in rows if not r.error]
    out = []
    for kind, fn in (("mean", np.mean), ("std", np.std)):
        rec: dict = {"kind": kind, "axis_index": axis_index,
                     "n_trials": len(rows), "n_failed": len(rows) - len(ok)}
        for name in _AGGREGATE_FIELDS:
            values = [float(getattr(r, name)) for r in ok]
            rec[name] = float(fn(values)) if values else math.nan
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# Result persistence

_TRIAL_COLUMNS = ["kind", "axis_index", "trial_id", "snr_db", "cbr", "warm_start",
                  "k", "k_o", "mse_coarse", "mse_refined", "psnr_coarse",
                  "psnr_refined", "frechet_gauss", "prompt_ok", "error"]
_INT_COLUMNS = {"axis_index", "trial_id", "warm_start", "k", "k_o", "n_trials",
                "n_failed"}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_results(
    rows: list[RunResult],
    aggregates: list[dict],
    metadata: dict,
    path,
    fmt: str = "csv",
    include_timing: bool = False,
) -> None:
    """Persist a sweep. Column order is fixed; floats carry 17 significant
    digits. Per-trial wall time is only written when `include_timing` is set,
    keeping the default output byte-reproducible across runs."""
    agg_fields = [f for f in _AGGREGATE_FIELDS if include_timing or f != "wall_time"]
    if fmt == "json":
        payload = {
            "metadata": {k: _fmt(v) for k, v in metadata.items()},
            "trials": [_row_dict(r, include_timing) for r in rows],
            "aggregates": [{k: v for k, v in rec.items()
                            if include_timing or k != "wall_time"}
                           for rec in aggregates],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ConfigurationError(f"unknown result format {fmt!r}")
    columns = _TRIAL_COLUMNS + (["wall_time"] if include_timing else [])
    agg_columns = ["kind", "axis_index", "n_trials", "n_failed", *agg_fields]
    lines = [f"# {key} = {_fmt(value)}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    for r in rows:
        rec = _row_dict(r, include_timing)
        lines.append(",".join(_fmt(rec[c]) for c in columns))
    lines.append(",".join(agg_columns))
    for rec in aggregates:
        lines.append(",".join(_fmt(rec[c]) for c in agg_columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _row_dict(r: RunResult, include_timing: bool) -> dict:
    rec = {"kind": "trial"}
    for f in fields(RunResult):
        rec[f.name] = getattr(r, f.name)
    if not include_timing:
        rec.pop("wall_time")
    return rec


def read_results(path, fmt: str = "csv") -> tuple[dict, list[dict], list[dict]]:
    """Parse a result file back into (metadata, trial rows, aggregate rows)."""
    if fmt == "json":
        with open(path) as fh:
            payload = json.load(fh)
        return payload["metadata"], payload["trials"], payload["aggregates"]
    metadata: dict = {}
    trials: list[dict] = []
    aggregates: list[dict] = []
    header: Optional[list[str]] = None
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                metadata[key] = value
                continue
            cells = line.split(",")
            if cells[0] in ("kind",):
                header = cells
                continue
            if header is None:
                raise ConfigurationError(f"malformed results file {path}")
            rec = dict(zip(header, (_parse_cell(c, h) for c, h in zip(cells, header))))
            (trials if rec["kind"] == "trial" else aggregates).append(rec)
    return metadata, trials, aggregates


def _parse_cell(cell: str, column: str):
    if column in ("kind", "error"):
        return cell
    if cell in ("true", "false"):
        return cell == "true"
    if column in _INT_COLUMNS:
        return int(cell)
    return float(cell)


# ---------------------------------------------------------------------------
# Training-set generation for the MLP denoiser


def make_training_set(
    ctx: TrialContext, n: int, rng: np.random.Generator, n_classes: int = 10
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z0, z_c, class index) triples through the real codec + channel.

    Class labels bucket the first latent coordinate by its prior quantile, so
    the prompt genuinely carries information about the clean latent.
    """
    d = ctx.world.dim
    z0s = np.empty((n, d))
    z_cs = np.empty((n, d))
    sigma2 = snr_to_sigma2(ctx.snr_db)
    chan = ChannelConfig(ctx.cfg.channel.kind, ctx.snr_db)
    for i in range(n):
        z0 = ctx.world.mu0 + ctx.prior_root @ rng.standard_normal(d)
        x, scale = ctx.codec.encode(z0)
        y_c, h = transmit(pack_complex(x), chan, rng)
        z_cs[i] = ctx.codec.decode(mmse_equalize(y_c, h, sigma2), sigma2, scale)
        z0s[i] = z0
    spread = math.sqrt(max(ctx.world.sigma0[0, 0], 1e-12))
    quantiles = 0.5 * (1.0 + np.vectorize(math.erf)((z0s[:, 0] - ctx.world.mu0[0])
                                                    / (spread * math.sqrt(2.0))))
    labels = np.clip((quantiles * n_classes).astype(np.int64), 0, n_classes - 1)
    return z0s, z_cs, labels
