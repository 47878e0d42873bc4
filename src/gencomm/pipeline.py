"""End-to-end orchestration: source -> latent -> codec -> channel ->
equalize -> decode -> warm-start diffusion refinement -> metrics, plus
experiment sweeps and result persistence.

Batch-first: `run_trials` runs a batch of one sweep point's trials. Only the
random draws are per trial (`draw_trial`). Then the batch runs as stacked
(B, d) arrays: `transmit_batch` (z0, codec, channel, equalizer),
`decode_prompt_batch` (one block-diagonal BP decode of every trial's prompt
blocks) and `refine_batch` (deframe, one sampler run per received prompt,
metrics). A sweep point is one batch of up to TRIALS_PER_BATCH trials (more
become several batches, which bounds memory), and `run_trial` is a batch of
one. A trial that fails a stage becomes an error row; the others carry on.

Determinism: every trial owns an isolated random stream derived from
(master seed, axis index, trial id), drawn in the same order in every trial
(z0, channel noise, side-channel noise, warm-start noise). Every batched
product is a stacked matrix-vector product and every other step is
elementwise or per row, so each row gets the bits of a lone trial. Sweep
outputs are therefore identical across runs, batch sizes and `--threads`
values.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from .channel import (DRAW_ROWS, ZERO_POWER, ChannelConfig, apply_channel,
                      channel_draws, mmse_equalize, pack_complex, snr_to_sigma2)
from .channel import transmit  # noqa: F401  (benchmarks/spans.py traces this binding)
from .config import ExperimentConfig
from .denoiser import (AnalyticPredictor, ExactRecoveryOracle, GaussianWorld,
                       MlpDenoiser, load_checkpoint, psd_sqrt)
from .errors import ConfigurationError, ContractError, GencommError, NormalizationError
from .jscc import CodecConfig, cbr, make_linear_codec
from .metrics import frechet_gauss, mse, psnr
from .sampler import SamplerConfig, sample_batch
from .sampler import sample  # noqa: F401  (benchmarks/spans.py traces this binding)
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


class TrialDraws(NamedTuple):
    """A trial's random draws. In a `TrialBatch` each field is stacked on a
    leading batch axis."""

    prior: np.ndarray                  # (d,) standard normals behind z0
    channel: np.ndarray                # (2|4, k), see `channel_draws`
    prompt_llrs: Optional[np.ndarray]  # (blocks, n); None without a side channel
    warm: np.ndarray                   # (d,) warm-start noise


def draw_trial(ctx: TrialContext, trial_id: int) -> TrialDraws:
    """Every random draw of one trial from its own stream, in the order a
    lone trial consumes them: z0, channel, prompt LLRs, warm-start noise."""
    rng = trial_rng(ctx.cfg.master_seed, ctx.axis_index, trial_id)
    prior = rng.standard_normal(ctx.world.dim)
    chan = channel_draws(ctx.cfg.channel.kind, ctx.codec_cfg.k, rng)
    llrs = None
    if ctx.side_code is not None:
        llrs = sidechannel.transmit_prompt(ctx.cfg.prompt, ctx.side_snr_db, rng,
                                           ctx.side_code)
    return TrialDraws(prior, chan, llrs, rng.standard_normal(ctx.world.dim))


@dataclass
class TrialBatch:
    """The live trials of one batch between stages; row r of every array
    belongs to trial ids[r]."""

    ids: list[int]
    draws: TrialDraws
    z0: Optional[np.ndarray] = None
    z_c: Optional[np.ndarray] = None
    prompt_bits: Optional[list[sidechannel.PromptBits]] = None

    def keep(self, rows: np.ndarray) -> "TrialBatch":
        """The rows `rows` of a batch that has not been decoded yet."""
        draws = TrialDraws(*(None if a is None else a[rows] for a in self.draws))
        return TrialBatch([self.ids[r] for r in rows], draws,
                          self.z0[rows], self.z_c[rows])


def transmit_latents(
    ctx: TrialContext, prior: np.ndarray, chan: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z0 from its prior draws, then codec, channel, equalizer and decode on
    (B, d) arrays. Returns (z0, z_c, ok); a row whose projection is all zero
    is not ok and its z_c is NaN."""
    z0 = ctx.world.mu0 + (ctx.prior_root @ prior[:, :, None])[:, :, 0]
    x, scales = ctx.codec.encode_batch(z0)
    sigma2 = snr_to_sigma2(ctx.snr_db)
    y_c, h = apply_channel(pack_complex(x), chan,
                           ChannelConfig(ctx.cfg.channel.kind, ctx.snr_db))
    z_c = ctx.codec.decode_batch(mmse_equalize(y_c, h, sigma2), sigma2, scales)
    return z0, z_c, ~np.isnan(scales)


def transmit_batch(ctx: TrialContext, batch: TrialBatch, fail) -> TrialBatch:
    """Send the batch's latents through codec and channel and check its
    prompt LLRs; a failing row goes to `fail(trial_id, error)` and is
    dropped."""
    batch.z0, batch.z_c, ok = transmit_latents(ctx, batch.draws.prior, batch.draws.channel)
    for r in np.flatnonzero(~ok):
        fail(batch.ids[r], NormalizationError(ZERO_POWER))
    llrs = batch.draws.prompt_llrs
    if llrs is not None:
        finite = np.isfinite(llrs).all(axis=(1, 2))
        for r in np.flatnonzero(ok & ~finite):
            fail(batch.ids[r], ContractError("prompt LLRs must be finite"))
        ok &= finite
    return batch if ok.all() else batch.keep(np.flatnonzero(ok))


def decode_prompt_batch(ctx: TrialContext, batch: TrialBatch) -> None:
    """One block-diagonal BP decode of every trial's prompt blocks."""
    if ctx.side_code is not None:
        batch.prompt_bits = sidechannel.decode_prompts(
            ctx.side_code, batch.draws.prompt_llrs, ctx.cfg.bp_iters)


def refine_batch(ctx: TrialContext, batch: TrialBatch, fail) -> dict[int, TrialOutput]:
    """Deframe each prompt, run the sampler once per group of rows that share
    a received prompt, and score every row. A sampler error fails the rows of
    its group."""
    cfg = ctx.cfg
    n = len(batch.ids)
    k_o, prompt_ok, prompts = [0] * n, [True] * n, [cfg.prompt] * n
    for r, bits in enumerate(batch.prompt_bits or ()):
        report = sidechannel.receive_prompt(cfg.prompt, bits, ctx.side_code)
        k_o[r], prompt_ok[r] = report.k_o, report.ok
        prompts[r] = report.decoded  # None on failure -> unconditional sampling

    groups: dict = {}
    for r, prompt in enumerate(prompts):
        groups.setdefault(prompt, []).append(r)
    z0_hat = np.full_like(batch.z_c, np.nan)
    sampled = np.zeros(n, dtype=bool)
    for prompt, rows in groups.items():
        rows = np.array(rows)
        predictor = ctx.predictor
        if predictor is None:
            predictor = ExactRecoveryOracle(batch.z0[rows], ctx.sched, ctx.gamma)
        try:
            z0_hat[rows], _ = sample_batch(batch.z_c[rows], predictor, prompt,
                                           ctx.sampler_cfg, ctx.sched,
                                           batch.draws.warm[rows])
        except GencommError as exc:
            for r in rows:
                fail(batch.ids[r], exc)
            continue
        sampled[rows] = True

    m_coarse = mse(batch.z0, batch.z_c).tolist()
    m_refined = mse(batch.z0, z0_hat).tolist()
    cbr_value = cbr(ctx.codec_cfg)
    out = {}
    for r in np.flatnonzero(sampled):
        result = RunResult(
            axis_index=ctx.axis_index, trial_id=batch.ids[r], snr_db=ctx.snr_db,
            cbr=cbr_value, warm_start=ctx.sampler_cfg.warm_start_step,
            k=ctx.codec_cfg.k, k_o=k_o[r],
            mse_coarse=m_coarse[r], mse_refined=m_refined[r],
            psnr_coarse=psnr(m_coarse[r], cfg.peak),
            psnr_refined=psnr(m_refined[r], cfg.peak),
            frechet_gauss=math.nan, prompt_ok=prompt_ok[r], wall_time=0.0,
        )
        out[batch.ids[r]] = TrialOutput(result=result, z0=batch.z0[r], z0_hat=z0_hat[r])
    return out


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
    """Run a batch of one sweep point's trials: each trial's draws, then the
    batched stages on stacked arrays.

    With `isolate`, a GencommError in one trial becomes an error row for that
    trial and the others carry on; without it, the error is raised. Each
    trial's wall time is its own draws plus an equal share of the batch's
    stages.
    """
    outputs: dict[int, TrialOutput] = {}

    def fail(trial_id: int, exc: GencommError) -> None:
        if not isolate:
            raise exc
        outputs[trial_id] = _failed_trial(ctx, trial_id, exc)

    ids, draws, own_time = [], [], []
    for trial_id in trial_ids:
        start = time.perf_counter()
        try:
            draws.append(draw_trial(ctx, trial_id))
        except GencommError as exc:
            fail(trial_id, exc)
            continue
        ids.append(trial_id)
        own_time.append(time.perf_counter() - start)
    if ids:
        start = time.perf_counter()
        stacked = TrialDraws(*(None if f[0] is None else np.stack(f) for f in zip(*draws)))
        batch = transmit_batch(ctx, TrialBatch(ids, stacked), fail)
        decode_prompt_batch(ctx, batch)
        done = refine_batch(ctx, batch, fail)
        shared = (time.perf_counter() - start) / len(ids)
        for trial_id, own in zip(ids, own_time):
            if trial_id in done:
                done[trial_id].result.wall_time = own + shared
        outputs.update(done)
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
            # An exactly recovered latent has PSNR +inf; its std is NaN.
            with np.errstate(invalid="ignore"):
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
    kind, d, k = ctx.cfg.channel.kind, ctx.world.dim, ctx.codec_cfg.k
    prior = np.empty((n, d))
    chan = np.empty((n, DRAW_ROWS[kind], k))
    for i in range(n):  # one stream: each sample's z0 draw, then its channel draws
        prior[i] = rng.standard_normal(d)
        chan[i] = channel_draws(kind, k, rng)
    z0s, z_cs, ok = transmit_latents(ctx, prior, chan)
    if not ok.all():
        raise NormalizationError(ZERO_POWER)
    spread = math.sqrt(max(ctx.world.sigma0[0, 0], 1e-12))
    quantiles = 0.5 * (1.0 + np.vectorize(math.erf)((z0s[:, 0] - ctx.world.mu0[0])
                                                    / (spread * math.sqrt(2.0))))
    labels = np.clip((quantiles * n_classes).astype(np.int64), 0, n_classes - 1)
    return z0s, z_cs, labels
