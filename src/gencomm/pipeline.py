"""End-to-end orchestration: source -> latent -> codec -> channel ->
equalize -> decode -> warm-start diffusion refinement -> metrics, plus
experiment sweeps and result persistence.

Batch-first: `run_trials` runs a batch of one sweep point's trials as one pass
over stacked (B, d) arrays, row r being trial r of the batch throughout:
`draw_batch` (every trial's PCG64 state computed at once, one normal draw per
trial into one buffer, the prompt's LLRs from the stacked noise),
`transmit_latents` (z0, codec, channel, equalizer), one block-diagonal BP
decode of every row's prompt blocks with deframing, a sampler run per prompt
the predictor reads, and metrics. A stage that fails a row records the error
in the row's entry of `errors`; the row joins no later stage and becomes an
error row, and the others carry on. A sweep point is one batch of up to
TRIALS_PER_BATCH trials (more become several batches, which bounds memory), and
`run_trial` is a batch of one that raises its row's error. `build_context`
given the sweep's previous point reuses the parts that do not depend on the
point (schedule, codec, MLP, prior root).

Determinism: every trial owns an isolated random stream, numpy's
`default_rng(SeedSequence(master seed, spawn_key=(axis index, trial id)))`,
drawn in the same order in every trial (z0, channel noise, side-channel
noise, warm-start noise). Every batched product is a stacked matrix-vector
product or, in the MLP layers, a GEMM over zero-padded blocks of a fixed row
count, and every other step is elementwise or per row, so each row gets the
bits of a lone trial. Sweep outputs are therefore identical across runs,
batch sizes and `--threads` values.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat
from operator import attrgetter, is_
from typing import NamedTuple, Optional

import numpy as np

from .channel import (DRAW_ROWS, ZERO_POWER, ChannelConfig, apply_channel,
                      mmse_equalize, pack_complex, snr_to_sigma2)
from .channel import transmit  # noqa: F401  (benchmarks/spans.py traces this binding)
from .config import ExperimentConfig
from .denoiser import AnalyticPredictor, GaussianWorld, MlpDenoiser, load_checkpoint
from .errors import ConfigurationError, ContractError, GencommError, NormalizationError
from .jscc import CodecConfig, cbr, make_linear_codec
from .metrics import frechet_gauss, mse, psd_sqrt, psnr
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


def warm_start_for_cbr(cbr_value: float) -> int:
    if cbr_value <= 0.0:
        raise ContractError(f"cbr must be > 0, got {cbr_value}")
    best_step = DEFAULT_WARM_START_TABLE[0][1]
    best_dist = abs(cbr_value - DEFAULT_WARM_START_TABLE[0][0])
    for point, step in DEFAULT_WARM_START_TABLE[1:]:
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


_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def trial_states(master_seed: int, axis_index: int, trial_ids: list[int]) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of `default_rng(SeedSequence(master_seed, spawn_key=(axis_index, t)))`
    for every trial id t at once: SeedSequence's mixing on 32-bit words (only the trial ids in
    a uint64 array), then PCG64's seeding on Python ints. The first trial is checked by numpy."""
    if not 0 <= axis_index <= _MASK32 or not all(0 <= t <= _MASK32 for t in trial_ids):
        raise ContractError("axis index and trial ids must be in [0, 2**32)")
    const = 0x43B0D7E5

    def hashmix(v, mult=0x931E8875):
        nonlocal const
        v, const = v ^ const, const * mult & _MASK32
        v = v * const & _MASK32
        return v ^ v >> 16

    def mix(x, y):
        v = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return v ^ v >> 16

    words = [master_seed >> s & _MASK32 for s in range(0, max(master_seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) + [axis_index]  # the seed padded to the pool size
    entropy = words + [np.array(trial_ids, np.uint64)]
    pool = [hashmix(w) for w in entropy[:4]]
    for i, j in itertools.permutations(range(4), 2):
        pool[j] = mix(pool[j], hashmix(pool[i]))
    for w, j in itertools.product(entropy[4:], range(4)):
        pool[j] = mix(pool[j], hashmix(w))
    const = 0x8B51F9DD  # generate_state(4, uint64): eight 32-bit words, low word first
    out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    halves = [(out[i] | out[i + 1] << 32).tolist() for i in (0, 2, 4, 6)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) % (1 << 128)
        states.append(((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) % (1 << 128), inc))
    if states:
        ref = np.random.PCG64(np.random.SeedSequence(
            master_seed, spawn_key=(axis_index, trial_ids[0]))).state["state"]
        if states[0] != (ref["state"], ref["inc"]):
            raise ContractError("batched seeding disagrees with numpy's SeedSequence")
    return states


def build_context(
    cfg: ExperimentConfig,
    axis_index: int = 0,
    snr_db: Optional[float] = None,
    codec_cfg: Optional[CodecConfig] = None,
    prev: Optional[TrialContext] = None,
) -> TrialContext:
    """A sweep point's context; `prev`, the same sweep's previous point, lends it the
    schedule, codec (same config), MLP (same k') and prior root."""
    snr_db = cfg.channel.snr_db if snr_db is None else snr_db
    codec_cfg = cfg.codec if codec_cfg is None else codec_cfg
    sched = prev.sched if prev else build_schedule(cfg.schedule_steps, cfg.beta_min,
                                                   cfg.beta_max, cfg.schedule_kind)
    codec = (prev.codec if prev and prev.codec_cfg == codec_cfg
             else make_linear_codec(codec_cfg, cfg.codec_seed, cfg.tikhonov_lambda))
    warm = cfg.warm_start if cfg.warm_start is not None else warm_start_for_cbr(cbr(codec_cfg))
    if warm > sched.T:
        raise ConfigurationError(f"warm-start step {warm} exceeds schedule T={sched.T}")
    sampler_cfg = SamplerConfig(steps=cfg.sampler_steps, warm_start_step=warm,
                                guidance=cfg.guidance)
    gamma = residual_weight(warm, sched)
    world = GaussianWorld.ar1(codec, snr_db, kind=cfg.channel.kind,
                              prior_var=cfg.prior_var, rho=cfg.prior_ar1_rho)
    if cfg.predictor == "analytic":
        predictor = AnalyticPredictor(world, sched, gamma)
    elif cfg.predictor == "mlp" and prev and prev.codec_cfg.k_prime == codec_cfg.k_prime:
        predictor = prev.predictor
    elif cfg.mlp_checkpoint:
        predictor = load_checkpoint(cfg.mlp_checkpoint)
        if predictor.latent_dim != 2 * codec_cfg.k_prime:
            raise ConfigurationError(
                f"checkpoint latent dim {predictor.latent_dim} does not match "
                f"codec latent dim {2 * codec_cfg.k_prime}"
            )
    else:
        predictor = MlpDenoiser(latent_dim=2 * codec_cfg.k_prime, seed=cfg.master_seed)
    side_code = (sidechannel.default_code(cfg.ldpc_n, cfg.ldpc_seed)
                 if cfg.prompt is not None and cfg.sidechannel_enabled else None)
    side_snr = cfg.sidechannel_snr_db if cfg.sidechannel_snr_db is not None else snr_db
    prior_root = (prev.prior_root if prev and prev.world.dim == world.dim
                  else psd_sqrt(world.sigma0))
    return TrialContext(cfg=cfg, axis_index=axis_index, snr_db=snr_db,
                        codec_cfg=codec_cfg, codec=codec, sched=sched, world=world,
                        sampler_cfg=sampler_cfg, gamma=gamma, predictor=predictor,
                        side_code=side_code, side_snr_db=side_snr, prior_root=prior_root)


@dataclass
class TrialOutput:
    result: RunResult
    z0: Optional[np.ndarray] = None
    z0_hat: Optional[np.ndarray] = None


class TrialRows(NamedTuple):
    """A batch's rows and each row's error (None if it ran), with the stacked z0, z0_hat
    and `columns` (a row per `_AGGREGATE_FIELDS`, frechet_gauss NaN) of its error-free rows."""

    rows: list[RunResult]
    z0: np.ndarray
    z0_hat: np.ndarray
    errors: list[Optional[GencommError]]
    columns: np.ndarray


class TrialDraws(NamedTuple):
    """The random draws of a batch's trials, stacked on a leading batch axis."""

    prior: np.ndarray                  # (B, d) standard normals behind z0
    channel: np.ndarray                # (B, 2|4, k), see `channel.DRAW_ROWS`
    prompt_llrs: Optional[np.ndarray]  # (B, blocks, n); None without a side channel
    warm: np.ndarray                   # (B, d) warm-start noise


def draw_batch(ctx: TrialContext, trial_ids: list[int]) -> TrialDraws:
    """Every trial's draws from its own stream: one `standard_normal` call per
    trial fills its row of one buffer, split in the order a lone trial draws
    them into z0, channel, prompt noise (real parts, then imaginary parts) and
    warm-start noise. The prompt's LLRs are computed once for the stacked
    noise. A GencommError here (seeding, framing) fails the whole batch."""
    states = trial_states(ctx.cfg.master_seed, ctx.axis_index, trial_ids)
    coded = (None if ctx.side_code is None
             else sidechannel.prompt_codeword(ctx.cfg.prompt, ctx.side_code))
    d, rows, k = ctx.world.dim, DRAW_ROWS[ctx.cfg.channel.kind], ctx.codec_cfg.k
    cuts = np.cumsum([d, rows * k, 0 if coded is None else coded.size])
    buf = np.empty((len(trial_ids), cuts[-1] + d))
    rng = np.random.Generator(np.random.PCG64(0))
    full = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {}}
    for row, (full["state"]["state"], full["state"]["inc"]) in zip(buf, states):
        rng.bit_generator.state = full  # read, not kept, so one dict serves every row
        rng.standard_normal(out=row)
    prior, chan, noise, warm = np.split(buf, cuts, axis=1)
    llrs = None if coded is None else sidechannel.transmit_prompt(
        ctx.cfg.prompt, ctx.side_snr_db, noise, ctx.side_code)
    return TrialDraws(prior, chan.reshape(-1, rows, k), llrs, warm)


def transmit_latents(
    ctx: TrialContext, prior: np.ndarray, chan: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z0 from its prior draws, then codec, channel, equalizer and decode on
    (B, d) arrays. Returns (z0, z_c, ok); a row whose projection is all zero
    is not ok and its z_c is NaN."""
    z0 = ctx.world.mu0 + (ctx.prior_root @ prior[:, :, None])[:, :, 0]
    x, scales = ctx.codec.encode(z0)
    sigma2 = snr_to_sigma2(ctx.snr_db)
    y_c, h = apply_channel(pack_complex(x), chan,
                           ChannelConfig(ctx.cfg.channel.kind, ctx.snr_db))
    z_c = ctx.codec.decode(mmse_equalize(y_c, h, sigma2), sigma2, scales)
    return z0, z_c, ~np.isnan(scales)


def _failed_trial(ctx: TrialContext, trial_id: int, exc: GencommError) -> RunResult:
    """An error row: NaN metrics and a single-line, comma-free note."""
    nan = math.nan
    note = " ".join(f"{type(exc).__name__}: {exc}".replace(",", ";").split())
    return RunResult(ctx.axis_index, trial_id, ctx.snr_db, cbr(ctx.codec_cfg),
                     ctx.sampler_cfg.warm_start_step, ctx.codec_cfg.k, 0,
                     nan, nan, nan, nan, nan, False, 0.0, note)


def run_trials(ctx: TrialContext, trial_ids: list[int]) -> TrialRows:
    """Run a batch of one sweep point's trials, each stage once on all stacked
    rows; row r is trial_ids[r] from draw to result. `errors[r]` is row r's first
    GencommError: a draw error fails every row, a zero-power projection fails
    its row, a sampler error fails its prompt group. Each error-free row's wall
    time is an equal share of the batch's."""
    cfg, n = ctx.cfg, len(trial_ids)
    start = time.perf_counter()
    try:
        draws = draw_batch(ctx, trial_ids)
    except GencommError as exc:
        empty = np.empty((0, ctx.world.dim))
        return TrialRows([_failed_trial(ctx, t, exc) for t in trial_ids], empty, empty,
                         [exc] * n, np.empty((len(_AGGREGATE_FIELDS), 0)))
    z0, z_c, ok = transmit_latents(ctx, draws.prior, draws.channel)
    errors: list[Optional[GencommError]] = [
        None if row_ok else NormalizationError(ZERO_POWER) for row_ok in ok.tolist()]

    k_o, prompt_ok, prompts = [0] * n, [True] * n, [cfg.prompt] * n
    if ctx.side_code is not None:
        reports = sidechannel.receive_prompts(draws.prompt_llrs, ctx.side_code, cfg.bp_iters)
        k_o, prompt_ok = [r.k_o for r in reports], [r.ok for r in reports]
        prompts = [r.decoded for r in reports]  # None on failure -> unconditional sampling

    # One sampler run per group of rows that share a received prompt (one group
    # if the predictor ignores it).
    blind = not getattr(ctx.predictor, "uses_prompt", True)
    groups: dict = {}
    for r, prompt in enumerate(prompts):
        if errors[r] is None:
            groups.setdefault(None if blind else prompt, []).append(r)
    z0_hat = np.full_like(z_c, np.nan)
    for prompt, rows in groups.items():
        try:
            z0_hat[rows], _ = sample_batch(z_c[rows], ctx.predictor, prompt, ctx.sampler_cfg,
                                           ctx.sched, draws.warm[rows])
        except GencommError as exc:
            for r in rows:
                errors[r] = exc

    m_coarse, m_refined = mse(z0, z_c).tolist(), mse(z0, z0_hat).tolist()
    p_coarse, p_refined = ([psnr(m, cfg.peak) if e is None else math.nan
                            for m, e in zip(col, errors)] for col in (m_coarse, m_refined))
    shared = (time.perf_counter() - start) / max(n, 1)
    # RunResult's columns from snr_db on (`_AGGREGATE_FIELDS`), each a list or one shared value.
    columns = (ctx.snr_db, cbr(ctx.codec_cfg), ctx.sampler_cfg.warm_start_step, ctx.codec_cfg.k,
               k_o, m_coarse, m_refined, p_coarse, p_refined, math.nan, prompt_ok, shared)
    out = list(map(RunResult, repeat(ctx.axis_index), trial_ids,
                   *(c if isinstance(c, list) else repeat(c) for c in columns)))
    for r, exc in enumerate(errors):
        if exc is not None:
            out[r] = _failed_trial(ctx, trial_ids[r], exc)
    table = np.empty((len(columns), n))
    for j, col in enumerate(columns):
        table[j] = col
    live = np.array([e is None for e in errors], dtype=bool)
    return TrialRows(out, z0[live], z0_hat[live], errors, table[:, live])


def run_trial(ctx: TrialContext, trial_id: int) -> TrialOutput:
    """One full transmission + refinement; deterministic per (seed, ids).
    The row's error is raised."""
    (result,), z0, z0_hat, (error,), _ = run_trials(ctx, [trial_id])
    if error is not None:
        raise error
    return TrialOutput(result=result, z0=z0[0], z0_hat=z0_hat[0])


def _axis_points(cfg: ExperimentConfig) -> list[tuple[int, float, CodecConfig]]:
    """(axis index, snr, codec config) per sweep point."""
    if cfg.sweep_axis == "snr":
        return [(i, v, cfg.codec) for i, v in enumerate(cfg.snr_points)]
    if cfg.sweep_axis == "cbr":
        points = []
        source_dims = cfg.codec.channels * cfg.codec.height * cfg.codec.width
        for i, target in enumerate(cfg.cbr_points):
            # Clamp before rounding: a huge finite target has no int.
            k = max(1, int(round(min(target * source_dims, cfg.codec.k_prime))))
            points.append((i, cfg.channel.snr_db, replace(cfg.codec, k=k)))
        return points
    return [(0, cfg.channel.snr_db, cfg.codec)]


_RESULT_FIELDS = [f.name for f in fields(RunResult)]
_AGGREGATE_FIELDS = tuple(_RESULT_FIELDS[2:-1])  # snr_db through wall_time


def sweep(cfg: ExperimentConfig, threads: int = 1) -> tuple[list[RunResult], list[dict]]:
    """Run the full trial grid; returns (per-trial rows, aggregate rows).

    Each sweep point runs as batches of `run_trials`. `threads` is accepted
    for compatibility and changes nothing. A failing trial is recorded as a
    row with NaN metrics and an error note.
    """
    all_rows: list[RunResult] = []
    aggregates: list[dict] = []
    ctx = None
    for axis_index, snr_db, codec_cfg in _axis_points(cfg):
        ctx = build_context(cfg, axis_index, snr_db, codec_cfg, ctx)
        ids = list(range(cfg.trials))
        batches = [run_trials(ctx, ids[lo : lo + TRIALS_PER_BATCH])
                   for lo in range(0, len(ids), TRIALS_PER_BATCH)]
        rows = [r for b in batches for r in b.rows]
        table = np.concatenate([b.columns for b in batches], axis=1).T
        z0 = np.concatenate([b.z0 for b in batches])
        if len(z0) >= ctx.world.dim + 1:
            fg = frechet_gauss(z0, np.concatenate([b.z0_hat for b in batches]))
            table[:, _AGGREGATE_FIELDS.index("frechet_gauss")] = fg
            for r in rows:
                if not r.error:
                    r.frechet_gauss = fg
        all_rows.extend(rows)
        aggregates.extend(_aggregate(table, len(rows), axis_index))
    return all_rows, aggregates


def _aggregate(table: np.ndarray, n_trials: int, axis_index: int) -> list[dict]:
    """A point's mean and std rows from `table`, the (rows, `_AGGREGATE_FIELDS`)
    values of its error-free rows out of `n_trials`."""
    fns = {"mean": np.mean, "std": np.std}
    stats = dict.fromkeys(fns, [math.nan] * len(_AGGREGATE_FIELDS))
    if len(table):
        # Fortran order: each column is contiguous, so its mean and std are a list's.
        table = np.asfortranarray(table, np.float64)
        # The snr_db column of a noiseless point is +inf; its std is NaN.
        with np.errstate(invalid="ignore", over="ignore"):
            stats = {kind: fn(table, axis=0) for kind, fn in fns.items()}
    return [{"kind": kind, "axis_index": axis_index, "n_trials": n_trials,
             "n_failed": n_trials - len(table), **dict(zip(_AGGREGATE_FIELDS, map(float, values)))}
            for kind, values in stats.items()]


# ---------------------------------------------------------------------------
# Result persistence

# wall_time is written with --timings only, after the error.
_TRIAL_COLUMNS = ["kind", *_RESULT_FIELDS[:-2], "error"]
_TEXT_COLUMNS = ("kind", "error")
_INT_COLUMNS = {"axis_index", "trial_id", "warm_start", "k", "k_o", "n_trials",
                "n_failed"}
# The cells a sweep point's trial rows share.
_POINT_COLUMNS = ("axis_index", "snr_db", "cbr", "warm_start", "k", "frechet_gauss")
# A trial row's cells as `_fmt` writes them, with prompt_ok passed as "true"/"false". A
# point's cells are filled in first; the row's own cells are left as "%%" for the second.
_TRIAL_ROW = "trial," + ",".join(
    ("%" if c in _POINT_COLUMNS else "%%")
    + ("d" if c in _INT_COLUMNS else "s" if c in ("prompt_ok", "error") else ".17g")
    for c in _TRIAL_COLUMNS[1:])


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
        def cells(rec: dict) -> dict:  # strict JSON: a non-finite float as its CSV cell
            return {k: _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v
                    for k, v in rec.items() if include_timing or k != "wall_time"}
        payload = {
            "metadata": {k: _fmt(v) for k, v in metadata.items()},
            "trials": [cells({"kind": "trial", **asdict(r)}) for r in rows],
            "aggregates": [cells(rec) for rec in aggregates],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, allow_nan=False)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ConfigurationError(f"unknown result format {fmt!r}")
    columns = _TRIAL_COLUMNS + (["wall_time"] if include_timing else [])
    agg_columns = ["kind", "axis_index", "n_trials", "n_failed", *agg_fields]
    lines = [f"# {key} = {_fmt(value)}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    point_of = attrgetter(*_POINT_COLUMNS)
    own_of = attrgetter(*(c for c in _TRIAL_COLUMNS[1:-2] if c not in _POINT_COLUMNS))
    key = template = None
    for r in rows:
        # A point's cells are formatted once per run of rows holding the same objects,
        # matched by identity: 0.0 == -0.0, but their cells differ.
        point = point_of(r)
        if key is None or not all(map(is_, point, key)):
            key, template = point, (_TRIAL_ROW + (",%%.17g" if include_timing else "")) % point
        cells = (*own_of(r), "true" if r.prompt_ok else "false", r.error)
        lines.append(template % (cells + (r.wall_time,) if include_timing else cells))
    lines.append(",".join(agg_columns))
    for rec in aggregates:
        lines.append(",".join(_fmt(rec[c]) for c in agg_columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_results(path, fmt: str = "csv") -> tuple[dict, list[dict], list[dict]]:
    """Parse a result file back into (metadata, trial rows, aggregate rows)."""
    if fmt == "json":
        with open(path) as fh:
            payload = json.load(fh)
        numeric = [[{k: float(v) if isinstance(v, str) and k not in _TEXT_COLUMNS else v
                     for k, v in rec.items()} for rec in payload[part]]
                   for part in ("trials", "aggregates")]
        return payload["metadata"], *numeric
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
    if column in _TEXT_COLUMNS:
        return cell
    if cell in ("true", "false"):
        return cell == "true"
    if column in _INT_COLUMNS and cell != "nan":  # an all-failed point's means are NaN
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
    d, rows, k = ctx.world.dim, DRAW_ROWS[ctx.cfg.channel.kind], ctx.codec_cfg.k
    draws = rng.standard_normal((n, d + rows * k))  # per sample: z0, then channel draws
    z0s, z_cs, ok = transmit_latents(ctx, draws[:, :d], draws[:, d:].reshape(n, rows, k))
    if not ok.all():
        raise NormalizationError(ZERO_POWER)
    spread = math.sqrt(ctx.world.sigma0[0, 0])
    quantiles = 0.5 * (1.0 + np.vectorize(math.erf)((z0s[:, 0] - ctx.world.mu0[0])
                                                    / (spread * math.sqrt(2.0))))
    labels = np.clip((quantiles * n_classes).astype(np.int64), 0, n_classes - 1)
    return z0s, z_cs, labels
