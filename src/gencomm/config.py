"""Experiment configuration: dataclasses plus the key/value config-file
format (INI sections, documented below, versioned by `spec_version`).

Sections and keys, all optional with the defaults shown:

    [experiment]
    spec_version = 1
    master_seed = 7               ; in [0, inf)
    trials = 100                  ; in [1, 100000]; frechet_gauss bias ~78/trials
    predictor = analytic          ; analytic | mlp
    sweep_axis = snr              ; snr | cbr | none; the CLI command sets it
    snr_points = 1 4 7 10 13      ; in [-50, 60] or inf; dB
    cbr_points = 0.002 0.0033 0.0059 0.011  ; in (0, inf); above k_prime/(C*H*W): k = k_prime
    prompt = class:3              ; one line, at most 512 UTF-8 bytes; empty -> unconditional
    peak = 1.0                    ; in [1e-6, 1e6]; dynamic range of the PSNR transform
    mlp_checkpoint =              ; path; empty -> fresh seeded model

    [channel]
    kind = awgn                   ; awgn | rayleigh
    snr_db = 10                   ; in [-50, 60] or inf; dB

    [codec]
    k = 2
    k_prime = 8                   ; in [1, 512]
    height = 32
    width = 32
    channels = 1
    seed = 99                     ; in [0, inf)
    tikhonov_lambda = 0.0         ; in [0, inf)

    [schedule]
    steps = 1000                  ; in [1, 100000]
    beta_min = 1e-4
    beta_max = 0.02
    kind = linear                 ; linear | scaled_linear

    [sampler]
    steps = 5                     ; in [1, 1000]
    warm_start = auto             ; auto -> from the CBR table, or an integer
    guidance = 3.0                ; in [0, 100]

    [world]
    prior_var = 1.0               ; in [1e-6, 1e6]; variance of each source coordinate
    prior_ar1_rho = 0.9           ; in [0, 1); source correlation; 0 -> isotropic prior

    [sidechannel]
    enabled = true
    snr_db = auto                 ; in [-50, 60] or inf; dB; auto -> same as image channel
    ldpc_n = 1024                 ; in (-inf, 8192]; a built code needs it even and >= 12
    ldpc_seed = 7070              ; in [0, inf)
    bp_iters = 50                 ; in [0, 1000]

Unknown sections or keys are rejected. `; in` gives the values a key admits,
each also in its `_SCHEMA` row: `[` and `]` include a bound, `(` and `)`
exclude it, and an SNR of inf dB is a noiseless channel. The upper limits of
the sizes that set an allocation or a loop, and the prompt's, keep a 1024-trial
sweep point (a `budget.cfg` sweep, for `trials`) below about 0.6 GB. Values are
literal (no `%` interpolation). The guidance limit keeps a guided MLP
refinement finite (1e300 overflows it). At 16 latent dims, a `frechet_gauss`
cell of true value W2^2 needs about 780/W2^2 trials to keep its bias under 10%.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Optional

from .channel import ChannelConfig
from .errors import ConfigurationError
from .jscc import CodecConfig
from . import sampler, schedule, sidechannel

SPEC_VERSION = 1
MAX_PROMPT_BYTES = 512  # its coded length sets the side channel's draws and LLRs

PREDICTOR_CHOICES = ("analytic", "mlp")
SWEEP_AXES = ("snr", "cbr", "none")


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int = 7
    trials: int = 100
    predictor: str = "analytic"
    sweep_axis: str = "snr"
    snr_points: tuple[float, ...] = (1.0, 4.0, 7.0, 10.0, 13.0)
    cbr_points: tuple[float, ...] = (0.002, 0.0033, 0.0059, 0.011)
    prompt: Optional[str] = "class:3"
    peak: float = 1.0
    mlp_checkpoint: Optional[str] = None

    channel: ChannelConfig = field(default_factory=ChannelConfig)
    codec: CodecConfig = field(default_factory=lambda: CodecConfig(k_prime=8, k=2,
                                                                   height=32, width=32,
                                                                   channels=1))
    codec_seed: int = 99
    tikhonov_lambda: float = 0.0

    schedule_steps: int = schedule.DEFAULT_T
    beta_min: float = schedule.DEFAULT_BETA_MIN
    beta_max: float = schedule.DEFAULT_BETA_MAX
    schedule_kind: str = "linear"

    sampler_steps: int = 5
    warm_start: Optional[int] = None   # None -> chosen from the CBR table
    guidance: float = sampler.DEFAULT_GUIDANCE

    prior_var: float = 1.0
    prior_ar1_rho: float = 0.9

    sidechannel_enabled: bool = True
    sidechannel_snr_db: Optional[float] = None  # None -> image-channel SNR
    ldpc_n: int = sidechannel.DEFAULT_LDPC_N
    ldpc_seed: int = sidechannel.DEFAULT_LDPC_SEED
    bp_iters: int = sidechannel.DEFAULT_BP_ITERS

    def __post_init__(self):
        for (section, key), (name, _, *admits) in _SCHEMA.items():
            value = attrgetter(name)(self) if admits else ()
            for v in value if isinstance(value, tuple) else [value]:
                if v is not None and not _admits(admits[0], v):
                    raise ConfigurationError(f"[{section}] {key} must be in {admits[0]}, got {v}")
        if self.prompt is not None and ("\n" in self.prompt or "\r" in self.prompt):
            raise ConfigurationError(f"prompt must be one line, got {self.prompt!r}")
        if self.prompt is not None and len(self.prompt.encode("utf-8")) > MAX_PROMPT_BYTES:
            raise ConfigurationError(f"prompt must be at most {MAX_PROMPT_BYTES} UTF-8 bytes, "
                                     f"got {len(self.prompt.encode('utf-8'))}")
        if self.predictor not in PREDICTOR_CHOICES:
            raise ConfigurationError(f"predictor must be one of {PREDICTOR_CHOICES}")
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigurationError(f"sweep_axis must be one of {SWEEP_AXES}")
        if self.sweep_axis == "snr" and not self.snr_points:
            raise ConfigurationError("snr sweep requires snr_points")
        if self.sweep_axis == "cbr" and not self.cbr_points:
            raise ConfigurationError("cbr sweep requires cbr_points")
        schedule.check_schedule(self.schedule_steps, self.beta_min, self.beta_max,
                                self.schedule_kind)
        # An auto warm start depends on each point's CBR, so build_context checks it.
        warm = self.sampler_steps if self.warm_start is None else self.warm_start
        sampler.SamplerConfig(self.sampler_steps, warm, self.guidance)
        if self.warm_start is not None and warm > self.schedule_steps:
            raise ConfigurationError(f"warm_start ({warm}) exceeds schedule steps "
                                     f"({self.schedule_steps})")


def _admits(values: str, v) -> bool:
    """Whether `values`, an interval as the module docstring writes it (`[0, 1)`,
    `(-inf, 8192]`), optionally followed by ` or inf`, holds `v`; no NaN is in one."""
    interval, _, extra = values.partition(" or ")
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    return ((bool(extra) and v == float(extra))
            or ((low < v if interval[0] == "(" else low <= v)
                and (v < high if interval[-1] == ")" else v <= high)))


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected true or false")


def _or_auto(parse):
    """`auto` -> None, anything else through `parse`."""
    return lambda raw: None if raw.strip() == "auto" else parse(raw)


def _text_or_none(raw: str) -> Optional[str]:
    return raw if raw.strip() else None


# (section, key) -> (ExperimentConfig field, parser[, the values it admits, as in
# the module docstring]). A dotted field names an attribute of a nested config;
# `spec_version` is checked, not stored.
_SNR = "[-50, 60] or inf"
_SCHEMA = {
    ("experiment", "spec_version"): ("spec_version", int),
    ("experiment", "master_seed"): ("master_seed", int, "[0, inf)"),
    ("experiment", "trials"): ("trials", int, "[1, 100000]"),
    ("experiment", "predictor"): ("predictor", str),
    ("experiment", "sweep_axis"): ("sweep_axis", str),
    ("experiment", "snr_points"): ("snr_points", _floats, _SNR),
    ("experiment", "cbr_points"): ("cbr_points", _floats, "(0, inf)"),
    ("experiment", "prompt"): ("prompt", _text_or_none),
    ("experiment", "peak"): ("peak", float, "[1e-6, 1e6]"),
    ("experiment", "mlp_checkpoint"): ("mlp_checkpoint", _text_or_none),
    ("channel", "kind"): ("channel.kind", str),
    ("channel", "snr_db"): ("channel.snr_db", float, _SNR),
    ("codec", "k"): ("codec.k", int),
    ("codec", "k_prime"): ("codec.k_prime", int, "[1, 512]"),
    ("codec", "height"): ("codec.height", int),
    ("codec", "width"): ("codec.width", int),
    ("codec", "channels"): ("codec.channels", int),
    ("codec", "seed"): ("codec_seed", int, "[0, inf)"),
    ("codec", "tikhonov_lambda"): ("tikhonov_lambda", float, "[0, inf)"),
    ("schedule", "steps"): ("schedule_steps", int, "[1, 100000]"),
    ("schedule", "beta_min"): ("beta_min", float),
    ("schedule", "beta_max"): ("beta_max", float),
    ("schedule", "kind"): ("schedule_kind", str),
    ("sampler", "steps"): ("sampler_steps", int, "[1, 1000]"),
    ("sampler", "warm_start"): ("warm_start", _or_auto(int)),
    ("sampler", "guidance"): ("guidance", float, "[0, 100]"),
    ("world", "prior_var"): ("prior_var", float, "[1e-6, 1e6]"),
    ("world", "prior_ar1_rho"): ("prior_ar1_rho", float, "[0, 1)"),
    ("sidechannel", "enabled"): ("sidechannel_enabled", _bool),
    ("sidechannel", "snr_db"): ("sidechannel_snr_db", _or_auto(float), _SNR),
    ("sidechannel", "ldpc_n"): ("ldpc_n", int, "(-inf, 8192]"),
    ("sidechannel", "ldpc_seed"): ("ldpc_seed", int, "[0, inf)"),
    ("sidechannel", "bp_iters"): ("bp_iters", int, "[0, 1000]"),
}
_SECTIONS = {section for section, _ in _SCHEMA}


def load_config(path, **overrides) -> ExperimentConfig:
    """The config a file describes, with the top-level `overrides` applied before
    it is validated; keys neither sets keep the ExperimentConfig defaults."""
    parser = configparser.ConfigParser(interpolation=None)  # every value is literal
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    top: dict = {}
    nested: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _SCHEMA:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
            name, parse, *_ = _SCHEMA[section, key]
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc
            owner, _, attr = name.rpartition(".")
            (nested.setdefault(owner, {}) if owner else top)[attr] = value

    version = top.pop("spec_version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise ConfigurationError(f"unsupported spec_version {version}")
    defaults = ExperimentConfig()
    for owner, values in nested.items():
        top[owner] = replace(getattr(defaults, owner), **values)
    return ExperimentConfig(**{**top, **overrides})


def config_metadata(cfg: ExperimentConfig) -> dict:
    """Flat key/value view of a config plus the fixed convention flags,
    embedded in every result file."""
    meta = {
        "spec_version": SPEC_VERSION,
        "master_seed": cfg.master_seed,
        "trials": cfg.trials,
        "predictor": cfg.predictor,
        # Only when set, so a result file of a fresh seeded model keeps its bytes.
        **({"mlp_checkpoint": cfg.mlp_checkpoint} if cfg.mlp_checkpoint is not None else {}),
        "sweep_axis": cfg.sweep_axis,
        "snr_points": " ".join(repr(v) for v in cfg.snr_points),
        "cbr_points": " ".join(repr(v) for v in cfg.cbr_points),
        "prompt": cfg.prompt if cfg.prompt is not None else "",
        "peak": cfg.peak,
        "channel_kind": cfg.channel.kind,
        "channel_snr_db": cfg.channel.snr_db,
        "codec_k": cfg.codec.k,
        "codec_k_prime": cfg.codec.k_prime,
        "codec_dims": f"{cfg.codec.channels}x{cfg.codec.height}x{cfg.codec.width}",
        "codec_seed": cfg.codec_seed,
        "tikhonov_lambda": cfg.tikhonov_lambda,
        "schedule": f"{cfg.schedule_kind} T={cfg.schedule_steps} "
                    f"beta=[{cfg.beta_min},{cfg.beta_max}]",
        "sampler_steps": cfg.sampler_steps,
        "warm_start": cfg.warm_start if cfg.warm_start is not None else "auto",
        "guidance": cfg.guidance,
        "prior_var": cfg.prior_var,
        "prior_ar1_rho": cfg.prior_ar1_rho,
        "sidechannel": cfg.sidechannel_enabled,
        "sidechannel_snr_db": (cfg.sidechannel_snr_db
                               if cfg.sidechannel_snr_db is not None else "auto"),
        "ldpc": f"(3,6) n={cfg.ldpc_n} seed={cfg.ldpc_seed} iters={cfg.bp_iters}",
        # Fixed conventions, recorded so result files are self-describing.
        "snr_convention": "unit power per complex symbol; sigma2 = total complex noise",
        "cbr_formula": "k / (C*H*W); side-channel uses k_o excluded",
        "csi": "perfect at receiver",
        "sidechannel_modulation": "BPSK on I and Q, 2 coded bits per complex use",
        "crc": "CRC-32 poly 0xEDB88320",
    }
    return meta
