"""Diffusion noise schedule and the closed-form reverse-update coefficients.

The schedule stores beta_t and the running product alpha_bar_t of
alpha_t = 1 - beta_t for t in 0..T, with the convention alpha_bar_0 = 1 so
that the final reverse update lands on an exact clean state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

DEFAULT_T = 1000
DEFAULT_BETA_MIN = 1e-4
DEFAULT_BETA_MAX = 0.02

SCHEDULE_KINDS = ("linear", "scaled_linear")


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance schedule tables.

    betas[i] is beta_{i+1} (1-based step i+1); alpha_bars has length T+1 and
    alpha_bars[t] is the cumulative product up to step t, alpha_bars[0] == 1.
    """

    betas: np.ndarray
    alpha_bars: np.ndarray = field(repr=False)

    @property
    def T(self) -> int:
        return len(self.betas)

    def alpha_bar(self, t: int) -> float:
        if not 0 <= t <= self.T:
            raise DomainError(f"step index {t} outside [0, {self.T}]")
        return float(self.alpha_bars[t])

    def __post_init__(self):
        if self.betas.ndim != 1 or len(self.betas) < 1:
            raise ConfigurationError("betas must be a non-empty 1-d array")
        if not np.all((self.betas > 0.0) & (self.betas < 1.0)):
            raise ConfigurationError("every beta must lie in (0, 1)")
        if self.alpha_bars[0] != 1.0:
            raise ConfigurationError("alpha_bar at step 0 must be exactly 1")
        if not np.all(np.diff(self.alpha_bars) < 0.0):
            raise ConfigurationError("alpha_bar must be strictly decreasing")


def check_schedule(T: int, beta_min: float, beta_max: float, kind: str) -> None:
    """Raise ConfigurationError for the arguments `build_schedule` rejects."""
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ConfigurationError(f"need 0 < beta_min <= beta_max < 1, got [{beta_min}, {beta_max}]")
    if kind not in SCHEDULE_KINDS:
        raise ConfigurationError(f"schedule kind must be one of {SCHEDULE_KINDS}, got {kind!r}")


def build_schedule(
    T: int = DEFAULT_T,
    beta_min: float = DEFAULT_BETA_MIN,
    beta_max: float = DEFAULT_BETA_MAX,
    kind: str = "linear",
) -> NoiseSchedule:
    """Build a schedule; `linear` interpolates beta uniformly, `scaled_linear`
    interpolates sqrt(beta) uniformly and squares."""
    check_schedule(T, beta_min, beta_max, kind)
    if kind == "linear":
        betas = np.linspace(beta_min, beta_max, T, dtype=np.float64)
    else:
        betas = np.linspace(math.sqrt(beta_min), math.sqrt(beta_max), T) ** 2
    alpha_bars = np.empty(T + 1, dtype=np.float64)
    alpha_bars[0] = 1.0
    alpha_bars[1:] = np.cumprod(1.0 - betas)
    return NoiseSchedule(betas=betas, alpha_bars=alpha_bars)


def residual_weight(warm_step: int, sched: NoiseSchedule) -> float:
    """Weight applied to the structured decode residual in the forward
    process: sqrt(abar)/sqrt(1-abar) at the warm-start step. Constant over
    the whole trajectory."""
    if warm_step < 1:
        raise DomainError(
            f"warm-start step must be >= 1 (alpha_bar=1 at step 0), got {warm_step}"
        )
    ab = sched.alpha_bar(warm_step)
    return math.sqrt(ab) / math.sqrt(1.0 - ab)


def inversion_coeffs(t: int, gamma: float, sched: NoiseSchedule) -> tuple[float, float]:
    """(sqrt(1-abar_t), sqrt(abar_t) - sqrt(1-abar_t)*gamma): the noise scale and the
    clean-latent denominator of inverting the residual forward process at step t."""
    root = math.sqrt(1.0 - sched.alpha_bar(t))
    return root, math.sqrt(sched.alpha_bar(t)) - root * gamma


def update_coeffs(t_prev: int, t: int, sched: NoiseSchedule) -> tuple[float, float]:
    """Coefficients (a, b) of one deterministic reverse step t -> t_prev:
    z_prev = a * z_t + b * z0_hat. `a` scales the current state, `b` the
    predicted clean latent. alpha_bar strictly decreases from alpha_bar(0) = 1,
    so t > t_prev >= 0 gives alpha_bar(t) < 1."""
    if not 0 <= t_prev < t <= sched.T:
        raise DomainError(f"need 0 <= t_prev < t <= T, got ({t_prev}, {t})")
    ab_prev, ab_t = sched.alpha_bar(t_prev), sched.alpha_bar(t)
    root = math.sqrt(1.0 - ab_t)
    a = math.sqrt(1.0 - ab_prev) / root
    b = math.sqrt(ab_prev) - math.sqrt(ab_t * (1.0 - ab_prev)) / root
    return a, b
