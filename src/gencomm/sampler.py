"""Warm-start residual-noise diffusion sampling.

The reverse process is initialized from a noised version of the decoded
latent instead of pure noise, the decode residual (z_c - z0) is folded into
the forward process with a constant weight, and each deterministic reverse
step is z <- a * z + b * z0_hat with closed-form (a, b).

The sampler works on a (B, d) batch of decoded latents and calls the
predictor's one method, `predict(z_t, z_c, prompt, t)`, once per step (twice
under guidance) with the whole batch, and not at the warm-start step, whose
inversion ignores the prediction. A single latent is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from .errors import ConfigurationError, ContractError, DomainError
from .schedule import NoiseSchedule, inversion_coeffs, residual_weight, update_coeffs

DEFAULT_GUIDANCE = 3.0
# An inversion denominator within this of 0 is singular and `predict_z0` returns z_c
# there: the warm-start step's cancels to a rounding residual (~1e-16), and a steep
# schedule's steps fall as low as 1e-121 (constant beta = 0.5, T = 1000).
_SINGULAR_TOL = 1e-8


class EpsilonPredictor(Protocol):
    """Behavioral contract of a noise predictor.

    `predict` maps (B, d) arrays `z_t` and `z_c` at step `t` to a (B, d)
    noise estimate, and each row must get the bits it would get in a batch
    of one. Must be deterministic: identical arguments give identical
    outputs. `prompt` is an opaque conditioning label shared by the batch;
    None means unconditional. A predictor whose output never depends on the
    prompt may set the class attribute `uses_prompt = False`; the sampler
    then skips the guidance pass.
    """

    def predict(
        self,
        z_t: np.ndarray,
        z_c: np.ndarray,
        prompt: Optional[object],
        t: int,
    ) -> np.ndarray: ...


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 5                      # denoising steps N
    warm_start_step: int = 500          # step index the trajectory starts from
    guidance: float = DEFAULT_GUIDANCE  # text-guidance scale omega

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.warm_start_step < self.steps:
            raise ConfigurationError(
                f"warm_start_step ({self.warm_start_step}) must be >= steps ({self.steps})"
            )
        if not self.guidance >= 0.0:  # written so that NaN fails too
            raise ConfigurationError(f"guidance must be >= 0, got {self.guidance}")


@dataclass
class SampleStep:
    t: int
    z_t: np.ndarray
    z0_hat: np.ndarray
    eps_hat: Optional[np.ndarray]  # None at a singular step that called no predictor


@dataclass
class SampleTrace:
    steps: list[SampleStep] = field(default_factory=list)


def warm_start(
    z_c: np.ndarray, warm_step: int, sched: NoiseSchedule, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Noise the decoded latent up to the warm-start step.

    Returns (initial state, the Gaussian draw used) so tests can observe the
    exact noise realization.
    """
    eps = rng.standard_normal(z_c.shape)
    gamma = residual_weight(warm_step, sched)
    return residual_forward(z_c, z_c, warm_step, gamma, eps, sched), eps


def residual_forward(
    z0: np.ndarray,
    z_c: np.ndarray,
    t: int,
    gamma: float,
    eps: np.ndarray,
    sched: NoiseSchedule,
) -> np.ndarray:
    """Forward process with the decode residual folded in, for one step `t` or
    one step per row (an array shaped like z0 without its last axis):
    z_t = sqrt(abar_t) z0 + sqrt(1-abar_t) (gamma * (z_c - z0) + eps)."""
    if z0.shape != z_c.shape or z0.shape != eps.shape or np.shape(t) not in ((), z0.shape[:-1]):
        raise ContractError(f"shape mismatch: z0 {z0.shape}, z_c {z_c.shape}, "
                            f"eps {eps.shape}, t {np.shape(t)}")
    steps = np.asarray(t)
    if steps.min(initial=0) < 0 or steps.max(initial=0) > sched.T:
        raise DomainError(f"step index {t} outside [0, {sched.T}]")
    ab = sched.alpha_bars[steps][..., None]
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * (gamma * (z_c - z0) + eps)


def _inversion(t: int, gamma: float, sched: NoiseSchedule):
    """`inversion_coeffs` at step t, or None where its denominator is within
    `_SINGULAR_TOL` of 0."""
    root, denom = inversion_coeffs(t, gamma, sched)
    return None if abs(denom) <= _SINGULAR_TOL else (root, denom)


def predict_z0(
    z_t: np.ndarray,
    z_c: np.ndarray,
    eps_hat: Optional[np.ndarray],
    t: int,
    gamma: float,
    sched: NoiseSchedule,
) -> np.ndarray:
    """Invert the residual forward process for the clean latent.

    At the warm-start step the denominator sqrt(abar) - sqrt(1-abar)*gamma
    cancels exactly, so below `_SINGULAR_TOL` the decoded latent itself is
    returned: there the state is the decoded latent plus pure noise and carries
    no further information about z0; `eps_hat` is not read there.
    """
    coeffs = _inversion(t, gamma, sched)
    if coeffs is None:
        return z_c.copy()
    root, denom = coeffs
    return (z_t - root * (gamma * z_c + eps_hat)) / denom


def cfg_combine(eps_uncond: np.ndarray, eps_cond: np.ndarray, omega: float) -> np.ndarray:
    """Classifier-free guidance blend: eps_u + omega * (eps_c - eps_u).

    omega of exactly 0 or 1 short-circuits so the endpoint identities hold
    bitwise, not just to rounding."""
    if eps_uncond.shape != eps_cond.shape:
        raise ContractError(
            f"shape mismatch: {eps_uncond.shape} vs {eps_cond.shape}"
        )
    if omega == 1.0:
        return eps_cond.copy()
    if omega == 0.0:
        return eps_uncond.copy()
    return eps_uncond + omega * (eps_cond - eps_uncond)


def step_grid(warm_step: int, steps: int) -> list[int]:
    """Descending step indices [t_N .. t_1] with t_i = round(warm_step*i/steps).

    t_0 = 0 is implicit. The nominal decrement warm_step/steps is non-integral
    in general, so indices are rounded; coinciding grid points are rejected.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    grid = [int(math.floor(warm_step * i / steps + 0.5)) for i in range(steps, 0, -1)]
    if any(grid[j] <= grid[j + 1] for j in range(len(grid) - 1)) or grid[-1] <= 0:
        raise ConfigurationError(
            f"step grid {grid} is not strictly decreasing toward 0 "
            f"(warm_step={warm_step}, steps={steps})"
        )
    return grid


def sampler_step(
    z_t: np.ndarray,
    z0_hat: np.ndarray,
    t_prev: int,
    t: int,
    sched: NoiseSchedule,
) -> np.ndarray:
    """One deterministic reverse update t -> t_prev."""
    a, b = update_coeffs(t_prev, t, sched)
    return a * z_t + b * z0_hat


def sample_batch(
    z_c: np.ndarray,
    predictor: EpsilonPredictor,
    prompt: Optional[object],
    cfg: SamplerConfig,
    sched: NoiseSchedule,
    eps: np.ndarray,
) -> tuple[np.ndarray, SampleTrace]:
    """Run the full conditioned sampler on a (B, d) batch of decoded latents.

    `eps` (B, d) is each row's warm-start noise. Starts at the warm-start
    step, walks the rounded step grid down to 0 and returns the final
    clean-latent estimates together with a per-step trace of (B, d) arrays.
    The unconditional predictor pass is skipped when guidance == 1, no
    prompt is given, or the predictor ignores the prompt (`uses_prompt` is
    False): each reduces to the conditional prediction exactly. A singular
    step, whose inversion ignores the prediction, calls no predictor unless it
    is the only step (so that predictor errors still surface). Every update
    is elementwise, so each row gets exactly the bits of a batch of one.
    """
    if cfg.warm_start_step > sched.T:
        raise ConfigurationError(
            f"warm_start_step {cfg.warm_start_step} exceeds schedule T={sched.T}"
        )
    grid = step_grid(cfg.warm_start_step, cfg.steps)
    gamma = residual_weight(cfg.warm_start_step, sched)
    z = residual_forward(z_c, z_c, cfg.warm_start_step, gamma, eps, sched)

    guided = (prompt is not None and cfg.guidance != 1.0
              and getattr(predictor, "uses_prompt", True))
    trace = SampleTrace()
    for i, t in enumerate(grid):
        t_prev = grid[i + 1] if i + 1 < len(grid) else 0
        if len(grid) > 1 and _inversion(t, gamma, sched) is None:
            eps_hat = None
        else:
            eps_hat = predictor.predict(z, z_c, prompt, t)
            if guided:
                eps_uncond = predictor.predict(z, z_c, None, t)
                eps_hat = cfg_combine(eps_uncond, eps_hat, cfg.guidance)
        z0_hat = predict_z0(z, z_c, eps_hat, t, gamma, sched)
        trace.steps.append(SampleStep(t=t, z_t=z, z0_hat=z0_hat, eps_hat=eps_hat))
        z = sampler_step(z, z0_hat, t_prev, t, sched)
    return z, trace


def sample(
    z_c: np.ndarray,
    predictor: EpsilonPredictor,
    prompt: Optional[object],
    cfg: SamplerConfig,
    sched: NoiseSchedule,
    rng: np.random.Generator,
) -> tuple[np.ndarray, SampleTrace]:
    """`sample_batch` on one decoded latent, drawing its warm-start noise
    from `rng`; the trace holds that latent's rows."""
    eps = rng.standard_normal(z_c.shape)
    z, trace = sample_batch(z_c[None], predictor, prompt, cfg, sched, eps[None])
    steps = [SampleStep(s.t, s.z_t[0], s.z0_hat[0], s.eps_hat if s.eps_hat is None
                        else s.eps_hat[0]) for s in trace.steps]
    return z[0], SampleTrace(steps)
