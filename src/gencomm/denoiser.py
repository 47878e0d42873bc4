"""Noise predictors and their training.

Three predictor families implement the same behavioral contract as
`sampler.EpsilonPredictor`:

* AnalyticPredictor - exact conditional-mean predictor for a jointly
  Gaussian world (the verification oracle; it is Bayes-optimal for the
  squared-error noise-prediction objective and is never trained).
* ExactRecoveryOracle - test-only predictor that knows the true clean
  latent and answers with the noise estimate whose clean-latent inversion
  is exact.
* MlpDenoiser - a small trainable two-hidden-layer network with sinusoidal
  time embedding and a class-label prompt table including a learned null
  token, trained on the noise-prediction objective alone by plain gradient
  descent with reverse-mode gradients computed in-module.

Each has one method, `predict(z_t, z_c, prompt, t)`, over (B, d) arrays;
every row gets exactly the bits it would get in a batch of one. A single
latent is passed as a `[None]` row.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ContractError, RankError, TrainingError
from .metrics import psd_sqrt
from .schedule import NoiseSchedule

NULL_PROMPT = "<null>"

_CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Gaussian verification world


def _psd_solve_right(rhs: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rhs @ pinv(mat) for symmetric PSD mat.

    Compressed codecs give rank-deficient joint covariances (the observation
    noise lives in the projection's row space), where a plain solve silently
    produces garbage; the eigenvalue cutoff makes the degenerate directions
    contribute nothing instead.
    """
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"covariance eigendecomposition failed: {exc}") from exc
    cutoff = max(float(vals.max()), 1.0) * 1e-12
    inv_vals = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    out = (rhs @ vecs) * inv_vals @ vecs.T
    if not np.all(np.isfinite(out)):
        raise RankError("conditioning produced non-finite gains")
    return out


def _rayleigh_equalizer_stats(sigma2: float, order: int = 96) -> tuple[float, float, float]:
    """Moments of the per-symbol MMSE equalizer under unit-variance Rayleigh
    fading, via Gauss-Laguerre quadrature over |h|^2 ~ Exp(1).

    Returns (mean gain, gain variance, equalized noise variance per complex
    symbol)."""
    nodes, weights = np.polynomial.laguerre.laggauss(order)
    g = nodes / (nodes + sigma2)
    mean_gain = float(np.sum(weights * g))
    var_gain = float(np.sum(weights * g**2)) - mean_gain**2
    eq_noise = sigma2 * float(np.sum(weights * nodes / (nodes + sigma2) ** 2))
    return mean_gain, var_gain, eq_noise


@dataclass(frozen=True)
class GaussianWorld:
    """Joint law of (clean latent, decoded latent).

    z0 ~ N(mu0, sigma0) and z_c = obs_matrix @ z0 + xi with
    xi ~ N(0, obs_noise_cov). The observation model is built from a codec
    and channel configuration with a *fixed* nominal power-normalization
    scale, which keeps the pair exactly jointly Gaussian; the live pipeline
    normalizes per trial, so for the analytic predictor the world is exact
    under AWGN up to that scale approximation (and additionally uses a
    Gaussian-equivalent equalizer model under Rayleigh).
    """

    mu0: np.ndarray
    sigma0: np.ndarray
    obs_matrix: np.ndarray
    obs_noise_cov: np.ndarray
    nominal_scale: float = 1.0

    def __post_init__(self):
        d = len(self.mu0)
        for name, m in (("sigma0", self.sigma0), ("obs_matrix", self.obs_matrix),
                        ("obs_noise_cov", self.obs_noise_cov)):
            if m.shape != (d, d):
                raise ConfigurationError(f"{name} must be {d}x{d}, got {m.shape}")
        if not np.allclose(self.sigma0, self.sigma0.T, atol=1e-12):
            raise ConfigurationError("sigma0 must be symmetric")
        if np.linalg.eigvalsh(self.sigma0).min() < -1e-10:
            raise ConfigurationError("sigma0 must be positive semi-definite")

    @property
    def dim(self) -> int:
        return len(self.mu0)

    @classmethod
    def ar1(
        cls,
        codec,
        snr_db: float,
        kind: str = "awgn",
        prior_var: float = 1.0,
        rho: float = 0.9,
    ) -> "GaussianWorld":
        """Zero-mean correlated source prior sigma0[i,j] = prior_var * rho^|i-j|,
        observed through the projection codec + channel + MMSE equalizer +
        decode.

        Refinement only has something to recover when the prior carries
        structure the bandwidth-limited decode cannot: under an isotropic
        prior the orthonormal decode is already posterior-optimal on the
        observed subspace, so correlated priors are the reference setting.
        """
        if not 0.0 <= rho < 1.0:
            raise ConfigurationError(f"rho must be in [0, 1), got {rho}")
        d = codec.n_in
        idx = np.arange(d)
        sigma0 = prior_var * rho ** np.abs(idx[:, None] - idx[None, :])
        P = codec.projection
        k = P.shape[0] // 2
        sigma2 = 10.0 ** (-snr_db / 10.0)
        with np.errstate(all="ignore"):  # an overflow fails the check below
            sym_power = np.trace(P @ sigma0 @ P.T) / k
        if not 0.0 < sym_power < math.inf:
            raise ConfigurationError(f"prior gives transmit power {sym_power}")
        scale = 1.0 / math.sqrt(sym_power)
        shrink = 1.0 / (1.0 + codec.tikhonov_lambda * sigma2)
        gram = P.T @ P
        if kind == "awgn":
            gain = shrink / (1.0 + sigma2)
            noise_dim_var = sigma2 / 2.0
        elif kind == "rayleigh":
            # Gaussian-equivalent model of the fading equalizer: mean gain on
            # the signal, with gain jitter (on unit-power symbols) folded into
            # the per-dim noise alongside the equalized channel noise.
            mean_gain, var_gain, eq_noise = _rayleigh_equalizer_stats(sigma2)
            gain = shrink * mean_gain
            noise_dim_var = eq_noise / 2.0 + var_gain / 2.0
        else:
            raise ConfigurationError(f"unknown channel kind {kind!r}")
        obs_matrix = gain * gram
        obs_noise_cov = (shrink**2) * (noise_dim_var / scale**2) * gram
        return cls(mu0=np.zeros(d), sigma0=sigma0, obs_matrix=obs_matrix,
                   obs_noise_cov=obs_noise_cov, nominal_scale=scale)

    def sample_pair(self, rng: np.random.Generator, n: Optional[int] = None):
        """Draw (z0, z_c) from the world's own law (used by the Monte Carlo
        conditional-mean checks, which must match this model exactly)."""
        squeeze = n is None
        m = 1 if squeeze else n
        l0 = psd_sqrt(self.sigma0)
        lx = psd_sqrt(self.obs_noise_cov)
        z0 = self.mu0 + rng.standard_normal((m, self.dim)) @ l0.T
        z_c = z0 @ self.obs_matrix.T + rng.standard_normal((m, self.dim)) @ lx.T
        if squeeze:
            return z0[0], z_c[0]
        return z0, z_c

    def clean_posterior_cov(self) -> np.ndarray:
        """Cov(z0 | z_c): the conditional MMSE of decoding alone."""
        cross = self.sigma0 @ self.obs_matrix.T
        cov_c = self.obs_matrix @ self.sigma0 @ self.obs_matrix.T + self.obs_noise_cov
        gain = _psd_solve_right(cross, cov_c)
        return self.sigma0 - gain @ cross.T


class AnalyticPredictor:
    """Bayes-optimal predictor for a GaussianWorld: the conditional mean
    E[eps | z_t, z_c] in closed form. The forward process expresses eps
    linearly in (z0, z_t, z_c); substituting the Gaussian conditional mean
    E[z0 | z_t, z_c] gives the estimate. Ignores the prompt."""

    uses_prompt = False

    def __init__(self, world: GaussianWorld, sched: NoiseSchedule, gamma: float):
        self.world = world
        self.sched = sched
        self.gamma = gamma
        self._cache: dict[int, tuple] = {}

    def _coefs(self, t: int):
        cached = self._cache.get(t)
        if cached is not None:
            return cached
        w = self.world
        d = w.dim
        ab = self.sched.alpha_bar(t)
        c = math.sqrt(1.0 - ab)
        denom = math.sqrt(ab) - c * self.gamma
        mu_c = w.obs_matrix @ w.mu0
        mu_t = denom * w.mu0 + c * self.gamma * mu_c
        s_0c = w.sigma0 @ w.obs_matrix.T
        s_cc = w.obs_matrix @ w.sigma0 @ w.obs_matrix.T + w.obs_noise_cov
        s_0t = denom * w.sigma0 + c * self.gamma * s_0c
        s_ct = denom * s_0c.T + c * self.gamma * s_cc
        s_tt = (denom**2 * w.sigma0 + denom * c * self.gamma * (s_0c + s_0c.T)
                + (c * self.gamma) ** 2 * s_cc + c**2 * np.eye(d))
        cov_w = np.block([[s_cc, s_ct], [s_ct.T, s_tt]])
        cross = np.hstack([s_0c, s_0t])
        gain = _psd_solve_right(cross, cov_w)
        coefs = (ab, c, denom, gain, np.concatenate([mu_c, mu_t]))
        self._cache[t] = coefs
        return coefs

    def predict(self, z_t, z_c, prompt, t: int) -> np.ndarray:
        ab, c, denom, gain, mu_w = self._coefs(t)
        w = np.concatenate([z_c, z_t], axis=1)
        z0_mean = self.world.mu0 + (gain @ (w - mu_w)[:, :, None])[:, :, 0]
        return (z_t - c * self.gamma * z_c - denom * z0_mean) / c


class ExactRecoveryOracle:
    """Knows the true clean latent; answers with the noise estimate whose
    clean-latent inversion returns it exactly (where the inversion is
    non-singular). Ignores the prompt. `z0` is one latent, or a (B, d) stack
    whose rows answer the rows of a `predict` call."""

    uses_prompt = False

    def __init__(self, z0: np.ndarray, sched: NoiseSchedule, gamma: float):
        self.z0 = np.asarray(z0, dtype=np.float64)
        self.sched = sched
        self.gamma = gamma

    def predict(self, z_t, z_c, prompt, t: int) -> np.ndarray:
        ab = self.sched.alpha_bar(t)
        c = math.sqrt(1.0 - ab)
        denom = math.sqrt(ab) - c * self.gamma
        return (z_t - c * self.gamma * z_c - denom * self.z0) / c


# ---------------------------------------------------------------------------
# Trainable MLP denoiser


def time_embedding(ts: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal embedding of integer step indices, shape (B, dim)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    angles = ts[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def prompt_to_index(prompt, n_classes: int) -> int:
    """Map a prompt to an embedding-table row; None and NULL_PROMPT map to
    the trailing null token, 'class:k' to k, other text to a stable hash."""
    if prompt is None or prompt == NULL_PROMPT:
        return n_classes
    text = str(prompt)
    if isinstance(prompt, (int, np.integer)):
        idx = int(prompt)
    elif text.startswith("class:"):
        idx = int(text.split(":", 1)[1])
    else:
        return zlib.crc32(text.encode("utf-8")) % n_classes
    if not 0 <= idx <= n_classes:
        raise ContractError(f"prompt class {idx} outside [0, {n_classes}]")
    return idx


class MlpDenoiser:
    """Two-hidden-layer tanh network over concat(z_t, z_c, time emb, prompt emb)."""

    def __init__(
        self,
        latent_dim: int,
        hidden: int = 128,
        time_dim: int = 32,
        prompt_dim: int = 16,
        n_classes: int = 10,
        seed: int = 0,
    ):
        if time_dim % 2 != 0:
            raise ConfigurationError("time_dim must be even")
        self.latent_dim = latent_dim
        self.hidden = hidden
        self.time_dim = time_dim
        self.prompt_dim = prompt_dim
        self.n_classes = n_classes
        self.seed = seed
        in_dim = 2 * latent_dim + time_dim + prompt_dim
        rng = np.random.default_rng(seed)

        def glorot(fan_out, fan_in):
            return rng.standard_normal((fan_out, fan_in)) * math.sqrt(2.0 / (fan_in + fan_out))

        self.params = {
            "w1": glorot(hidden, in_dim),
            "b1": np.zeros(hidden),
            "w2": glorot(hidden, hidden),
            "b2": np.zeros(hidden),
            "w3": glorot(latent_dim, hidden),
            "b3": np.zeros(latent_dim),
            "emb": rng.standard_normal((n_classes + 1, prompt_dim)) * 0.1,
        }
        self._temb = np.empty((0, time_dim))

    @property
    def null_index(self) -> int:
        return self.n_classes

    def _assemble(self, z_t, z_c, class_idx, ts):
        """concat(z_t, z_c, time emb, prompt emb). The time embedding is a row
        lookup in a cached table of `time_embedding` over the integer steps."""
        top = np.max(ts, initial=0)
        if top >= len(self._temb):  # grow on demand
            self._temb = time_embedding(np.arange(2 * top + 1), self.time_dim)
        return np.concatenate([z_t, z_c, self._temb[ts], self.params["emb"][class_idx]], axis=1)

    def forward_batch(self, z_t, z_c, class_idx, ts):
        """Returns (output (B, d), cache for backward)."""
        x = self._assemble(z_t, z_c, class_idx, ts)
        p = self.params
        h1 = x @ p["w1"].T
        np.tanh(np.add(h1, p["b1"], out=h1), out=h1)
        h2 = h1 @ p["w2"].T
        np.tanh(np.add(h2, p["b2"], out=h2), out=h2)
        out = h2 @ p["w3"].T
        out += p["b3"]
        return out, (x, h1, h2, class_idx)

    def backward_batch(self, cache, dout):
        """Gradients of sum(dout * out) with respect to every parameter."""
        x, h1, h2, class_idx = cache
        p = self.params
        grads = {"w3": dout.T @ h2, "b3": dout.sum(axis=0)}
        dh2 = dout @ p["w3"]
        dh2 *= 1.0 - h2**2
        grads["w2"] = dh2.T @ h1
        grads["b2"] = dh2.sum(axis=0)
        dh1 = dh2 @ p["w2"]
        dh1 *= 1.0 - h1**2
        grads["w1"] = dh1.T @ x
        grads["b1"] = dh1.sum(axis=0)
        dprompt = dh1 @ p["w1"][:, -self.prompt_dim:]  # the only input columns with a parameter
        slots = class_idx[:, None] * self.prompt_dim + np.arange(self.prompt_dim)
        grads["emb"] = np.bincount(slots.ravel(), dprompt.ravel(),
                                   p["emb"].size).reshape(p["emb"].shape)
        return grads

    def predict(self, z_t, z_c, prompt, t: int) -> np.ndarray:
        """Inference on a (B, d) batch at one step and prompt.

        Each layer is a stacked row-times-matrix product, not the one gemm of
        `forward_batch`: a gemm's summation order depends on the batch size,
        so only the stacked form gives every row the bits of a lone call. The
        time embedding is `_assemble`'s cached row of the same formula.
        """
        n = len(z_t)
        idx = prompt_to_index(prompt, self.n_classes)
        x = self._assemble(z_t, z_c, np.full(n, idx), np.full(n, t))
        p = self.params
        h1 = np.tanh((x[:, None, :] @ p["w1"].T)[:, 0] + p["b1"])
        h2 = np.tanh((h1[:, None, :] @ p["w2"].T)[:, 0] + p["b2"])
        return (h2[:, None, :] @ p["w3"].T)[:, 0] + p["b3"]


def save_checkpoint(model: MlpDenoiser, path) -> None:
    meta = np.array([_CHECKPOINT_VERSION, model.latent_dim, model.hidden,
                     model.time_dim, model.prompt_dim, model.n_classes, model.seed])
    np.savez(path, __meta__=meta, **model.params)


def load_checkpoint(path) -> MlpDenoiser:
    try:
        with open(path, "rb") as fh:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile) or "__meta__" not in data.files:
                raise ConfigurationError(f"{path} is not an npz checkpoint with __meta__")
            meta = data["__meta__"]
            if int(meta[0]) != _CHECKPOINT_VERSION:
                raise ConfigurationError(f"unsupported checkpoint version {int(meta[0])}")
            model = MlpDenoiser(latent_dim=int(meta[1]), hidden=int(meta[2]),
                                time_dim=int(meta[3]), prompt_dim=int(meta[4]),
                                n_classes=int(meta[5]), seed=int(meta[6]))
            for name in model.params:
                model.params[name] = data[name].copy()
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigurationError(f"cannot read checkpoint {path}: {exc}") from None
    return model


# ---------------------------------------------------------------------------
# Losses and training


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    batch_size: int = 128
    steps: int = 2000
    dropout_rate: float = 0.10
    warm_start_step: int = 500

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError("dropout_rate must be in [0, 1)")
        if self.steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")

    @classmethod
    def stage1(cls, **kw) -> "TrainConfig":
        # Kept as a plain alias: the acceptance tests construct configs this way.
        return cls(**kw)


@dataclass
class PreparedBatch:
    """Frozen draws (t, eps, dropout) so the loss is a pure function of the
    model parameters - required for the finite-difference gradient checks."""

    z0: np.ndarray
    z_c: np.ndarray
    eps: np.ndarray
    ts: np.ndarray
    class_idx: np.ndarray
    z_t: np.ndarray
    n_dropped: int


def prepare_diffusion_batch(
    z0: np.ndarray,
    z_c: np.ndarray,
    class_idx: np.ndarray,
    sched: NoiseSchedule,
    gamma: float,
    warm_step: int,
    dropout_rate: float,
    rng: np.random.Generator,
    null_index: int,
) -> PreparedBatch:
    """Draw step indices uniformly from {1..warm_step}, noise the latents with
    the residual forward process, and drop prompts at the configured rate."""
    n = len(z0)
    if n == 0:
        raise ContractError("batch must be non-empty")
    ts = rng.integers(1, warm_step + 1, size=n)
    eps = rng.standard_normal(z0.shape)
    ab = sched.alpha_bars[ts]
    z_t = (np.sqrt(ab)[:, None] * z0
           + np.sqrt(1.0 - ab)[:, None] * (gamma * (z_c - z0) + eps))
    dropped = rng.random(n) < dropout_rate
    class_idx = np.where(dropped, null_index, class_idx)
    return PreparedBatch(z0=z0, z_c=z_c, eps=eps, ts=ts, class_idx=class_idx,
                         z_t=z_t, n_dropped=int(dropped.sum()))


def loss_and_grads(
    model: MlpDenoiser,
    prep: PreparedBatch,
    cfg: TrainConfig,
    sched: NoiseSchedule,
    want_grads: bool = True,
):
    """Training loss and its parameter gradients.

    The loss is the batch mean of the squared noise-prediction error plus the
    latent MSE between clean and decoded latents. The latent term is a
    reported diagnostic only (the reference codec is frozen, so it carries no
    gradient). `cfg` and `sched` are unused; they stay in the signature the
    acceptance tests call.
    """
    n = len(prep.z0)
    out, cache = model.forward_batch(prep.z_t, prep.z_c, prep.class_idx, prep.ts)
    resid = out - prep.eps
    loss_diff = float(np.sum(resid**2)) / n
    latent_mse = float(np.mean((prep.z0 - prep.z_c) ** 2))
    total = loss_diff + latent_mse
    parts = {"diffusion": loss_diff, "latent_mse": latent_mse, "total": total}
    if not want_grads:
        return total, parts, None
    return total, parts, model.backward_batch(cache, (2.0 / n) * resid)


def train(
    model: MlpDenoiser,
    dataset: tuple[np.ndarray, np.ndarray, np.ndarray],
    cfg: TrainConfig,
    sched: NoiseSchedule,
    rng: np.random.Generator,
    gamma: float,
) -> list[dict]:
    """Gradient-descent training, mutating the model in place.

    `dataset` is (z0s, z_cs, class indices). Returns the loss history, one
    record per step. Raises TrainingError on a non-finite loss.
    """
    z0s, z_cs, labels = dataset
    n = len(z0s)
    warm_step = min(cfg.warm_start_step, sched.T)
    gamma = float(gamma)
    history: list[dict] = []
    for step in range(cfg.steps):
        pick = rng.integers(0, n, size=min(cfg.batch_size, n))
        prep = prepare_diffusion_batch(z0s[pick], z_cs[pick], labels[pick],
                                       sched, gamma, warm_step,
                                       cfg.dropout_rate, rng, model.null_index)
        total, parts, grads = loss_and_grads(model, prep, cfg, sched)
        if not math.isfinite(total):
            raise TrainingError(f"loss diverged at step {step}: {parts}")
        for name, g in grads.items():
            g *= cfg.learning_rate
            model.params[name] -= g
        history.append({"step": step, **parts})
    return history
