"""Noise predictors and their training.

Three predictor families implement the same behavioral contract as
`sampler.EpsilonPredictor`:

* AnalyticPredictor - exact conditional-mean predictor for a jointly
  Gaussian world (the verification oracle; it is Bayes-optimal for the
  squared-error noise-prediction objective and is never trained).
* ExactRecoveryOracle - knows the true clean latent and answers with the
  noise estimate whose clean-latent inversion is exact; `verify` and the
  acceptance tests use it.
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
from functools import cached_property
from types import MappingProxyType
from typing import Optional

import numpy as np

from .channel import snr_to_sigma2
from .errors import ConfigurationError, ContractError, RankError, TrainingError
from .sampler import residual_forward
from .schedule import NoiseSchedule, inversion_coeffs

NULL_PROMPT = "<null>"

_CHECKPOINT_VERSION = 1
# Rows per MLP GEMM. A GEMM of exactly this many rows (the last block zero-padded)
# gives each row the same bits in any batch, at any position and BLAS thread count.
# It equals TrainConfig().batch_size, so a training batch is one block.
_BLOCK = 128
# Gauss-Laguerre nodes in the Rayleigh equalizer's moments.
_LAGUERRE_ORDER = 96


# ---------------------------------------------------------------------------
# Gaussian verification world


def _psd_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a symmetric PSD matrix, with the
    eigenvalues at or below max(largest, 1) * 1e-12 set to 0.

    Compressed codecs give rank-deficient covariances (the decoded latent lives
    in the projection's row space) whose null eigenvalues come out as rounding
    residue; zeroed, the degenerate directions contribute nothing.
    """
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"covariance eigendecomposition failed: {exc}") from exc
    return np.where(vals > max(float(vals.max()), 1.0) * 1e-12, vals, 0.0), vecs


def _psd_solve_right(rhs: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rhs @ pinv(mat) for symmetric PSD mat, inverting on its support only
    (a plain solve of a rank-deficient Cov(z_c) silently produces garbage)."""
    vals, vecs = _psd_eigh(mat)
    inv_vals = np.divide(1.0, vals, out=np.zeros_like(vals), where=vals > 0.0)
    out = (rhs @ vecs) * inv_vals @ vecs.T
    if not np.all(np.isfinite(out)):
        raise RankError("conditioning produced non-finite gains")
    return out


def _equalizer_stats(kind: str, sigma2: float) -> tuple[float, float, float]:
    """Moments of the per-symbol MMSE equalizer gain |h|^2 / (|h|^2 + sigma2)
    over the channel's law of |h|^2: a point mass at 1 (AWGN), or Exp(1) by
    Gauss-Laguerre quadrature (unit-variance Rayleigh fading).

    Returns (mean gain, gain variance, equalized noise variance per complex
    symbol)."""
    if kind == "awgn":
        nodes = weights = np.ones(1)
    elif kind == "rayleigh":
        nodes, weights = np.polynomial.laguerre.laggauss(_LAGUERRE_ORDER)
    else:
        raise ConfigurationError(f"unknown channel kind {kind!r}")
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
    normalizes per trial. The MMSE equalizer is modelled by a Gaussian
    equivalent, which is exact under AWGN (its gain is constant).
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
        if not (0.0 <= rho < 1.0 and prior_var > 0.0):
            raise ConfigurationError(f"need 0 <= rho < 1 and prior_var > 0, got rho = {rho}, "
                                     f"prior_var = {prior_var}")
        d = codec.n_in
        idx = np.arange(d)
        sigma0 = prior_var * rho ** np.abs(idx[:, None] - idx[None, :])
        P = codec.projection
        k = P.shape[0] // 2
        sigma2 = snr_to_sigma2(snr_db)
        sym_power = np.trace(P @ sigma0 @ P.T) / k
        scale = 1.0 / math.sqrt(sym_power)
        shrink = 1.0 / (1.0 + codec.tikhonov_lambda * sigma2)
        gram = P.T @ P
        # Gaussian-equivalent model of the equalizer: mean gain on the signal,
        # with gain jitter (on unit-power symbols; none under AWGN) folded into
        # the per-dim noise alongside the equalized channel noise.
        mean_gain, var_gain, eq_noise = _equalizer_stats(kind, sigma2)
        gain = shrink * mean_gain
        noise_dim_var = eq_noise / 2.0 + var_gain / 2.0
        obs_matrix = gain * gram
        obs_noise_cov = (shrink**2) * (noise_dim_var / scale**2) * gram
        return cls(mu0=np.zeros(d), sigma0=sigma0, obs_matrix=obs_matrix,
                   obs_noise_cov=obs_noise_cov, nominal_scale=scale)

    @cached_property
    def posterior(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, S) of the decode posterior, computed once: E[z0 | z_c] =
        mu0 + G (z_c - A mu0) and Cov(z0 | z_c) = S, with A = obs_matrix."""
        a = self.obs_matrix
        cross = self.sigma0 @ a.T
        gain = _psd_solve_right(cross, a @ self.sigma0 @ a.T + self.obs_noise_cov)
        return gain, self.sigma0 - gain @ cross.T

    def clean_posterior_cov(self) -> np.ndarray:
        """Cov(z0 | z_c): the conditional MMSE of decoding alone."""
        return self.posterior[1]


class AnalyticPredictor:
    """Bayes-optimal predictor for a GaussianWorld: the conditional mean
    E[eps | z_t, z_c] in closed form. Given z_c, the residual forward process
    leaves z_t - c gamma z_c = denom z0 + c eps, with z0 ~ N(m, S) the decode
    posterior, so E[eps | z_t, z_c] = c (denom^2 S + c^2 I)^-1 (z_t - c gamma z_c
    - denom m), with (c, denom) of `inversion_coeffs`. The matrix is at least
    c^2 I, so positive definite at every step t >= 1. Ignores the prompt."""

    uses_prompt = False

    def __init__(self, world: GaussianWorld, sched: NoiseSchedule, gamma: float):
        self.world = world
        self.sched = sched
        self.gamma = gamma

    def predict(self, z_t, z_c, prompt, t: int) -> np.ndarray:
        w = self.world
        gain, cov = w.posterior
        c, denom = inversion_coeffs(t, self.gamma, self.sched)
        weight = np.linalg.solve(denom**2 * cov + c**2 * np.eye(w.dim), c * np.eye(w.dim))
        z0_mean = w.mu0 + (gain @ (z_c - w.obs_matrix @ w.mu0)[:, :, None])[:, :, 0]
        resid = z_t - c * self.gamma * z_c - denom * z0_mean
        return (weight @ resid[:, :, None])[:, :, 0]


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
        c, denom = inversion_coeffs(t, self.gamma, self.sched)
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


def prompt_to_index(prompt: Optional[str], n_classes: int) -> int:
    """Map a prompt to an embedding-table row; None and NULL_PROMPT map to
    the trailing null token, 'class:k' to k, other text to a stable hash."""
    if prompt is None or prompt == NULL_PROMPT:
        return n_classes
    if not prompt.startswith("class:"):
        return zlib.crc32(prompt.encode("utf-8")) % n_classes
    suffix = prompt[len("class:"):]
    try:
        idx = int(suffix)
    except ValueError:
        raise ContractError(f"prompt class {suffix!r} is not an integer") from None
    if not 0 <= idx < n_classes:
        raise ContractError(f"prompt class {idx} outside [0, {n_classes - 1}]")
    return idx


def _aligned_zeros(shape, dtype=np.float64) -> np.ndarray:
    """Zeros of `dtype` whose data starts on a 64-byte cache line: the MLP's
    float64 parameters, gradients and training buffers, and its float32
    inference weights and buffers. numpy aligns to 16 bytes only; on a 2-vCPU
    AVX-512 Xeon, MLP inference at 200 rows ran about 20% slower, with the same
    bits, when the weights started 16 or 48 bytes into a line."""
    itemsize = np.dtype(dtype).itemsize
    size = math.prod(shape)
    raw = np.zeros(size + 64 // itemsize - 1, dtype)
    start = -raw.ctypes.data % 64 // itemsize
    return raw[start:start + size].reshape(shape)


def _param_shapes(latent_dim: int, hidden: int, time_dim: int, prompt_dim: int,
                  n_classes: int) -> dict[str, tuple[int, ...]]:
    """The shape of each MlpDenoiser parameter, in initialisation order."""
    in_dim = 2 * latent_dim + time_dim + prompt_dim
    return {"w1": (hidden, in_dim), "b1": (hidden,), "w2": (hidden, hidden), "b2": (hidden,),
            "w3": (latent_dim, hidden), "b3": (latent_dim,), "emb": (n_classes + 1, prompt_dim)}


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
        shapes = _param_shapes(latent_dim, hidden, time_dim, prompt_dim, n_classes)
        in_dim = shapes["w1"][1]
        rng = np.random.default_rng(seed)

        def glorot(fan_out, fan_in):
            return rng.standard_normal((fan_out, fan_in)) * math.sqrt(2.0 / (fan_in + fan_out))

        # Glorot weights, zero biases, then the prompt embedding, drawn in that order.
        init = {name: glorot(*shape) if name[0] == "w" else np.zeros(shape)
                for name, shape in shapes.items() if name != "emb"}
        init["emb"] = rng.standard_normal(shapes["emb"]) * 0.1
        # Every parameter and its gradient is a view of one flat array, so a
        # training update is one pass over each, and predict's float32 weights
        # are views of a third, refreshed by one copy; each view starts a cache line.
        spans, end = {}, 0
        for name, value in init.items():
            start = -(-end // 16) * 16  # 16 float32s to a line, 2 lines of float64s
            spans[name], end = slice(start, start + value.size), start + value.size
        self._flat, self._grad_flat = _aligned_zeros((end,)), _aligned_zeros((end,))
        self._flat32 = _aligned_zeros((end,), np.float32)

        def views_of(flat):
            return {name: flat[span].reshape(init[name].shape) for name, span in spans.items()}

        views, self._grads, self._params32 = map(views_of, (self._flat, self._grad_flat,
                                                             self._flat32))
        for name, value in init.items():
            views[name][...] = value
        # Read-only, so every parameter stays a view of the flat array: write into it.
        self.params = MappingProxyType(views)
        self._temb = np.empty((0, time_dim))
        # The work buffers, see _work: the input, the two hidden layers and the
        # output, then in training's set only dh2 and the prompt input gradient.
        layers = (in_dim, hidden, hidden, latent_dim)
        self._bufs = {np.float64: [np.empty((0, w)) for w in (*layers, hidden, prompt_dim)],
                      np.float32: [np.empty((0, w), np.float32) for w in layers]}

    @property
    def null_index(self) -> int:
        return self.n_classes

    def _time_rows(self, ts):
        """`time_embedding` of the integer steps `ts` (an array or one step),
        looked up in a cached table that grows on demand to 2 * max(ts) + 1
        rows, so its memory grows with the warm-start step training draws to."""
        if np.min(ts, initial=0) < 0:  # a negative index would wrap around the table
            raise ContractError(f"time steps must be >= 0, got {np.min(ts)}")
        top = np.max(ts, initial=0)
        if top >= len(self._temb):
            self._temb = time_embedding(np.arange(2 * top + 1), self.time_dim)
        return self._temb[ts]

    def _work(self, n, dtype=np.float64):
        """The first n rows of one set of work buffers: training's float64 set
        (input, h1, h2, output, dh2, prompt input gradient) or predict's float32
        set (input, h1, h2, output). Each set grows in whole blocks (one at
        least) to the largest batch it has served."""
        rows = max(-(-n // _BLOCK), 1) * _BLOCK
        bufs = self._bufs[dtype]
        if len(bufs[0]) < rows:
            bufs[:] = [_aligned_zeros((rows, b.shape[1]), dtype) for b in bufs]
        return [b[:n] for b in bufs]

    def _forward(self, n, dtype=np.float64):
        """Runs the layers in place over the first n rows of the work buffers of
        `dtype`, with the weights of that dtype, one GEMM per layer and block;
        returns the output rows."""
        rows = -(-n // _BLOCK) * _BLOCK
        bufs = self._bufs[dtype]
        bufs[0][n:rows] = 0.0  # padding: a stale inf or nan row would make the GEMM warn
        x, h1, h2, out = (a[:rows].reshape(-1, _BLOCK, a.shape[1]) for a in bufs[:4])
        p = self.params if dtype is np.float64 else self._params32
        np.matmul(x, p["w1"].T, out=h1)
        np.tanh(np.add(h1, p["b1"], out=h1), out=h1)
        np.matmul(h1, p["w2"].T, out=h2)
        np.tanh(np.add(h2, p["b2"], out=h2), out=h2)
        np.matmul(h2, p["w3"].T, out=out)
        out += p["b3"]
        return bufs[3][:n]

    def _assemble(self, z_t, z_c, class_idx, ts):
        """concat(z_t, z_c, time emb, prompt emb), in the input work buffer."""
        return np.concatenate([z_t, z_c, self._time_rows(ts), self.params["emb"][class_idx]],
                              axis=1, out=self._work(len(z_t))[0])

    def forward_batch(self, z_t, z_c, class_idx, ts):
        """Returns (output (B, d), cache for backward), both in the instance's
        float64 work buffers: the next `forward_batch` call overwrites them,
        `predict` leaves them alone, and the caller may overwrite the output."""
        x = self._assemble(z_t, z_c, class_idx, ts)
        _, h1, h2, *_ = self._work(len(x))
        return self._forward(len(x)), (x, h1, h2, class_idx)

    def backward_batch(self, cache, dout):
        """Gradients of sum(dout * out) with respect to every parameter.

        The cache lives in the float64 work buffers, which the next
        `forward_batch` overwrites and `predict` does not touch.
        The gradients are the instance's gradient buffers, which the next
        `backward_batch` call overwrites; `forward_batch` and `predict` leave
        them alone. Each hidden layer of the cache is overwritten by its tanh
        derivative once it is last read, and h2's then holds dh1.
        """
        x, h1, h2, class_idx = cache
        *_, dh2, dprompt = self._work(len(dout))
        p, grads = self.params, self._grads
        np.matmul(dout.T, h2, out=grads["w3"])
        np.sum(dout, axis=0, out=grads["b3"])
        np.matmul(dout, p["w3"], out=dh2)
        dh2 *= np.subtract(1.0, np.square(h2, out=h2), out=h2)
        np.matmul(dh2.T, h1, out=grads["w2"])
        np.sum(dh2, axis=0, out=grads["b2"])
        dh1 = np.matmul(dh2, p["w2"], out=h2)
        dh1 *= np.subtract(1.0, np.square(h1, out=h1), out=h1)
        np.matmul(dh1.T, x, out=grads["w1"])
        np.sum(dh1, axis=0, out=grads["b1"])
        # the prompt columns are the only input columns with a parameter
        np.matmul(dh1, p["w1"][:, -self.prompt_dim:], out=dprompt)
        slots = class_idx[:, None] * self.prompt_dim + np.arange(self.prompt_dim)
        grads["emb"][...] = np.bincount(slots.ravel(), dprompt.ravel(),
                                        p["emb"].size).reshape(p["emb"].shape)
        return grads

    def predict(self, z_t, z_c, prompt, t: int) -> np.ndarray:
        """Inference on a (B, d) batch at one step and prompt, returned as a fresh
        float64 array. It runs `forward_batch`'s layers in float32: on a float32
        copy of the parameters, taken on each call so that an in-place write to
        `params` reaches it, and in work buffers of its own, so that it leaves a
        training step's output, cache and gradients alone (one MlpDenoiser must
        still not predict from two threads at once). The rows share one time row
        and one prompt row, embedded here (the table would grow with t). A batch
        under `_BLOCK` rows still pays for a whole block: one row costs about as
        much as 128."""
        if t < 0:
            raise ContractError(f"time steps must be >= 0, got {t}")
        n = len(z_t)
        np.copyto(self._flat32, self._flat)
        shared = np.concatenate([time_embedding(np.array([t]), self.time_dim)[0],
                                 self.params["emb"][prompt_to_index(prompt, self.n_classes)]])
        np.concatenate([z_t, z_c, np.broadcast_to(shared, (n, len(shared)))], axis=1,
                       out=self._work(n, np.float32)[0])
        return self._forward(n, np.float32).astype(np.float64)


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
            if meta.shape != (7,):  # version, the five dims, seed
                raise ConfigurationError(f"checkpoint __meta__ has shape {meta.shape}, not (7,)")
            if int(meta[0]) != _CHECKPOINT_VERSION:
                raise ConfigurationError(f"unsupported checkpoint version {int(meta[0])}")
            dims = dict(zip(("latent_dim", "hidden", "time_dim", "prompt_dim", "n_classes"),
                            map(int, meta[1:6])))
            # Every array is checked against the meta before the meta sizes a model.
            arrays = {}
            for name, shape in _param_shapes(**dims).items():
                value = arrays[name] = data[name]
                if (value.dtype, value.shape) != (np.float64, shape):
                    raise ConfigurationError(f"checkpoint {name} is not float64 {shape}")
                # predict casts to float32, where these would become inf or nan
                if not np.all(np.abs(value) <= np.finfo(np.float32).max):
                    raise ConfigurationError(
                        f"checkpoint {name} holds a value that is not finite or is "
                        "beyond float32's range")
            model = MlpDenoiser(**dims, seed=int(meta[6]))
            for name, view in model.params.items():
                view[...] = arrays[name]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
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
        if self.warm_start_step < 1:
            raise ConfigurationError(
                f"warm_start_step must be >= 1, got {self.warm_start_step}")

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
    z_t = residual_forward(z0, z_c, ts, gamma, eps, sched)
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
    resid = np.subtract(out, prep.eps, out=out)
    dout = (2.0 / n) * resid if want_grads else None
    sq = np.square(resid, out=resid)
    loss_diff = float(np.sum(sq)) / n
    latent_mse = float(np.mean(np.square(np.subtract(prep.z0, prep.z_c, out=sq), out=sq)))
    total = loss_diff + latent_mse
    parts = {"diffusion": loss_diff, "latent_mse": latent_mse, "total": total}
    if not want_grads:
        return total, parts, None
    return total, parts, model.backward_batch(cache, dout)


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
    params, grads = model._flat, model._grad_flat
    history: list[dict] = []
    for step in range(cfg.steps):
        pick = rng.integers(0, n, size=min(cfg.batch_size, n))
        prep = prepare_diffusion_batch(z0s[pick], z_cs[pick], labels[pick],
                                       sched, gamma, warm_step,
                                       cfg.dropout_rate, rng, model.null_index)
        total, parts, _ = loss_and_grads(model, prep, cfg, sched)  # fills grads
        if not math.isfinite(total):
            raise TrainingError(f"loss diverged at step {step}: {parts}")
        grads *= cfg.learning_rate
        params -= grads
        history.append({"step": step, **parts})
    return history
