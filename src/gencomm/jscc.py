"""Latent-domain source-channel codec.

A learned codec is out of scope here; the reference implementation is a
seeded random projection with orthonormal rows, which keeps the system role
(bandwidth compression with structured decode residuals) while staying
analytically tractable.

The codec has one batch API: `encode` and `decode` work on (B, d) arrays,
and a single latent is a batch of one (`z[None]`). Products are stacked
matrix-vector products, one per row, so a row's bits do not depend on the
batch it sits in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import power_scales
from .errors import ConfigurationError, ContractError


@dataclass(frozen=True)
class CodecConfig:
    k_prime: int            # latent half-dimension (latent length 2k')
    k: int                  # channel half-dimension (k complex uses)
    height: int = 256       # nominal source dims, used only for CBR accounting
    width: int = 256
    channels: int = 3

    def __post_init__(self):
        if self.k < 1 or self.k_prime < 1:
            raise ConfigurationError("k and k_prime must be >= 1")
        if self.k > self.k_prime:
            raise ConfigurationError(
                f"k ({self.k}) must not exceed k_prime ({self.k_prime})"
            )
        if min(self.height, self.width, self.channels) < 1:
            raise ConfigurationError("source dims must be positive")


class LinearCodec:
    """Projection codec x = P z with orthonormal rows P (2k x 2k').

    encode power-normalizes each projected row and returns the applied
    multipliers, which the receiver needs back to undo the normalization
    (decode divides by them). With tikhonov_lambda > 0 decode additionally
    shrinks by 1/(1 + lambda*sigma2).
    """

    def __init__(self, projection: np.ndarray, tikhonov_lambda: float = 0.0):
        # Fixed C layout: BLAS picks its summation order by memory layout, and
        # make_linear_codec passes an F-ordered q.T, so every result's bits
        # depend on this copy.
        projection = np.ascontiguousarray(projection, dtype=np.float64)
        if projection.ndim != 2:
            raise ConfigurationError("projection must be a 2-d matrix")
        gram = projection @ projection.T
        if not np.allclose(gram, np.eye(projection.shape[0]), atol=1e-10):
            raise ConfigurationError("projection rows must be orthonormal")
        if not tikhonov_lambda >= 0.0:
            raise ConfigurationError("tikhonov_lambda must be >= 0")
        self.projection = projection
        self.tikhonov_lambda = tikhonov_lambda

    @property
    def n_out(self) -> int:
        return self.projection.shape[0]

    @property
    def n_in(self) -> int:
        return self.projection.shape[1]

    def encode(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project and power-normalize each row of a (B, n_in) batch. Returns
        (symbols (B, n_out), multipliers (B,)); an all-zero projection gets a
        NaN multiplier and NaN symbols instead of an error, so the caller can
        fail that row alone."""
        if z.ndim != 2 or z.shape[1] != self.n_in:
            raise ContractError(f"expected latents of shape (B, {self.n_in}), got {z.shape}")
        x = (self.projection @ z[:, :, None])[:, :, 0]
        scales = power_scales(x)
        return x * scales[:, None], scales

    def decode(self, y: np.ndarray, sigma2: float, scales: np.ndarray) -> np.ndarray:
        """Undo `encode` on each row of a (B, n_out) batch with its own
        multiplier: P^T y / scale, shrunk first when tikhonov_lambda > 0."""
        if y.ndim != 2 or y.shape[1] != self.n_out:
            raise ContractError(f"expected symbols of shape (B, {self.n_out}), got {y.shape}")
        if self.tikhonov_lambda > 0.0:
            y = y / (1.0 + self.tikhonov_lambda * sigma2)
        return (self.projection.T @ y[:, :, None])[:, :, 0] / scales[:, None]


def make_linear_codec(cfg: CodecConfig, seed: int, tikhonov_lambda: float = 0.0) -> LinearCodec:
    """Orthonormalize the rows of a seeded Gaussian 2k x 2k' matrix (via QR
    of its transpose); deterministic per seed."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((2 * cfg.k_prime, 2 * cfg.k))
    q, r = np.linalg.qr(raw)
    # Fix the sign convention so the factorization (hence the codec) is unique.
    q = q * np.sign(np.diag(r))
    return LinearCodec(q.T, tikhonov_lambda=tikhonov_lambda)


def cbr(cfg: CodecConfig) -> float:
    """Channel bandwidth ratio: complex channel uses per source dimension."""
    return cfg.k / (cfg.channels * cfg.height * cfg.width)
