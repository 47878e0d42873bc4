"""Latent-domain source-channel codec.

A learned codec is out of scope here; the reference implementation is a
seeded random projection with orthonormal rows, which keeps the system role
(bandwidth compression with structured decode residuals) while staying
analytically tractable.

The codec works on (B, d) batches; `encode` and `decode` are its batch-of-one
calls. Products are stacked matrix-vector products, one per row, so a row's
bits do not depend on the batch it sits in.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .channel import ZERO_POWER, power_scales
from .errors import ConfigurationError, ContractError, NormalizationError

_CODEC_MAGIC = b"LCOD1\n"


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

    encode power-normalizes the projected vector and returns the applied
    multiplier, which the receiver needs back to undo the normalization
    (decode divides by it). With tikhonov_lambda > 0 decode additionally
    shrinks by 1/(1 + lambda*sigma2).
    """

    def __init__(self, projection: np.ndarray, seed: int, tikhonov_lambda: float = 0.0):
        # Fixed C layout so exported/imported codecs reproduce bit-identical
        # arithmetic (BLAS picks summation order by memory layout).
        projection = np.ascontiguousarray(projection, dtype=np.float64)
        if projection.ndim != 2:
            raise ConfigurationError("projection must be a 2-d matrix")
        gram = projection @ projection.T
        if not np.allclose(gram, np.eye(projection.shape[0]), atol=1e-10):
            raise ConfigurationError("projection rows must be orthonormal")
        if tikhonov_lambda < 0.0:
            raise ConfigurationError("tikhonov_lambda must be >= 0")
        self.projection = projection
        self.seed = seed
        self.tikhonov_lambda = tikhonov_lambda

    @property
    def n_out(self) -> int:
        return self.projection.shape[0]

    @property
    def n_in(self) -> int:
        return self.projection.shape[1]

    def encode(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.n_in,):
            raise ContractError(f"expected latent of shape ({self.n_in},), got {z.shape}")
        x, scales = self.encode_batch(z[None])
        if np.isnan(scales[0]):
            raise NormalizationError(ZERO_POWER)
        return x[0], scales[0]

    def encode_batch(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project and power-normalize each row of a (B, n_in) batch. Returns
        (symbols (B, n_out), multipliers (B,)); an all-zero projection gets a
        NaN multiplier and NaN symbols instead of an error, so the caller can
        fail that row alone."""
        x = (self.projection @ z[:, :, None])[:, :, 0]
        scales = power_scales(x)
        return x * scales[:, None], scales

    def decode(self, y: np.ndarray, sigma2: float, scale: float = 1.0) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n_out,):
            raise ContractError(f"expected symbols of shape ({self.n_out},), got {y.shape}")
        return self.decode_batch(y[None], sigma2, np.array([scale]))[0]

    def decode_batch(self, y: np.ndarray, sigma2: float, scales: np.ndarray) -> np.ndarray:
        """`decode` of each row of a (B, n_out) batch with its own multiplier."""
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
    return LinearCodec(q.T, seed=seed, tikhonov_lambda=tikhonov_lambda)


def cbr(cfg: CodecConfig) -> float:
    """Channel bandwidth ratio: complex channel uses per source dimension."""
    return cfg.k / (cfg.channels * cfg.height * cfg.width)


def export_codec(codec: LinearCodec, path) -> None:
    """Dimension-headed binary dump for reproducibility audits."""
    rows, cols = codec.projection.shape
    with open(path, "wb") as fh:
        fh.write(_CODEC_MAGIC)
        fh.write(struct.pack("<qqqd", rows, cols, codec.seed, codec.tikhonov_lambda))
        fh.write(codec.projection.astype("<f8").tobytes())


def import_codec(path) -> LinearCodec:
    with open(path, "rb") as fh:
        magic = fh.read(len(_CODEC_MAGIC))
        if magic != _CODEC_MAGIC:
            raise ConfigurationError(f"not a codec file: bad magic {magic!r}")
        rows, cols, seed, lam = struct.unpack("<qqqd", fh.read(32))
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
        if len(data) != rows * cols:
            raise ConfigurationError("codec file truncated")
    return LinearCodec(data.reshape(rows, cols), seed=int(seed), tikhonov_lambda=lam)
