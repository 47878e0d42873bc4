"""Complex-baseband channel simulation: packing, power normalization,
AWGN/Rayleigh transmission and per-symbol MMSE equalization.

Conventions (recorded in every result file): unit average power per complex
symbol, sigma2 is the total complex-noise variance per symbol, and the
receiver has perfect channel-state information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, NormalizationError

CHANNEL_KINDS = ("awgn", "rayleigh")
# Rows of k standard normals one transmission of k symbols draws, in order:
# AWGN noise real, imaginary parts; Rayleigh gain real, imaginary, then noise.
DRAW_ROWS = {"awgn": 2, "rayleigh": 4}


@dataclass(frozen=True)
class ChannelConfig:
    kind: str = "awgn"
    snr_db: float = 10.0

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ConfigurationError(f"unknown channel kind {self.kind!r}")


def pack_complex(x: np.ndarray) -> np.ndarray:
    """Map a real vector of even length 2k to k complex symbols: the first k
    entries become the real part, the remaining k the imaginary part. A
    (B, 2k) batch maps row by row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] % 2 != 0:
        raise ContractError(f"need rows of even length, got shape {x.shape}")
    k = x.shape[-1] // 2
    return x[..., :k] + 1j * x[..., k:]


def unpack_complex(symbols: np.ndarray) -> np.ndarray:
    """Inverse of pack_complex."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    return np.concatenate([symbols.real, symbols.imag], axis=-1)


ZERO_POWER = "cannot normalize an all-zero signal"


def power_scales(x: np.ndarray) -> np.ndarray:
    """Per row of a (B, 2k) batch, the multiplier that gives its k complex
    symbols unit average power; NaN for an all-zero row.

    The power is a stacked row-times-column product, which rounds exactly as
    a lone `np.dot(row, row)` does at any batch size."""
    power = (x[:, None, :] @ x[:, :, None])[:, 0, 0] / (x.shape[1] // 2)
    with np.errstate(divide="ignore"):
        scales = 1.0 / np.sqrt(power)
    scales[power == 0.0] = np.nan
    return scales


def normalize_power(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Scale a real 2k-vector so its k complex symbols have unit average
    power. Returns (scaled vector, multiplier applied); dividing by the
    multiplier undoes the normalization."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) % 2 != 0:
        raise ContractError(f"need a 1-d even-length vector, got shape {x.shape}")
    scale = power_scales(x[None])[0]
    if np.isnan(scale):
        raise NormalizationError(ZERO_POWER)
    return x * scale, scale


def snr_to_sigma2(snr_db: float) -> float:
    """Total complex-noise variance per symbol for unit signal power."""
    return 10.0 ** (-snr_db / 10.0)


def apply_channel(
    x_c: np.ndarray, draws: np.ndarray, cfg: ChannelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """y = h * x + n from (2|4, k) `DRAW_ROWS` draws; elementwise, so a (B, k)
    batch with (B, 2|4, k) draws gives each row exactly its lone result.
    Returns (y, h)."""
    sigma2 = snr_to_sigma2(cfg.snr_db)
    if cfg.kind == "awgn":
        h = np.ones(x_c.shape, dtype=np.complex128)
        unit = draws[..., 0, :] + 1j * draws[..., 1, :]
    else:
        h = (draws[..., 0, :] + 1j * draws[..., 1, :]) / np.sqrt(2.0)
        unit = draws[..., 2, :] + 1j * draws[..., 3, :]
    return h * x_c + np.sqrt(sigma2 / 2.0) * unit, h


def transmit(
    x_c: np.ndarray, cfg: ChannelConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Send symbols through the channel: y = h * x + n.

    AWGN: h = 1 everywhere. Rayleigh: h_i i.i.d. circularly-symmetric complex
    normal, unit variance, re-drawn per symbol (fast fading). The gain vector
    is returned as perfect CSI for the receiver.
    """
    x_c = np.asarray(x_c, dtype=np.complex128)
    return apply_channel(x_c, rng.standard_normal((DRAW_ROWS[cfg.kind], len(x_c))), cfg)


def mmse_equalize(y_c: np.ndarray, h: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-symbol MMSE estimate conj(h)*y/(|h|^2 + sigma2), unpacked to a
    real 2k-vector (row by row for (B, k) inputs). The +sigma2 term
    regularizes vanishing gains."""
    y_c = np.asarray(y_c, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if y_c.shape != h.shape:
        raise ContractError(f"shape mismatch: y {y_c.shape}, h {h.shape}")
    x_hat = np.conj(h) * y_c / (np.abs(h) ** 2 + sigma2)
    return unpack_complex(x_hat)


def zf_equalize(y_c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Zero-forcing reference conj(h)*y/|h|^2 (baseline for MMSE comparisons)."""
    y_c = np.asarray(y_c, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    return unpack_complex(np.conj(h) * y_c / (np.abs(h) ** 2))
