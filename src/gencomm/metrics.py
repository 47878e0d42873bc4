"""Latent-domain quality metrics."""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError

FRECHET_JITTER = 1e-8


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix; negative rounding
    residue in its eigenvalues is clipped to 0."""
    vals, vecs = np.linalg.eigh(mat)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def mse(a: np.ndarray, b: np.ndarray):
    """Mean squared error over the last axis: a float for two vectors, one
    value per row for two (B, d) batches (each equal to the rows' lone mse)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError(f"shape mismatch: {a.shape} vs {b.shape}")
    out = np.mean((a - b) ** 2, axis=-1)
    return float(out) if out.ndim == 0 else out


def psnr(mse_value: float, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; +inf at zero error."""
    if mse_value < 0.0:
        raise ContractError(f"mse must be >= 0, got {mse_value}")
    if mse_value == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse_value)


def frechet_gauss(batch_a: np.ndarray, batch_b: np.ndarray) -> float:
    """Frechet distance between the Gaussian fits of two latent batches:
    |mu_a - mu_b|^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2)).

    Computed on raw latent statistics (not Inception features, so values are
    not comparable to published FID numbers). The matrix square root uses
    symmetric eigendecompositions; near-singular covariances get a
    diagonal jitter of 1e-8.
    """
    batch_a = np.asarray(batch_a, dtype=np.float64)
    batch_b = np.asarray(batch_b, dtype=np.float64)
    if batch_a.ndim != 2 or batch_b.ndim != 2 or batch_a.shape[1] != batch_b.shape[1]:
        raise ContractError("batches must be 2-d with a common feature dimension")
    d = batch_a.shape[1]
    if len(batch_a) < d + 1 or len(batch_b) < d + 1:
        raise ContractError(f"need at least {d + 1} samples per batch for a {d}-dim fit")
    mu_a = batch_a.mean(axis=0)
    mu_b = batch_b.mean(axis=0)
    cov_a = np.cov(batch_a, rowvar=False, ddof=1)
    cov_b = np.cov(batch_b, rowvar=False, ddof=1)
    if min(np.linalg.eigvalsh(cov_a).min(), np.linalg.eigvalsh(cov_b).min()) < FRECHET_JITTER:
        cov_a = cov_a + FRECHET_JITTER * np.eye(d)
        cov_b = cov_b + FRECHET_JITTER * np.eye(d)

    # tr((S_a S_b)^(1/2)) via the symmetric similar matrix A^(1/2) S_b A^(1/2).
    root_a = psd_sqrt(cov_a)
    inner = root_a @ cov_b @ root_a
    inner_vals = np.linalg.eigvalsh(inner)
    trace_root = float(np.sum(np.sqrt(np.clip(inner_vals, 0.0, None))))
    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * trace_root)
