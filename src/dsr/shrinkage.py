"""Scalar and singular-value shrinkage operators.

``nu_shrink`` interpolates between soft thresholding (nu = 1) and hard
thresholding (nu -> 0): values with magnitude at most lam**(1/(2-nu)) are
zeroed, larger ones lose lam*|x|**(nu-1). Applied to singular values it
yields the proximal operators of the nuclear norm and of its nonconvex
low-rank generalization, which is what the solvers apply blockwise.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericError

__all__ = [
    "shrink_threshold",
    "nu_shrink",
    "prox_nuclear",
    "prox_low_rank",
]


def _check_lam_nu(lam: float, nu: float) -> None:
    if not lam > 0:
        raise DataError(f"lam must be positive, got {lam}")
    if not 0.0 <= nu <= 1.0:
        raise DataError(f"nu out of range: {nu}")


def shrink_threshold(lam: float, nu: float) -> float:
    """Magnitude below which the shrinkage maps to zero: lam**(1/(2-nu))."""
    return float(lam ** (1.0 / (2.0 - nu)))


def nu_shrink(x, lam: float, nu: float):
    """Pointwise shrinkage sign(x) * max(0, |x| - lam*|x|**(nu-1)).

    nu = 1 is classical soft thresholding; nu = 0 is the hard-thresholding
    limit. Accepts scalars or arrays; zero maps to zero.
    """
    _check_lam_nu(lam, nu)
    arr = np.asarray(x, dtype=np.float64)
    mag = np.abs(arr)
    out = np.zeros_like(arr)
    active = mag > shrink_threshold(lam, nu)
    if np.any(active):
        m = mag[active]
        out[active] = np.sign(arr[active]) * np.maximum(m - lam * m ** (nu - 1.0), 0.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _spectral_shrink(mat: np.ndarray, fn) -> np.ndarray:
    """Apply fn to the singular values of every matrix in a stack.

    Works through the Gram matrix of the smaller side: with G = B^T B =
    V diag(s**2) V^T, the result is B V diag(fn(s)/s) V^T (for a wide B,
    B B^T and the product on the left). One small symmetric eigenproblem per
    matrix costs about half a full SVD. Singular values below about
    sqrt(eps) * s_max come out inexact, which moves the result by at most
    their size because fn(s) <= s; fn(0) = 0, so directions with s = 0 drop.
    """
    arr = np.asarray(mat, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError("matrix entries must be finite")
    wide = arr.shape[-2] < arr.shape[-1]
    arr_t = np.swapaxes(arr, -1, -2)
    try:
        w, v = np.linalg.eigh(arr @ arr_t if wide else arr_t @ arr)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Gram eigendecomposition failed: {exc}") from exc
    s = np.sqrt(np.maximum(w, 0.0))
    scale = np.divide(fn(s), s, out=np.zeros_like(s), where=s > 0)
    proj = (v * scale[..., None, :]) @ np.swapaxes(v, -1, -2)
    return proj @ arr if wide else arr @ proj


def prox_nuclear(mat: np.ndarray, lam: float) -> np.ndarray:
    """Singular value soft thresholding, the proximal map of lam * nuclear norm.

    Accepts a single matrix or a stack of matrices (leading axes broadcast).
    """
    if lam < 0:
        raise DataError(f"lam must be nonnegative, got {lam}")
    if lam == 0:
        return np.asarray(mat, dtype=np.float64).copy()
    return prox_low_rank(mat, lam, 1.0)


def prox_low_rank(mat: np.ndarray, lam: float, nu: float) -> np.ndarray:
    """Apply ``nu_shrink`` to the singular values; proximal map of the
    nonconvex low-rank penalty. Reduces to ``prox_nuclear`` at nu = 1."""
    _check_lam_nu(lam, nu)
    return _spectral_shrink(mat, lambda s: np.asarray(nu_shrink(s, lam, nu)))
