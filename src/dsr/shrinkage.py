"""Scalar and singular-value shrinkage operators.

``nu_shrink`` interpolates between soft thresholding (nu = 1) and hard
thresholding (nu -> 0): values with magnitude at most lam**(1/(2-nu)) are
zeroed, larger ones lose lam*|x|**(nu-1). Applied to singular values it
yields the proximal operators of the nuclear norm and of its nonconvex
low-rank generalization, which is what the solvers apply blockwise.

``prox_low_rank`` routes each block on its own. A block whose Frobenius
norm is at most the threshold maps to zero. Most patch groups keep just one
singular value above the threshold, and for those a few batched k x k
products on the Gram matrix (k = 10 with the default geometry) certify the
rank-1 answer. Every other block falls back to one symmetric
eigendecomposition of its Gram matrix. The fallback took about 4 % of the
blocks of a 64x64x16 decimation solve at lam = 12, 6 % of a 320x240x8 sparse
solve at lam = 6, and about 42 % of a 24x24x8 weight sweep, whose small
weights leave more than one singular value. The rank-1 route agrees with
the eigendecomposition to round-off, below 1e-14 of a block's largest
entry, so results differ from an eigendecomposition-only prox at that level.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericError, all_finite

__all__ = [
    "shrink_threshold",
    "nu_shrink",
    "prox_low_rank",
    "prox_work",
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


def _spectral_shrink(arr: np.ndarray, fn, work=None) -> np.ndarray:
    """Apply fn to the singular values of every matrix in a stack.

    Works through the Gram matrix of the smaller side: with G = B^T B =
    V diag(s**2) V^T, the result is B V diag(fn(s)/s) V^T (for a wide B,
    B B^T and the product on the left). One small symmetric eigenproblem per
    matrix costs about half a full SVD. Singular values below about
    sqrt(eps) * s_max come out inexact, which moves the result by at most
    their size because fn(s) <= s; fn(0) = 0, so directions with s = 0 drop.
    ``work``, when given, is three stacks of at least len(arr) k x k
    matrices: the first holds the Gram matrices already formed, and the
    other two take the scaled eigenvectors and the projector.
    """
    wide = arr.shape[-2] < arr.shape[-1]
    if work is None:
        arr_t = np.swapaxes(arr, -1, -2)
        gram = arr @ arr_t if wide else arr_t @ arr
        scaled = proj = None
    else:
        gram, scaled, proj = (stack[:len(arr)] for stack in work)
    try:
        w, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Gram eigendecomposition failed: {exc}") from exc
    s = np.sqrt(np.maximum(w, 0.0))
    scale = np.divide(fn(s), s, out=np.zeros_like(s), where=s > 0)
    scaled = np.multiply(v, scale[..., None, :], out=scaled)
    proj = np.matmul(scaled, np.swapaxes(v, -1, -2), out=proj)
    return proj @ arr if wide else arr @ proj


#: Repeated squarings of G / tr G that bring out its top eigenvector: the
#: other directions shrink against it by (s2/s1)**(2 * 2**_SQUARINGS).
_SQUARINGS = 5
#: A rank-1 answer is certified only when the residual of its eigenpair is
#: below this share of the spectral gap; that bounds the eigenvector's error.
_GAP_SHARE = 1e-12
_TINY = np.finfo(np.float64).tiny


def _top_eigenpairs(blocks: np.ndarray, tau: float, gram: np.ndarray, sq: np.ndarray,
                    spare: np.ndarray):
    """The rank-1 certificate of ``prox_low_rank`` for each block of a stack.

    Writes the Gram matrices into ``gram`` and squares through ``sq`` and
    ``spare``, three (n, k, k) stacks. Returns the estimated top eigenvector
    v and Rayleigh quotient mu of each Gram matrix, whether the block is
    live (tr G > tau**2), whether its rank-1 answer is certified, and
    whether its Gram trace overflowed. An overflowed block is treated here
    as all-zero (its Gram matrix is zeroed), which neither route touches.
    """
    wide = blocks.shape[-2] < blocks.shape[-1]
    blocks_t = np.swapaxes(blocks, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        if wide:
            np.matmul(blocks, blocks_t, out=gram)
        else:
            np.matmul(blocks_t, blocks, out=gram)
        trace = np.einsum("gii->g", gram)
    overflow = ~np.isfinite(trace)
    if overflow.any():
        gram[overflow] = 0.0
        trace[overflow] = 0.0
    # an all-zero block stays zero through the squarings; the floors keep
    # its divisions finite and never act on a nonzero block, whose
    # normalised square has trace >= 1/k and top column norm >= 1/k
    np.divide(gram, np.where(trace > 0, trace, 1.0)[:, None, None], out=sq)
    for _ in range(_SQUARINGS):
        np.matmul(sq, sq, out=spare)
        sq, spare = spare, sq
        sq /= np.maximum(np.einsum("gii->g", sq), _TINY)[:, None, None]
    top = np.argmax(np.einsum("gii->gi", sq), axis=-1)
    vec = sq[np.arange(len(sq)), :, top]
    vec /= np.maximum(np.linalg.norm(vec, axis=-1), _TINY)[:, None]
    gv = (gram @ vec[..., None])[..., 0]
    mu = np.einsum("gi,gi->g", vec, gv)
    resid = np.linalg.norm(gv - mu[:, None] * vec, axis=-1)
    live = trace > tau * tau
    certified = live & (trace - mu <= tau * tau) & (resid < _GAP_SHARE * (2.0 * mu - trace))
    return vec, mu, live, certified, overflow


def _rescaled_shrink(blocks: np.ndarray, fn) -> np.ndarray:
    """``_spectral_shrink`` for blocks whose Gram matrix overflows.

    Each block is divided by the power of two that brings its largest entry
    into [0.5, 1), which is exact, and its singular values are multiplied
    back before fn, so the result is the block's own prox, unscaled.
    """
    _, exponent = np.frexp(np.abs(blocks).max(axis=(-2, -1)))
    scale = np.ldexp(1.0, exponent)
    return _spectral_shrink(blocks / scale[:, None, None],
                            lambda s: fn(s * scale[:, None]))


def prox_work(n_blocks: int, rows: int, cols: int) -> np.ndarray:
    """Scratch for ``prox_low_rank(..., work=)`` on up to n_blocks blocks of
    rows x cols: the Gram stack and two squaring stacks, each (n, k, k)
    with k = min(rows, cols)."""
    k = min(rows, cols)
    return np.empty((3, n_blocks, k, k))


def prox_low_rank(mat: np.ndarray, lam: float, nu: float, out: np.ndarray | None = None,
                  work: np.ndarray | None = None) -> np.ndarray:
    """Apply ``nu_shrink`` to the singular values; proximal map of the
    nonconvex low-rank penalty, and at nu = 1 singular value soft
    thresholding, the proximal map of lam times the nuclear norm.

    Accepts a single matrix or a stack. Each block B takes one of three
    routes, decided from B alone, so a stack's result does not depend on
    how it is split. Let tau = ``shrink_threshold(lam, nu)``; the shrinkage
    maps every singular value s <= tau to 0. Let G = B^T B (B B^T for a
    wide block), with eigenvalues s1**2 >= s2**2 >= ... summing to tr G.

    - tr G <= tau**2: then s1 <= tau, and the block maps to zero.
    - Certified rank 1: five squarings of G / tr G, each renormalised by its
      trace, give a unit vector v; mu = v^T G v and r = G v - mu v. Since
      mu <= s1**2, every eigenvalue but the top one is at most
      tr G - s1**2 <= tr G - mu. If that is <= tau**2, only s1 survives the
      shrinkage. The gap between mu and the rest is then at least
      d = 2 mu - tr G, and if ||r|| < 1e-12 d, Davis-Kahan bounds the
      angle between v and the top eigenvector by ||r|| / d < 1e-12 (and
      s1**2 - mu by ||r||**2 / d). The block maps to
      B v v^T f(sqrt(mu)) / sqrt(mu) (v v^T B ... for a wide block), within
      about 1e-12 * s1 of the exact prox.
    - Otherwise one eigendecomposition of G (``_spectral_shrink``), reusing
      the Gram matrix the certificate formed.

    A block whose Gram trace overflows (entries above about 1e154) takes
    the last route on an exact power-of-two rescale of itself
    (``_rescaled_shrink``); no other block's bytes depend on it.

    As in numpy, the result is written into ``out`` when it is given: a
    C-contiguous float64 array of the input's shape, which may be ``mat``
    itself, since every block is read before any is written. ``work`` is
    the scratch of ``prox_work`` for at least as many blocks; without it
    the stacks are allocated for this call. Either way the bytes of the
    result are the same.
    """
    _check_lam_nu(lam, nu)
    arr = np.asarray(mat, dtype=np.float64)
    if out is not None and not (isinstance(out, np.ndarray) and out.shape == arr.shape
                                and out.dtype == np.float64 and out.flags.c_contiguous):
        raise DataError(f"out must be a C-contiguous float64 array of shape {arr.shape}")
    if arr.size == 0:
        return np.zeros_like(arr) if out is None else out
    if not all_finite(arr):
        raise DataError("matrix entries must be finite")
    blocks = arr.reshape((-1,) + arr.shape[-2:])
    n, rows, cols = blocks.shape
    if work is None:
        work = prox_work(n, rows, cols)
    gram, sq, spare = work[:, :n]

    def fn(s):
        return np.asarray(nu_shrink(s, lam, nu))

    vec, mu, live, certified, overflow = _top_eigenpairs(blocks, shrink_threshold(lam, nu),
                                                         gram, sq, spare)
    fallback = np.flatnonzero(live & ~certified)
    rescaled = np.flatnonzero(overflow)
    # the fallbacks run before the output is written, so it may be the input
    shrunk = None
    if fallback.size:
        # the fallback blocks' Gram matrices, packed into the free squaring
        # stack; flatnonzero's indices are in range, so the take checks none
        np.take(gram, fallback, axis=0, out=sq[:fallback.size], mode="clip")
        shrunk = _spectral_shrink(blocks[fallback], fn, (sq, spare, gram))
    big = _rescaled_shrink(blocks[rescaled], fn) if rescaled.size else None
    s = np.sqrt(mu, out=np.ones_like(mu), where=certified)
    scaled = np.where(certified, fn(s) / s, 0.0)[:, None] * vec
    if rows < cols:
        left, right = scaled, (vec[:, None, :] @ blocks)[:, 0]
    else:
        left, right = (blocks @ vec[..., None])[..., 0], scaled
    if out is None:
        out = np.empty_like(arr)
    out_blocks = out.reshape(blocks.shape)
    np.einsum("gi,gj->gij", left, right, out=out_blocks)
    if fallback.size:
        out_blocks[fallback] = shrunk
    if rescaled.size:
        out_blocks[rescaled] = big
    return out
