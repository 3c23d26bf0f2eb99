"""Scalar and singular-value shrinkage operators.

``nu_shrink`` interpolates between soft thresholding (nu = 1) and hard
thresholding (nu -> 0): values with magnitude at most lam**(1/(2-nu)) are
zeroed, larger ones lose lam*|x|**(nu-1). Applied to singular values it
yields the proximal operators of the nuclear norm and of its nonconvex
low-rank generalization, which is what the solvers apply blockwise.

``prox_low_rank`` routes each block on its own, and every route ends in the
same product. Each writes a k x k projector P for the block (k = 10 with the
default geometry), and one batched ``matmul`` gives B P, or P B for a wide
block. A block whose Frobenius norm is at most the threshold gets P = 0.
Most patch groups keep just one singular value above the threshold, and for
those six batched mat-vec power steps on the Gram matrix G certify the
rank-1 answer, P = c v v^T, when one bound on the second eigenvalue of G,
from G deflated by v, is at most the squared threshold. Every other block
takes P from one symmetric eigendecomposition of G. The fallback took about
4 % of the blocks of a 64x64x16 decimation solve at lam = 12, 6 % of a
320x240x8 sparse solve at lam = 6, and about 31 % of a 24x24x8 weight
sweep, whose small weights leave more than one singular value. The rank-1
route agrees with the eigendecomposition to round-off, below 1e-12 of a
block's largest entry, so results differ from an eigendecomposition-only
prox at that level.
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
    m = mag[active]
    out[active] = np.maximum(m - lam * m ** (nu - 1.0), 0.0)
    np.negative(out, out=out, where=active & (arr < 0))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _gram(blocks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Gram matrix of the smaller side of each block of a stack: B^T B,
    or B B^T for a wide block."""
    blocks_t = np.swapaxes(blocks, -1, -2)
    if blocks.shape[-2] < blocks.shape[-1]:
        return np.matmul(blocks, blocks_t, out=out)
    return np.matmul(blocks_t, blocks, out=out)


def _projectors(gram: np.ndarray, fn, scale=1.0) -> np.ndarray:
    """The projectors that apply fn to the singular values of a stack.

    ``gram`` holds the Gram matrices of the blocks B / scale, so with
    gram = V diag((s / scale)**2) V^T the singular values of B are s, and
    P = V diag(fn(s) / s) V^T gives B P = U diag(fn(s)) V^T (P B for a wide
    B). One small symmetric eigenproblem per matrix costs about half a full
    SVD. Singular values below about sqrt(eps) * s_max come out inexact,
    which moves the result by at most their size because fn(s) <= s;
    fn(0) = 0, so directions with s = 0 drop.
    """
    try:
        w, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Gram eigendecomposition failed: {exc}") from exc
    s = np.sqrt(np.maximum(w, 0.0)) * scale
    ratio = np.divide(fn(s), s, out=np.zeros_like(s), where=s > 0)
    return (v * ratio[..., None, :]) @ np.swapaxes(v, -1, -2)


#: Mat-vec steps on G / tr G that bring out its top eigenvector: each one
#: shrinks the other directions against it by (s2/s1)**2, and so does the
#: column of G that the steps start from.
_POWER_STEPS = 6
#: A rank-1 answer is certified only when the residual of its eigenpair is
#: below this share of the spectral gap; that bounds the eigenvector's error.
_GAP_SHARE = 1e-12
_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps


def _top_eigenpairs(gram: np.ndarray, trace: np.ndarray, frob2: np.ndarray, tau: float):
    """The rank-1 certificate of ``prox_low_rank`` for each Gram matrix of a
    stack with traces ``trace`` and squared Frobenius norms ``frob2``, all
    finite. Returns the estimated top eigenvector v and Rayleigh quotient mu
    of each, whether its block is live (tr G > tau**2), and whether its
    rank-1 answer is certified by the bound on G deflated by v.
    """
    # start from the column with the largest diagonal; G / tr G has
    # eigenvalues <= 1 and a top one >= 1/k, so six steps neither overflow
    # nor underflow once G v is finite, which a finite ||G||_F**2 ensures,
    # and the floor keeps an all-zero block's divisions finite
    top = np.argmax(np.einsum("gii->gi", gram), axis=-1)
    vec = gram[np.arange(len(gram)), :, top]
    divisor = np.where(trace > 0, trace, 1.0)[:, None]
    for _ in range(_POWER_STEPS):
        vec = np.einsum("gij,gj->gi", gram, vec)
        vec /= divisor
    vec /= np.maximum(np.linalg.norm(vec, axis=-1), _TINY)[:, None]
    gv = np.einsum("gij,gj->gi", gram, vec)
    mu = np.einsum("gi,gi->g", vec, gv)
    resid = np.linalg.norm(gv - mu[:, None] * vec, axis=-1)
    # the tail: tr G - mu, or ||QGQ||_F with 2 k**2 ulps of ||G||_F**2 for
    # the rounding of the sums of at most k**2 products that it cancels
    k = gram.shape[-1]
    tail = np.minimum(trace - mu, np.sqrt(np.maximum(frob2 - mu * mu - 2.0 * resid * resid, 0.0)
                                          + 2.0 * k * k * _EPS * frob2))
    tau2 = tau * tau
    live = trace > tau2
    certified = live & (tail <= tau2) & (resid < _GAP_SHARE * (mu - tail))
    return vec, mu, live, certified


def prox_work(n_blocks: int, rows: int, cols: int) -> np.ndarray:
    """Scratch for ``prox_low_rank(..., work=)`` on up to n_blocks blocks of
    rows x cols: the Gram stack and the projector stack, each (n, k, k)
    with k = min(rows, cols)."""
    k = min(rows, cols)
    return np.empty((2, n_blocks, k, k))


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
    Every route writes a k x k projector P, and the result is B P (P B for
    a wide block), one ``matmul`` for the whole stack.

    - tr G <= tau**2: then s1 <= tau, and P = 0.
    - Certified rank 1: six power steps from the column of G with the
      largest diagonal, each divided by tr G and normalised once at the
      end, give a unit vector v; mu = v^T G v and r = G v - mu v. With
      Q = I - v v^T, Courant-Fischer puts every eigenvalue of G but the top
      one at or below the largest of QGQ, so at or below
      ||QGQ||_F = sqrt(||G||_F**2 - mu**2 - 2 ||r||**2) <= tr QGQ = tr G - mu
      (QGQ is positive semi-definite). The tail t is the smaller of the two
      as computed, the first with 2 k**2 ulps of ||G||_F**2 added to its
      square for the rounding of the sums it cancels: a floor of about
      k sqrt(2 eps) ||G||_F, above tau**2 once s1 > 2000 tau (a flat patch
      of depths in millimetres), that the trace does not carry. If
      t <= tau**2, only s1 survives the shrinkage. The gap between mu and
      the rest is then at least d = mu - t, and if ||r|| < 1e-12 d,
      Davis-Kahan bounds the angle
      between v and the top eigenvector by ||r|| / d < 1e-12 (and
      s1**2 - mu by ||r||**2 / d). Then P = c v v^T with
      c = f(sqrt(mu)) / sqrt(mu), within about 1e-12 * s1 of the exact prox.
    - Otherwise P = V diag(f(s) / s) V^T from one eigendecomposition of G,
      reusing the Gram matrix the certificate formed.

    Every entry of B enters tr G squared, so a NaN or infinite entry makes
    the trace non-finite, and with it ||G||_F**2; so does a finite block
    whose Gram matrix overflows (entries above about 1e154), and ||G||_F**2
    alone overflows from entries of about 1e77, where the power steps
    would. Only the blocks with a non-finite ||G||_F**2 are checked for
    finiteness, and a non-finite entry is a DataError raised before
    ``out`` is written. A finite one takes the eigendecomposition route on
    the Gram matrix of an exact power-of-two rescale of itself, with its
    singular values scaled back before f; no other block's bytes depend
    on it.

    As in numpy, the result is written into ``out`` when it is given: a
    C-contiguous float64 array of the input's shape, which may be ``mat``
    itself (the product then works on a copy of the input). ``work`` is the
    scratch of ``prox_work`` for at least as many blocks; without it the
    stacks are allocated for this call. Either way the bytes of the result
    are the same.
    """
    _check_lam_nu(lam, nu)
    arr = np.asarray(mat, dtype=np.float64)
    if out is not None and not (isinstance(out, np.ndarray) and out.shape == arr.shape
                                and out.dtype == np.float64 and out.flags.c_contiguous):
        raise DataError(f"out must be a C-contiguous float64 array of shape {arr.shape}")
    if arr.size == 0:
        return np.zeros_like(arr) if out is None else out
    blocks = arr.reshape((-1,) + arr.shape[-2:])
    n, rows, cols = blocks.shape
    if work is None:
        work = prox_work(n, rows, cols)
    gram, proj = work[:, :n]
    with np.errstate(over="ignore", invalid="ignore"):
        _gram(blocks, out=gram)
        trace = np.einsum("gii->g", gram)
        frob2 = np.einsum("gij,gij->g", gram, gram)
    # a non-finite trace makes ||G||_F**2 non-finite too
    rescaled = np.flatnonzero(~np.isfinite(frob2))
    if rescaled.size:
        big = blocks[rescaled]
        if not all_finite(big):
            raise DataError("matrix entries must be finite")
        # the certificate sees these blocks as all-zero, so neither route
        # below touches them
        gram[rescaled] = 0.0
        trace[rescaled] = 0.0
        frob2[rescaled] = 0.0

    def fn(s):
        return nu_shrink(s, lam, nu)

    vec, mu, live, certified = _top_eigenpairs(gram, trace, frob2, shrink_threshold(lam, nu))
    s = np.sqrt(mu, out=np.ones_like(mu), where=certified)
    np.einsum("gi,gj->gij", np.where(certified, fn(s) / s, 0.0)[:, None] * vec, vec, out=proj)
    fallback = np.flatnonzero(live & ~certified)
    if fallback.size:
        proj[fallback] = _projectors(gram[fallback], fn)
    if rescaled.size:
        _, exponent = np.frexp(np.abs(big).max(axis=(-2, -1)))
        scale = np.ldexp(1.0, exponent)
        big /= scale[:, None, None]
        proj[rescaled] = _projectors(_gram(big), fn, scale[:, None])
    if out is None:
        out = np.empty_like(arr)
    out_blocks = out.reshape(blocks.shape)
    if rows < cols:
        np.matmul(proj, blocks, out=out_blocks)
    else:
        np.matmul(blocks, proj, out=out_blocks)
    return out
