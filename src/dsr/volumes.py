"""Space-time volumes, the sampling forward model, noise injection and metrics.

A volume is a scalar field over a W x H x T pixel grid stored as a flat
float64 array in frame-major, row-major order: ``index = t*W*H + y*W + x``.
Coordinates are (x right, y down, t forward). Measurement operators are pure
selections (decimation grids or boolean masks), so their normal matrix is
diagonal with 0/1 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, all_finite, check_seed

__all__ = [
    "FrameDims",
    "DepthVolume",
    "IntensityVolume",
    "SamplingOperator",
    "Measurements",
    "apply_sampling",
    "add_noise",
    "snr_db",
    "per_frame_snr",
    "linear_interpolate",
    "mask_fill",
]


@dataclass(frozen=True)
class FrameDims:
    """Pixel grid dimensions of a video volume."""

    width: int
    height: int
    frames: int

    def __post_init__(self):
        for name in ("width", "height", "frames"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v <= 0:
                raise DataError(f"{name} must be a positive integer, got {v!r}")

    @property
    def total_voxels(self) -> int:
        return self.width * self.height * self.frames


@dataclass
class _Volume:
    """Scalar field on a pixel grid: validated flat values plus (T, H, W) views."""

    dims: FrameDims
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if arr.size != self.dims.total_voxels:
            raise DataError(f"value array has {arr.size} entries, "
                            f"dims require {self.dims.total_voxels}")
        if not all_finite(arr):
            raise DataError("volume values must be finite")
        self.values = arr

    @classmethod
    def from_frames(cls, frames: np.ndarray):
        """Build from a (T, H, W) array."""
        arr = np.asarray(frames, dtype=np.float64)
        if arr.ndim != 3:
            raise DataError(f"expected (T, H, W) array, got shape {arr.shape}")
        t, h, w = arr.shape
        return cls(FrameDims(w, h, t), arr.reshape(-1))

    def frames(self) -> np.ndarray:
        """Values reshaped to (T, H, W)."""
        d = self.dims
        return self.values.reshape(d.frames, d.height, d.width)


class DepthVolume(_Volume):
    """Dense depth sequence in scene-relative units."""


class IntensityVolume(_Volume):
    """Dense intensity sequence, values normalized to [0, 1]."""

    def __post_init__(self):
        super().__post_init__()
        if self.values.size and (self.values.min() < 0.0 or self.values.max() > 1.0):
            raise DataError("intensity values must lie in [0, 1]")


class SamplingOperator:
    """Selection-type measurement operator.

    Either a regular decimation grid (every ``factor``-th pixel per spatial
    axis, phase (0, 0), all frames) or an arbitrary boolean mask over voxels.
    Each measurement reads exactly one voxel; measurements are ordered by the
    flat voxel index of the selected voxels.
    """

    def __init__(self, kind: str, dims: FrameDims, factor: int | None = None,
                 mask: np.ndarray | None = None):
        if kind not in ("decimation", "mask"):
            raise DataError(f"unknown sampling kind {kind!r}")
        self.kind = kind
        self.dims = dims
        self.factor = factor
        if kind == "decimation":
            if factor is None or factor < 1:
                raise DataError("decimation factor must be >= 1")
            w, h = dims.width, dims.height
            sel = np.zeros((h, w), dtype=bool)
            sel[::factor, ::factor] = True
            self.mask = np.tile(sel.reshape(-1), dims.frames)
        else:
            m = np.asarray(mask, dtype=bool).reshape(-1)
            if m.size != dims.total_voxels:
                raise DataError(
                    f"mask has {m.size} entries, dims require {dims.total_voxels}"
                )
            self.mask = m
        self.indices = np.flatnonzero(self.mask)

    @classmethod
    def decimation(cls, dims: FrameDims, factor: int) -> "SamplingOperator":
        return cls("decimation", dims, factor=factor)

    @classmethod
    def from_mask(cls, dims: FrameDims, mask: np.ndarray) -> "SamplingOperator":
        return cls("mask", dims, mask=mask)

    @property
    def n_measurements(self) -> int:
        return int(self.indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SamplingOperator):
            return NotImplemented
        return (self.kind == other.kind and self.dims == other.dims
                and np.array_equal(self.mask, other.mask))

    def __repr__(self) -> str:
        if self.kind == "decimation":
            return f"SamplingOperator(decimation x{self.factor}, {self.dims})"
        return f"SamplingOperator(mask, M={self.n_measurements}, {self.dims})"


@dataclass
class Measurements:
    """Measured depth values paired with the operator that produced them."""

    values: np.ndarray
    operator: SamplingOperator

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if self.values.size != self.operator.n_measurements:
            raise DataError(
                f"{self.values.size} values for an operator with "
                f"{self.operator.n_measurements} measurements"
            )


def apply_sampling(op: SamplingOperator, vol: DepthVolume) -> Measurements:
    """Read the selected voxels of ``vol`` in fixed scan order."""
    if vol.dims != op.dims:
        raise DataError(f"volume dims {vol.dims} do not match operator dims {op.dims}")
    return Measurements(vol.values[op.indices].copy(), op)


def _sum_squares(x: np.ndarray) -> float:
    """The sum of squares of ``x``, any shape, by one ``einsum`` loop: unlike
    the BLAS dot of ``x @ x`` or ``np.linalg.norm``, it sums in an order
    that does not follow the BLAS thread count. It does not copy a
    C-contiguous ``x``. Every norm and SNR of the package sums here."""
    flat = x.reshape(-1)
    return float(np.einsum("i,i->", flat, flat))


def _norm(x: np.ndarray) -> float:
    """The 2-norm of ``x``, the root of ``_sum_squares``. Where that sum
    overflows, the same norm by ``hypot``, which rescales as it goes; every
    finite plain norm is returned as it is."""
    with np.errstate(over="ignore"):
        norm = math.sqrt(_sum_squares(x))
    return norm if math.isfinite(norm) else float(np.hypot.reduce(x.reshape(-1)))


def snr_db(ref, est) -> float:
    """Signal-to-noise ratio 10*log10(||ref||^2 / ||ref - est||^2) in dB.

    Returns +inf when the estimate equals the reference exactly.
    """
    r = np.asarray(ref, dtype=np.float64).reshape(-1)
    e = np.asarray(est, dtype=np.float64).reshape(-1)
    if r.size != e.size:
        raise DataError(f"length mismatch: ref has {r.size}, est has {e.size}")
    ref_power = _sum_squares(r)
    if ref_power == 0.0:
        raise DataError("SNR undefined for an all-zero reference")
    err_power = _sum_squares(r - e)
    if err_power == 0.0:
        return float(np.inf)
    return 10.0 * float(np.log10(ref_power / err_power))


def per_frame_snr(ref: DepthVolume, est: DepthVolume) -> np.ndarray:
    """SNR in dB of each frame separately, in frame order."""
    if ref.dims != est.dims:
        raise DataError(f"dims mismatch: ref {ref.dims}, est {est.dims}")
    r = ref.frames()
    e = est.frames()
    return np.array([snr_db(r[k], e[k]) for k in range(ref.dims.frames)])


def add_noise(m: Measurements, target_snr_db: float, seed: int) -> Measurements:
    """Add white Gaussian noise rescaled to hit the target SNR exactly.

    The noise realization is seeded and then scaled so that
    ``snr_db(m.values, out.values)`` equals ``target_snr_db`` up to float
    rounding, which keeps acceptance thresholds reproducible. A target of
    +inf disables noise and returns a copy. A negative seed is a DataError
    either way.
    """
    check_seed(seed)
    if np.isinf(target_snr_db) and target_snr_db > 0:
        return Measurements(m.values.copy(), m.operator)
    lowest = -20.0 * np.log10(np.finfo(np.float64).max)  # below it 10 ** (-snr / 20) overflows
    if not target_snr_db > lowest:
        raise DataError(f"target SNR must be +inf or finite above {lowest:.1f} dB, "
                        f"got {target_snr_db}")
    signal_norm = _norm(m.values)
    if signal_norm == 0.0:
        raise DataError("cannot set an SNR target on all-zero measurements")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(m.values.size)
    scale = signal_norm * 10.0 ** (-target_snr_db / 20.0) / _norm(noise)
    return Measurements(m.values + scale * noise, m.operator)


def _bilinear_axis(coords: np.ndarray, step: int, n_samples: int):
    """Lower sample index and fractional weight for each target coordinate."""
    i0 = np.minimum(coords // step, n_samples - 1)
    i1 = np.minimum(i0 + 1, n_samples - 1)
    frac = (coords - i0 * step) / float(step)
    # beyond the last sample i1 == i0, so the frac term cancels (edge replication)
    return i0, i1, frac


def linear_interpolate(m: Measurements, hi_dims: FrameDims,
                       out: np.ndarray | None = None) -> DepthVolume:
    """Per-frame bilinear upsampling of decimation measurements to the full grid.

    Exact at sample locations; rows/columns beyond the last sample replicate
    the nearest sampled value. The values go into the flat float64 array
    ``out`` when given, which the result then holds.
    """
    op = m.operator
    if op.kind != "decimation":
        raise DataError("linear_interpolate requires a decimation operator "
                        "(use mask_fill for mask measurements)")
    if op.dims != hi_dims:
        raise DataError(f"operator dims {op.dims} do not match target dims {hi_dims}")
    f = op.factor
    w, h, t = hi_dims.width, hi_dims.height, hi_dims.frames
    nx = len(range(0, w, f))
    ny = len(range(0, h, f))
    low = m.values.reshape(t, ny, nx)

    xi0, xi1, xf = _bilinear_axis(np.arange(w), f, nx)
    yi0, yi1, yf = _bilinear_axis(np.arange(h), f, ny)
    xf = xf[np.newaxis, :]
    yf = yf[:, np.newaxis]

    out = np.empty((t, h, w)) if out is None else out.reshape(t, h, w)
    for k in range(t):
        g = low[k]
        top = g[np.ix_(yi0, xi0)] * (1.0 - xf) + g[np.ix_(yi0, xi1)] * xf
        bot = g[np.ix_(yi1, xi0)] * (1.0 - xf) + g[np.ix_(yi1, xi1)] * xf
        out[k] = top * (1.0 - yf) + bot * yf
    return DepthVolume(hi_dims, out.reshape(-1))


def _nearest_sample(mask: np.ndarray) -> np.ndarray:
    """Scan index of the nearest True pixel of an (H, W) mask, for every pixel.

    Distance is Euclidean; ties go to the smallest scan index ``y*W + x``.
    The mask must hold at least one True pixel. Each candidate is ranked by
    the exact int64 key ``d2 * (W*H) + scan_index``, so the smallest key is
    the (distance, scan index) minimum. First every column's nearest sample
    is found from running maxima and minima of the measured rows (the upper
    row wins an equal split), then column offsets dx = 1, 2, ... are swept
    until ``dx**2 * (W*H)`` exceeds every key held, the second pass of
    Felzenszwalb and Huttenlocher's separable distance transform done as a
    bounded brute force over columns. Cost: O(H*W * largest distance to a
    column's nearest sample).
    """
    h, w = mask.shape
    n = h * w
    rows = np.arange(h, dtype=np.int64)[:, None]
    # rows -h and 2h stand for "none": farther than any sample of the column
    above = np.maximum.accumulate(np.where(mask, rows, -h), axis=0)
    below = np.minimum.accumulate(np.where(mask, rows, 2 * h)[::-1], axis=0)[::-1]
    d_above = rows - above
    d_below = below - rows
    take_above = d_above <= d_below
    dy = np.where(take_above, d_above, d_below)
    key = dy * dy * n + np.where(take_above, above, below) * w + np.arange(w)
    key[:, ~mask.any(axis=0)] = (w * w + h * h) * n  # beyond every real key

    best = key.copy()
    for dx in range(1, w):
        step = dx * dx * n
        if step > best.max():
            break
        np.minimum(best[:, dx:], key[:, :-dx] + step, out=best[:, dx:])
        np.minimum(best[:, :-dx], key[:, dx:] + step, out=best[:, :-dx])
    return best % n


def mask_fill(m: Measurements, out: np.ndarray | None = None) -> DepthVolume:
    """Fill unmeasured voxels with the nearest measured voxel in the same frame.

    Distance is Euclidean in pixel coordinates; ties go to the measured voxel
    with the smallest scan index. Measured voxels keep their values. The
    values go into the flat float64 array ``out`` when given, which the
    result then holds.
    """
    op = m.operator
    if op.kind != "mask":
        raise DataError("mask_fill requires a mask operator")
    w, h, t = op.dims.width, op.dims.height, op.dims.frames
    mask = op.mask.reshape(t, h, w)
    out = np.zeros((t, h * w)) if out is None else out.reshape(t, h * w)
    out.reshape(-1)[op.indices] = m.values

    for k in range(t):
        if not mask[k].any():
            raise DataError(f"frame {k} has no measurements to fill from")
        out[k] = out[k][_nearest_sample(mask[k]).reshape(-1)]
    return DepthVolume(op.dims, out.reshape(-1))

