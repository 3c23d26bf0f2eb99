"""Motion-adaptive block matching and the patch gather/scatter operators.

Reference patches sit on a stride grid per frame (last row/column clamped so
borders stay covered). For each reference, the L most similar patches inside
a clamped space-time search window are grouped; similarity is the sum of
squared differences on the guide volume, so grouping follows object motion
without explicit motion estimation. A group is stored once, as the flat
voxel index of each member's top-left pixel. Grouped patches form B x L
blocks whose columns are vectorized patches, gathered one chunk of groups at
a time through the table's gather index; ``scatter_sum`` adds block entries
back, and the diagonal of the composed operator is the per-voxel reference
count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .volumes import FrameDims

__all__ = ["PatchGeometry", "PatchGroupTable", "check_geometry", "build_groups",
           "scatter_sum", "compute_counts"]

#: Groups per chunk of the solver's gather -> prox -> scatter pass, which
#: holds one chunk's index and blocks at a time, and about the references
#: per band of block matching. Results do not depend on it (chunks are
#: added in table order, bands write disjoint rows), only memory and speed do.
CHUNK_GROUPS = 256


@dataclass(frozen=True)
class PatchGeometry:
    """Patch, stride, search window and group-size settings.

    The search covers top-left offsets up to wx // 2 and wy // 2 either way,
    so an even extent searches wx + 1 columns (wy + 1 rows).
    """

    patch_side: int = 5
    stride: int = 3
    window: tuple[int, int, int] = (11, 11, 3)  # (wx, wy, wt)
    group_size: int = 10

    def __post_init__(self):
        if self.patch_side < 1:
            raise DataError("patch_side must be >= 1")
        if not 1 <= self.stride <= self.patch_side:
            raise DataError("stride must satisfy 1 <= stride <= patch_side "
                            "(full coverage requires overlapping or abutting patches)")
        if len(self.window) != 3 or min(self.window) < 1:
            raise DataError(f"window needs three positive extents, got {self.window}")
        if self.window[2] % 2 == 0:
            raise DataError("temporal window extent must be odd")
        if self.group_size < 1:
            raise DataError("group_size must be >= 1")


def grid_positions(extent: int, patch_side: int, stride: int) -> list[int]:
    """Stride-grid top-left positions along one axis, last position clamped."""
    last = extent - patch_side
    if last < 0:
        raise DataError(f"patch side {patch_side} exceeds axis extent {extent}")
    pos = list(range(0, last + 1, stride))
    if pos[-1] != last:
        pos.append(last)
    return pos


@dataclass(frozen=True)
class PatchGroupTable:
    """All patch groups for a volume, in packed array form; a read-only value.

    ``top_left`` holds, with shape (P, L), the flat voxel index
    ((t * H) + y) * W + x of each member's top-left pixel; column 0 is the
    reference of group p. Its type must be ``_index_dtype(dims)``, which
    ``build_groups`` stores, 4 bytes per member below 2**31 voxels. A group
    whose search window held fewer candidates than the group size repeats
    the reference in its last columns to keep the block shape fixed; no
    real candidate equals the reference. Every entry is checked once, here,
    to be a patch position inside the volume, so every gather index lies in
    [0, total_voxels) and the solver's gathers check none. The (x, y, t)
    members are decoded from it on each access. Gather indices are built on
    demand, one chunk of groups at a time into the caller's int64 buffer,
    and ``compute_counts`` makes the reference counts.
    """

    geometry: PatchGeometry
    dims: FrameDims
    top_left: np.ndarray

    def __post_init__(self):
        d, ps, top = self.dims, self.geometry.patch_side, self.top_left
        if not (isinstance(top, np.ndarray) and top.ndim == 2
                and top.shape[1] == self.geometry.group_size
                and top.dtype == _index_dtype(d)):
            raise DataError(f"top_left must be a 2-D integer array with "
                            f"{self.geometry.group_size} columns of type {_index_dtype(d)}, "
                            f"got {getattr(top, 'dtype', type(top).__name__)} of shape "
                            f"{np.shape(top)}")
        for start in range(0, self.n_groups, CHUNK_GROUPS):
            x, y, t = self._decode(slice(start, start + CHUNK_GROUPS))
            if (t.min() < 0 or t.max() >= d.frames
                    or y.max() > d.height - ps or x.max() > d.width - ps):
                raise DataError("group table members lie outside the volume")

    def _decode(self, key) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, t) of the entries ``top_left[key]``; x and y lie in the frame."""
        w, v = self.dims.width, self.top_left[key]
        return v % w, v // w % self.dims.height, v // (w * self.dims.height)

    @property
    def n_groups(self) -> int:
        return self.top_left.shape[0]

    @property
    def members(self) -> np.ndarray:
        """(x, y, t) of every member, shape (P, L, 3), int32."""
        return np.stack(self._decode(slice(None)), axis=-1, dtype=np.int32)

    @property
    def references(self) -> np.ndarray:
        """(x, y, t) of every reference, shape (P, 3), int32."""
        return np.stack(self._decode((slice(None), 0)), axis=-1, dtype=np.int32)

    def gather_indices(self, groups: slice, out: np.ndarray) -> np.ndarray:
        """Flat voxel index per (group, in-patch pixel, member), shape (p, B, L),
        for the groups in ``groups``, written into ``out`` and returned.

        One add whose innermost run is a whole B * L row: the chunk's rows
        tiled B times plus each in-patch offset repeated L times, in the
        table's type, which holds every voxel index."""
        top = self.top_left[groups]
        ps, size = self.geometry.patch_side, top.shape[1]
        pixel = np.arange(ps, dtype=top.dtype)
        off = np.repeat((pixel[:, None] * self.dims.width + pixel).reshape(-1), size)
        np.add(np.tile(top, ps * ps), off, out=out.reshape(len(top), -1))
        return out

    def chunk_shape(self) -> tuple[int, int, int]:
        """Shape (groups, B, L) of the largest chunk ``chunks`` yields."""
        geom = self.geometry
        return min(CHUNK_GROUPS, self.n_groups), geom.patch_side ** 2, geom.group_size

    def chunks(self, index: np.ndarray):
        """Yield (groups, gather_indices(groups)) for consecutive runs of
        ``CHUNK_GROUPS`` groups, in table order. Every index is written into
        ``index``, an int64 buffer of ``chunk_shape()``, so each holds only
        until the next chunk is yielded."""
        for start in range(0, self.n_groups, CHUNK_GROUPS):
            groups = slice(start, min(start + CHUNK_GROUPS, self.n_groups))
            yield groups, self.gather_indices(groups, index[:groups.stop - start])


def _worker_count() -> int:
    """Cores this process may run on; matching uses all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _runs(positions: list[int], stride: int, first: int, stop: int):
    """Grid indices [first, stop) as (index slice, position slice) pairs: one
    run on the stride grid, one for the clamped last position."""
    regular = positions[-1] // stride + 1
    return [(slice(a, b), slice(positions[a], positions[b - 1] + 1, stride))
            for a, b in ((first, min(stop, regular)), (max(first, regular), stop))
            if a < b]


@dataclass
class _Workspace:
    """One worker's buffers, sized for the largest band: the distances, a
    copy to partition, the selection masks, and the squared differences of
    one row of offsets."""

    dist: np.ndarray
    part: np.ndarray
    keep: np.ndarray
    tie: np.ndarray
    diff: np.ndarray

    @classmethod
    def allocate(cls, n_refs: int, n_offsets: int, diff_size: int) -> "_Workspace":
        grid = (n_refs, n_offsets)
        return cls(np.empty(grid), np.empty(grid), np.empty(grid, bool),
                   np.empty(grid, bool), np.empty(diff_size))

    @staticmethod
    def nbytes(n_refs: int, n_offsets: int, diff_size: int) -> int:
        """The bytes ``allocate`` takes, as a Python int."""
        return n_refs * n_offsets * (8 + 8 + 1 + 1) + diff_size * 8


def _select(flat: np.ndarray, n_sel: int, ws: _Workspace) -> np.ndarray:
    """Column indices of the n_sel smallest entries of each row, ordered by
    (value, column) as by a stable argsort. A partition finds each row's
    n_sel-th value; the entries below it and the leftmost entries equal to
    it make up the n_sel, and only those are sorted."""
    n, width = flat.shape
    part = ws.part[:n]
    np.copyto(part, flat)
    part.partition(n_sel - 1, axis=1)
    kth = part[:, n_sel - 1:n_sel]
    keep = np.less(flat, kth, out=ws.keep[:n])
    tie = np.equal(flat, kth, out=ws.tie[:n])
    # of the entries equal to the n_sel-th value, keep the leftmost ones
    need = n_sel - np.count_nonzero(keep, axis=1)
    ties = np.flatnonzero(tie)
    row = ties // width
    per_row = np.bincount(row, minlength=n)
    rank = np.arange(len(ties)) - (np.cumsum(per_row) - per_row)[row]
    keep.reshape(-1)[ties[rank < need[row]]] = True
    cols = (np.flatnonzero(keep) % width).reshape(n, n_sel)
    vals = np.take_along_axis(flat, cols, axis=1)
    return np.take_along_axis(cols, np.argsort(vals, axis=1, kind="stable"), axis=1)


def _run_units(units, work, workspaces) -> None:
    """Call work(unit, workspace) for every unit. The calling thread takes
    the first workspace, one helper thread each of the others, and all draw
    units in order from one queue. Every helper has ended before this
    returns; the first exception raised in any of them is raised here."""
    lock = threading.Lock()
    todo = iter(units)
    errors = []

    def drain(ws):
        try:
            while not errors:
                with lock:
                    unit = next(todo, None)
                if unit is None:
                    return
                work(unit, ws)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    started = []
    try:
        for ws in workspaces[1:]:
            helper = threading.Thread(target=drain, args=(ws,))
            helper.start()
            started.append(helper)
        drain(workspaces[0])
    finally:
        for helper in started:
            helper.join()
    if errors:
        raise errors[0]


def _index_dtype(dims: FrameDims) -> np.dtype:
    """The integer type of a group table on a volume of ``dims``: int32 while
    it holds the voxel count, so every flat index and every in-patch sum,
    else int64."""
    return np.dtype(np.int32 if dims.total_voxels <= np.iinfo(np.int32).max else np.int64)


def check_geometry(dims: FrameDims, geom: PatchGeometry) -> None:
    """Raise DataError when ``build_groups`` on a volume of ``dims`` would
    allocate a group table, bordered guide or band workspace larger than
    numpy can address. The sizes are Python ints and nothing is allocated;
    a size that numpy can address but memory cannot hold passes, and so
    does a patch larger than a frame, which ``build_groups`` rejects."""
    w, h, ps = dims.width, dims.height, geom.patch_side
    if ps > min(w, h):
        return
    wx, wy, wt = geom.window
    ys, xs = (grid_positions(n, ps, geom.stride) for n in (h, w))
    band = max(1, CHUNK_GROUPS // len(xs)) * len(xs)
    dx, dy = 2 * (wx // 2) + 1, 2 * (wy // 2) + 1  # offsets searched along x and y
    sizes = {"group table": (dims.frames * len(ys) * len(xs) * geom.group_size
                             * _index_dtype(dims).itemsize),
             "bordered guide": dims.frames * (h + dy - 1) * (w + dx - 1) * 8,
             "band workspace": _Workspace.nbytes(band, wt * dy * dx, band * dx * ps * ps)}
    for what, size in sizes.items():
        if size > np.iinfo(np.intp).max:
            raise DataError(f"window {geom.window} and group size {geom.group_size} need a "
                            f"{what} of {size} bytes on {w}x{h}x{dims.frames}, more than "
                            "numpy can address")


def build_groups(guide, geom: PatchGeometry) -> PatchGroupTable:
    """Match patches on the guide volume and return the group table.

    Candidates are every patch position whose top-left falls in the search
    window centered on the reference (clamped at the volume borders), across
    the temporally adjacent frames. The L smallest SSD candidates are kept,
    ties broken lexicographically by (t, y, x); the reference always comes
    first. Matching depends only on the guide, never on the depth being
    reconstructed.

    Each frame's reference grid is cut into bands of whole grid rows of about
    ``CHUNK_GROUPS`` references. The bands are matched on every usable core;
    each writes only its own rows of the table, so the table does not depend
    on the number of workers or on the band size. A geometry that fails
    ``check_geometry`` is a DataError before anything is allocated.
    """
    w, h, t_total = guide.dims.width, guide.dims.height, guide.dims.frames
    ps = geom.patch_side
    if ps > min(w, h):
        raise DataError(f"patch side {ps} exceeds frame size {w}x{h}")
    check_geometry(guide.dims, geom)
    wx, wy, wt = geom.window
    half_x, half_y, half_t = wx // 2, wy // 2, (wt - 1) // 2

    # an inf border makes every candidate outside the frame score inf; in the
    # bordered frame, the window of a reference at (y, x) starts at (y, x)
    bordered = np.pad(guide.frames(), ((0, 0), (half_y, half_y), (half_x, half_x)),
                      constant_values=np.inf)
    windows = sliding_window_view(bordered, (ps, ps), axis=(1, 2))
    # SSD per reference and window offset (dt, dy, dx), offsets ascending: the
    # candidate (t, y, x) ascends with the offset, so the (value, offset)
    # order of a row is the (dist, t, y, x) order; the center offset is the
    # reference itself, and delta is each offset's step in the flat index
    shape = (2 * half_t + 1, 2 * half_y + 1, 2 * half_x + 1)
    n_offsets = shape[0] * shape[1] * shape[2]
    center = n_offsets // 2
    off_t, off_y, off_x = np.indices(shape, dtype=np.int64).reshape(3, -1)
    delta = ((off_t - half_t) * h + off_y - half_y) * w + off_x - half_x
    # row_windows[u, y, x, dx] is the candidate window at (y, x + dx)
    row_windows = np.moveaxis(sliding_window_view(windows, shape[2], axis=2), -1, 3)
    ys, xs = (grid_positions(n, ps, geom.stride) for n in (h, w))
    band_rows = max(1, CHUNK_GROUPS // len(xs))
    x_runs = _runs(xs, geom.stride, 0, len(xs))
    # flat index of each reference's top-left pixel in frame 0, grid order
    refs = (np.array(ys, dtype=np.int64)[:, None] * w + xs).reshape(-1)
    top_left = np.empty((t_total, len(refs), geom.group_size),
                        dtype=_index_dtype(guide.dims))
    n_sel = min(geom.group_size - 1, n_offsets)

    def match(unit, ws):
        t, first = unit
        stop = min(first + band_rows, len(ys))
        n = (stop - first) * len(xs)
        dist = ws.dist[:n].reshape(stop - first, len(xs), *shape)
        dt_range = range(max(0, half_t - t), min(shape[0], t_total + half_t - t))
        dist[:, :, :dt_range.start] = np.inf
        dist[:, :, dt_range.stop:] = np.inf
        for iy, py in _runs(ys, geom.stride, first, stop):
            rows = slice(iy.start - first, iy.stop - first)
            for ix, px in x_runs:
                ref = windows[t, py.start + half_y:py.stop + half_y:py.step,
                              px.start + half_x:px.stop + half_x:px.step, None]
                diff = ws.diff[:ref.shape[0] * ref.shape[1] * shape[2] * ps * ps]
                diff = diff.reshape(ref.shape[0], ref.shape[1], shape[2], ps, ps)
                for dt in dt_range:
                    cands = row_windows[t + dt - half_t]
                    for dy in range(shape[1]):
                        np.subtract(cands[py.start + dy:py.stop + dy:py.step, px], ref,
                                    out=diff)
                        np.square(diff, out=diff)
                        # numpy's sum of each contiguous patch vector: the
                        # same additions, in the same order, for every band
                        diff.reshape(diff.shape[:3] + (-1,)).sum(
                            axis=-1, out=dist[rows, ix, dt, dy])
        flat = dist.reshape(n, n_offsets)
        flat[:, center] = np.inf
        out = top_left[t, first * len(xs):stop * len(xs)]
        out[:] = (refs[first * len(xs):stop * len(xs)] + t * h * w)[:, None]
        if n_sel:
            pick = _select(flat, n_sel, ws)
            # an inf pick is no candidate: it keeps the reference
            pick[np.isinf(np.take_along_axis(flat, pick, axis=1))] = center
            out[:, 1:1 + n_sel] += delta[pick]

    units = [(t, first) for t in range(t_total) for first in range(0, len(ys), band_rows)]
    max_refs = band_rows * len(xs)
    workspaces = [_Workspace.allocate(max_refs, n_offsets, max_refs * shape[2] * ps * ps)
                  for _ in range(min(_worker_count(), len(units)))]
    _run_units(units, match, workspaces)
    return PatchGroupTable(geom, guide.dims, top_left.reshape(-1, geom.group_size))


def scatter_sum(blocks: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Adjoint of the gather ``values[idx]``: add the block entries of one
    chunk, whose gather index is ``idx``, into the volume ``out`` and return
    it. Entries are added one by one in index order, so chunks added in
    table order give the bytes of one whole-table sum.
    """
    if blocks.shape != idx.shape:
        raise DataError(f"blocks shape {blocks.shape} does not match index shape {idx.shape}")
    np.add.at(out, idx.reshape(-1), blocks.reshape(-1))
    return out


def compute_counts(table: PatchGroupTable) -> np.ndarray:
    """Number of (group, member, offset) references per voxel, in the
    narrowest unsigned dtype that holds the largest: uint8 while no voxel
    has more than 255. Every count converts to float64 exactly."""
    counts = np.zeros(table.dims.total_voxels, dtype=np.int64)
    for _, idx in table.chunks(np.empty(table.chunk_shape(), dtype=np.int64)):
        np.add.at(counts, idx.reshape(-1), 1)
    return counts.astype(np.min_scalar_type(counts.max()))
