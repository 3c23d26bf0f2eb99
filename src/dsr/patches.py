"""Motion-adaptive block matching and the patch gather/scatter operators.

Reference patches sit on a stride grid per frame (last row/column clamped so
borders stay covered). For each reference, the L most similar patches inside
a clamped space-time search window are grouped; similarity is the sum of
squared differences on the guide volume, so grouping follows object motion
without explicit motion estimation. Each sum is added from per-band
squared-difference images in the order of numpy's own ``np.sum`` over the
patch's contiguous vector, so it has those bits. A group is stored once, as
the flat voxel index of each member's top-left pixel. Grouped patches form
B x L blocks whose columns are vectorized patches, gathered one chunk of
groups at a time through the table's gather index; ``scatter_sum`` adds
block entries back, and the diagonal of the composed operator is the
per-voxel reference count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import pool
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
        for c in range(self.n_chunks):
            x, y, t = self._decode(self.chunk(c))
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

    @property
    def n_chunks(self) -> int:
        """Chunks the table is cut into: runs of ``CHUNK_GROUPS`` groups."""
        return -(-self.n_groups // CHUNK_GROUPS)

    def chunk(self, c: int) -> slice:
        """The groups of chunk ``c``, in table order; the last chunk may be short."""
        start = c * CHUNK_GROUPS
        return slice(start, min(start + CHUNK_GROUPS, self.n_groups))

    def chunk_shape(self) -> tuple[int, int, int]:
        """Shape (groups, B, L) of the largest chunk."""
        geom = self.geometry
        return min(CHUNK_GROUPS, self.n_groups), geom.patch_side ** 2, geom.group_size

    def chunks(self, index: np.ndarray):
        """Yield (groups, gather_indices(groups)) for every chunk, in table
        order. Every index is written into ``index``, an int64 buffer of
        ``chunk_shape()``, so each holds only until the next chunk is yielded."""
        for c in range(self.n_chunks):
            groups = self.chunk(c)
            yield groups, self.gather_indices(groups, index[:groups.stop - groups.start])


def _runs(positions: list[int], stride: int, first: int, stop: int):
    """Grid indices [first, stop) as (index slice, first position) pairs: one
    run on the stride grid, one for the clamped last position."""
    regular = positions[-1] // stride + 1
    return [(slice(a, b), positions[a])
            for a, b in ((first, min(stop, regular)), (max(first, regular), stop))
            if a < b]


def _pairwise_order(n: int, start: int = 0):
    """The order in which numpy's float add reduction sums the n terms
    ``start`` .. ``start + n - 1`` of one contiguous row (``pairwise_sum``
    in numpy's ``loops_utils.h.src``), as a tree: an int is a term, a pair
    (left, right) is the sum of two subtrees. Fewer than 8 terms add left to
    right. Up to 128 terms go into 8 running sums, term i into sum i % 8;
    these add as ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), and the
    last n % 8 terms follow one by one. More terms split in two at n / 2
    rounded down to a multiple of 8, and the halves' sums add. numpy starts
    each left-to-right sum from 0, which changes no sum of squares: 0 + x is
    x for every x but -0.0, and no square is -0.0."""
    def fold(terms):
        tree = terms[0]
        for term in terms[1:]:
            tree = (tree, term)
        return tree

    if n < 8:
        return fold(range(start, start + n))
    if n > 128:
        half = n // 2 - n // 2 % 8
        return (_pairwise_order(half, start), _pairwise_order(n - half, start + half))
    body = start + n - n % 8
    s = [fold(range(start + j, body, 8)) for j in range(8)]
    return fold([(((s[0], s[1]), (s[2], s[3])), ((s[4], s[5]), (s[6], s[7]))),
                 *range(body, start + n)])


def _sum_plan(n: int) -> tuple[list[tuple[int, int, int]], int, int]:
    """Whole-array adds that sum n terms in ``_pairwise_order(n)``.

    Operands 0 .. n - 1 are the terms and n, n + 1, ... partial sums.
    Returns the adds as (out, a, b), meaning out = a + b, the number of
    partial sums they use and the operand that ends up holding the total.
    An add writes into a partial sum among its own inputs where it has one,
    so 25 terms take 24 adds and 4 partial sums."""
    adds, free, used = [], [], 0

    def emit(tree) -> int:
        nonlocal used
        if isinstance(tree, int):
            return tree
        a, b = emit(tree[0]), emit(tree[1])
        partial = [x for x in (a, b) if x >= n]
        if partial:
            out = partial[0]
        elif free:
            out = free.pop()
        else:
            out, used = n + used, used + 1
        adds.append((out, a, b))
        free.extend(partial[1:])
        return out

    total = emit(_pairwise_order(n))
    return adds, used, total


#: Elements of a worker's squared-difference image, about: the window rows
#: of offsets are scored in equal chunks that fit it, at least one row each.
#: Results do not depend on it. Timed on two forked processes (medians of
#: three tables, 2-core VM): 2**16 took 0.16 s at 64x64x16 against 0.14 s,
#: as the ~30 numpy calls per chunk repeat more often; 2**19 took 1.01 s at
#: 320x240x8 against 0.84 s; 2**17 was 2-3 % slower at both sizes.
DIFF_ELEMENTS = 2 ** 18


class _Scorer:
    """Distances of every reference of a band to every window offset.

    Settings of one volume and geometry; the buffers are each worker's
    ``_Workspace``. A frame's reference grid is cut into bands of whole grid
    rows, ``band_rows`` of them, about ``CHUNK_GROUPS`` references. A band's
    grid rows on the stride grid, and the clamped last one, are each a run.

    A run of nr grid rows from pixel row y0 covers the R = s * (nr - 1) + ps
    rows from y0. Against one candidate frame and a chunk of k window rows
    (dy) it forms the squared differences

        D[r, dy, dx, x] = (band[r + dy, x + dx] - ref[r, x]) ** 2

    with one subtract and one square, where ``ref`` holds the run's rows of
    the reference frame and ``band`` the candidate frame's rows from
    y0 - hy, bordered with inf, so a candidate outside the volume scores
    inf. Each squared difference is formed once, not once per patch that
    covers it. D is laid out (row, offset, column), with the columns padded
    to a multiple of s; flattened to D2 of shape (R, offsets * columns),
    pixel (a, b) of every reference on the stride grid for every offset is
    the strided view D2[a::s, b::s] (whose last lane, never a reference's,
    may run ps - s elements past its row), and of the clamped last column
    x_c the view D2[a::s, x_c + b::columns]. A patch's distance is the sum
    of its ps * ps views, added by ``_sum_plan`` in numpy's own order for a
    contiguous vector, so each distance has the bits of ``np.sum`` over
    that patch's squared differences, whatever the band and the chunk.
    Lanes past a row's last reference are added and thrown away, one per
    offset at 320 columns.
    """

    def __init__(self, dims: FrameDims, geom: PatchGeometry):
        ps, s = geom.patch_side, geom.stride
        wx, wy, wt = geom.window
        self.dims, self.ps, self.stride = dims, ps, s
        self.half_x, self.half_y, self.half_t = wx // 2, wy // 2, (wt - 1) // 2
        self.window = (wt, 2 * self.half_y + 1, 2 * self.half_x + 1)  # offsets (dt, dy, dx)
        self.ys, self.xs = (grid_positions(n, ps, s) for n in (dims.height, dims.width))
        self.band_rows = min(max(1, CHUNK_GROUPS // len(self.xs)), len(self.ys))
        self.regular = self.xs[-1] // s + 1  # references per grid row on the stride grid
        self.clamped = self.xs[-1] if self.regular < len(self.xs) else None
        self.cols = -(-dims.width // s) * s
        self.rows = self._rows(self.band_rows)  # pixel rows of the longest run
        n_dy, n_dx = self.window[1:]
        per_dy = self.rows * n_dx * self.cols
        chunks = -(-n_dy // max(1, DIFF_ELEMENTS // per_dy))
        self.dy_chunk = -(-n_dy // chunks)
        self.adds, self.n_partial, self.total = _sum_plan(ps * ps)

    def _rows(self, nr: int) -> int:
        """Pixel rows of a run of nr grid rows."""
        return self.stride * (nr - 1) + self.ps

    def _views(self, ws, nr: int, k: int):
        """D for runs of nr grid rows and chunks of k window rows, as (R, k,
        dx, columns) and as D2, and the operands and total of the sums of
        the grid lanes and of the clamped column; made once per worker and
        shape."""
        key = (nr, k)
        if key not in ws.views:
            ps, s, cols = self.ps, self.stride, self.cols
            offsets = k * self.window[2]
            lanes, pitch = offsets * cols // s, offsets * cols
            d2 = ws.diff[:self._rows(nr) * pitch].reshape(-1, pitch)
            rows = [slice(a, a + s * (nr - 1) + 1, s) for a in range(ps)]
            item = d2.itemsize

            def operands(term, shape):
                size = shape[0] * shape[1]
                return ([term(a, b) for a in range(ps) for b in range(ps)]
                        + [ws.partial[i * size:(i + 1) * size].reshape(shape)
                           for i in range(self.n_partial)])

            def lattice(a, b):  # D2[a::s, b::s], ``lanes`` long
                return as_strided(ws.diff[a * pitch + b:], (nr, lanes),
                                  (s * pitch * item, s * item), writeable=False)

            grid = operands(lattice, (nr, lanes))
            total = grid[self.total].reshape(nr, offsets, cols // s)[:, :, :self.regular]
            edge = None
            if self.clamped is not None:
                x = self.clamped
                edge = operands(lambda a, b: d2[rows[a], x + b::cols], (nr, offsets))
            ws.views[key] = d2.reshape(-1, k, self.window[2], cols), d2, grid, total, edge
        return ws.views[key]

    def _sum(self, operands):
        for out, a, b in self.adds:
            np.add(operands[a], operands[b], out=operands[out])
        return operands[self.total]

    def _score_run(self, ws, ref_frame, cand_frame, y0: int, out: np.ndarray) -> None:
        """Write into ``out``, shape (nr, references per grid row, dy, dx),
        the distance of each reference of the run from pixel row y0 to the
        candidate at each (dy, dx) offset in ``cand_frame``."""
        nr, n_rows = out.shape[0], self._rows(out.shape[0])
        w, half_x, half_y = self.dims.width, self.half_x, self.half_y
        ref = ws.ref[:n_rows]
        ref[:, :w] = ref_frame[y0:y0 + n_rows]
        # the candidate frame's rows y0 - hy .. y0 + n_rows + hy, inf outside
        lo, n_band = y0 - half_y, n_rows + 2 * half_y
        inner = ws.band[:n_band, half_x:half_x + w]
        top = min(n_band, max(0, -lo))
        bottom = max(top, min(n_band, self.dims.height - lo))
        inner[:top] = np.inf
        inner[top:bottom] = cand_frame[lo + top:lo + bottom]
        inner[bottom:] = np.inf
        for dy in range(0, self.window[1], self.dy_chunk):
            k = min(self.dy_chunk, self.window[1] - dy)
            diff, d2, grid, total, edge = self._views(ws, nr, k)
            np.subtract(ws.cands[:n_rows, dy:dy + k], ref[:, None, None], out=diff)
            np.square(d2, out=d2)
            self._sum(grid)
            chunk = out[:, :, dy:dy + k].reshape(nr, out.shape[1], -1)
            np.copyto(chunk[:, :self.regular].transpose(0, 2, 1), total)
            if edge is not None:
                np.copyto(chunk[:, self.regular], self._sum(edge))

    def distances(self, ws, frames: np.ndarray, t: int, first: int) -> np.ndarray:
        """The distances, shape (references, offsets), of the band of grid
        rows from ``first`` in frame t of ``frames`` (T, H, W), written into
        ``ws.dist``: inf where the candidate lies outside the volume, 0 at
        the reference's own offset."""
        stop = min(first + self.band_rows, len(self.ys))
        dist = ws.dist[:(stop - first) * len(self.xs)]
        grid = dist.reshape(stop - first, len(self.xs), *self.window)
        dts = range(max(0, self.half_t - t), min(self.window[0], len(frames) + self.half_t - t))
        grid[:, :, :dts.start] = np.inf
        grid[:, :, dts.stop:] = np.inf
        for rows, y0 in _runs(self.ys, self.stride, first, stop):
            run = grid[rows.start - first:rows.stop - first]
            for dt in dts:
                self._score_run(ws, frames[t], frames[t + dt - self.half_t], y0, run[:, :, dt])
        return dist


@dataclass
class _Workspace:
    """One worker's buffers, sized for the largest band: the distances, and
    ``_Scorer``'s buffers with the views into them, made as each shape is
    first needed. One scratch buffer holds D and the partial sums while a
    band is scored, and then the copy to partition and the two selection
    masks, eight to a float."""

    dist: np.ndarray
    ref: np.ndarray
    band: np.ndarray
    cands: np.ndarray
    diff: np.ndarray
    partial: np.ndarray
    part: np.ndarray
    keep: np.ndarray
    tie: np.ndarray
    views: dict

    @staticmethod
    def _sizes(scorer: _Scorer) -> dict[str, int]:
        """Floats in each buffer, as Python ints; ``scratch`` holds the
        others from ``diff`` on."""
        refs = scorer.band_rows * len(scorer.xs)
        dist = refs * scorer.window[0] * scorer.window[1] * scorer.window[2]
        lanes = scorer.dy_chunk * scorer.window[2] * scorer.cols  # per row of D
        sizes = {"dist": dist, "ref": scorer.rows * scorer.cols,
                 "band": (scorer.rows + 2 * scorer.half_y) * (scorer.cols + 2 * scorer.half_x),
                 # the last lattice view of D runs ps - s elements past it
                 "diff": scorer.rows * lanes + scorer.ps - scorer.stride,
                 "partial": scorer.n_partial * scorer.band_rows * lanes // scorer.stride,
                 "masks": -(-dist // 8)}
        sizes["scratch"] = max(sizes["diff"] + sizes["partial"], dist + 2 * sizes["masks"])
        return sizes

    @classmethod
    def allocate(cls, scorer: _Scorer) -> "_Workspace":
        grid = (scorer.band_rows * len(scorer.xs), math.prod(scorer.window))
        n, sizes = grid[0] * grid[1], cls._sizes(scorer)
        # columns past the frame hold 0 in ref and inf in band, so inf in D
        ref = np.zeros((scorer.rows, scorer.cols))
        band = np.full((scorer.rows + 2 * scorer.half_y, scorer.cols + 2 * scorer.half_x),
                       np.inf)
        # cands[r, dy, dx, x] is band[r + dy, x + dx]
        step, item = band.strides[0], band.itemsize
        cands = as_strided(band, (scorer.rows, *scorer.window[1:], scorer.cols),
                           (step, step, item, item), writeable=False)
        scratch, diff, masks = np.zeros(sizes["scratch"]), sizes["diff"], sizes["masks"]
        keep, tie = (scratch[n + i * masks:n + (i + 1) * masks].view(bool)[:n].reshape(grid)
                     for i in range(2))
        return cls(np.empty(grid), ref, band, cands, scratch[:diff],
                   scratch[diff:diff + sizes["partial"]], scratch[:n].reshape(grid), keep, tie,
                   {})

    @classmethod
    def nbytes(cls, scorer: _Scorer) -> int:
        """The bytes ``allocate`` takes, as a Python int."""
        sizes = cls._sizes(scorer)
        return 8 * (sizes["dist"] + sizes["ref"] + sizes["band"] + sizes["scratch"])


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


def _index_dtype(dims: FrameDims) -> np.dtype:
    """The integer type of a group table on a volume of ``dims``: int32 while
    it holds the voxel count, so every flat index and every in-patch sum,
    else int64."""
    return np.dtype(np.int32 if dims.total_voxels <= np.iinfo(np.int32).max else np.int64)


def check_geometry(dims: FrameDims, geom: PatchGeometry) -> None:
    """Raise DataError when ``build_groups`` on a volume of ``dims`` would
    allocate a group table or a band workspace (a band's distances and
    selection masks, and the scorer's buffers) larger than numpy can
    address. The sizes are Python ints and nothing is allocated; a size that
    numpy can address but memory cannot hold passes, and so does a patch
    larger than a frame, which ``build_groups`` rejects."""
    w, h, ps = dims.width, dims.height, geom.patch_side
    if ps > min(w, h):
        return
    scorer = _Scorer(dims, geom)
    sizes = {"group table": (dims.frames * len(scorer.ys) * len(scorer.xs) * geom.group_size
                             * _index_dtype(dims).itemsize),
             "band workspace": _Workspace.nbytes(scorer)}
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
    reconstructed. Each SSD has the bits of numpy's sum over the patch's
    contiguous vector of squared differences (see ``_Scorer``).

    Each frame's reference grid is cut into bands of whole grid rows of about
    ``CHUNK_GROUPS`` references. The bands are matched on the processes of a
    ``pool.Pool``, each in its own copy of one workspace; each writes only
    its own rows of the table, which is in shared memory, so the table does
    not depend on the number of processes or on the band size. A geometry
    that fails ``check_geometry`` is a DataError before anything is
    allocated.
    """
    w, h, t_total = guide.dims.width, guide.dims.height, guide.dims.frames
    ps = geom.patch_side
    if ps > min(w, h):
        raise DataError(f"patch side {ps} exceeds frame size {w}x{h}")
    check_geometry(guide.dims, geom)
    scorer = _Scorer(guide.dims, geom)
    ys, xs, shape = scorer.ys, scorer.xs, scorer.window
    # distances per reference and window offset (dt, dy, dx), offsets
    # ascending: the candidate (t, y, x) ascends with the offset, so the
    # (value, offset) order of a row is the (dist, t, y, x) order; the center
    # offset is the reference itself, and delta is each offset's step in the
    # flat index
    n_offsets = math.prod(shape)
    center = n_offsets // 2
    off_t, off_y, off_x = np.indices(shape, dtype=np.int64).reshape(3, -1)
    delta = (((off_t - scorer.half_t) * h + off_y - scorer.half_y) * w
             + off_x - scorer.half_x)
    # flat index of each reference's top-left pixel in frame 0, grid order
    refs = (np.array(ys, dtype=np.int64)[:, None] * w + xs).reshape(-1)
    top_left = pool.shared((t_total, len(refs), geom.group_size), _index_dtype(guide.dims))
    n_sel = min(geom.group_size - 1, n_offsets)
    frames = guide.frames()

    units = [(t, first) for t in range(t_total) for first in range(0, len(ys), scorer.band_rows)]
    ws = _Workspace.allocate(scorer)

    def match(unit: int, worker: int) -> tuple[float, float]:
        t, first = units[unit]
        flat = scorer.distances(ws, frames, t, first)
        flat[:, center] = np.inf
        rows = slice(first * len(xs), first * len(xs) + len(flat))
        out = top_left[t, rows]
        out[:] = (refs[rows] + t * h * w)[:, None]
        if n_sel:
            pick = _select(flat, n_sel, ws)
            # an inf pick is no candidate: it keeps the reference
            pick[np.isinf(np.take_along_axis(flat, pick, axis=1))] = center
            out[:, 1:1 + n_sel] += delta[pick]
        return 0.0, 0.0  # no answer: the rows are in the shared table

    procs = pool.Pool(len(units))
    with procs.forked(match):
        for _ in procs.answers(match):
            pass
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
