"""Motion-adaptive block matching and the patch extraction/aggregation operators.

Reference patches sit on a stride grid per frame (last row/column clamped so
borders stay covered). For each reference, the L most similar patches inside
a clamped space-time search window are grouped; similarity is the sum of
squared differences on the guide volume, so grouping follows object motion
without explicit motion estimation. Grouped patches form B x L blocks whose
columns are vectorized patches; the adjoint scatters block entries back and
the diagonal of the composed operator is the per-voxel reference count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .volumes import FrameDims

__all__ = [
    "PatchGeometry",
    "PatchGroupTable",
    "build_groups",
    "extract_blocks",
    "scatter_sum",
    "compute_counts",
    "aggregate_average",
]


@dataclass(frozen=True)
class PatchGeometry:
    """Patch, stride, search window and group-size settings."""

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
        wx, wy, wt = self.window
        if wx < 1 or wy < 1 or wt < 1:
            raise DataError("window extents must be positive")
        if wt % 2 == 0:
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


@dataclass
class PatchGroupTable:
    """All patch groups for a volume, in packed array form.

    ``members`` holds (x, y, t) triples with shape (P, L, 3); row p, column 0
    is the reference of group p. ``padded[p]`` marks a group whose search
    window held fewer candidates than the group size; it repeats the
    reference to keep the block shape fixed. Gather indices and reference
    counts are derived lazily and cached since every solver iteration reuses
    them.
    """

    geometry: PatchGeometry
    dims: FrameDims
    members: np.ndarray
    padded: np.ndarray
    _gather: np.ndarray | None = field(default=None, repr=False)
    _counts: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_groups(self) -> int:
        return self.members.shape[0]

    @property
    def references(self) -> np.ndarray:
        return self.members[:, 0, :]

    def gather_indices(self) -> np.ndarray:
        """Flat voxel index per (group, in-patch pixel, member), shape (P, B, L)."""
        if self._gather is None:
            ps = self.geometry.patch_side
            w = self.dims.width
            n = self.dims.pixels_per_frame
            off = (np.arange(ps)[:, None] * w + np.arange(ps)[None, :]).reshape(-1)
            base = (self.members[:, :, 2].astype(np.int64) * n
                    + self.members[:, :, 1].astype(np.int64) * w
                    + self.members[:, :, 0].astype(np.int64))  # (P, L)
            self._gather = base[:, None, :] + off[None, :, None]
        return self._gather

    def counts(self) -> np.ndarray:
        if self._counts is None:
            self._counts = compute_counts(self)
        return self._counts


def build_groups(guide, geom: PatchGeometry) -> PatchGroupTable:
    """Match patches on the guide volume and return the group table.

    Candidates are every patch position whose top-left falls in the search
    window centered on the reference (clamped at the volume borders), across
    the temporally adjacent frames. The L smallest SSD candidates are kept,
    ties broken lexicographically by (t, y, x); the reference always comes
    first. Matching depends only on the guide, never on the depth being
    reconstructed.
    """
    dims = guide.dims
    w, h, t_total = dims.width, dims.height, dims.frames
    ps = geom.patch_side
    if ps > min(w, h):
        raise DataError(f"patch side {ps} exceeds frame size {w}x{h}")
    wx, wy, wt = geom.window
    big_l = geom.group_size
    half_x, half_y, half_t = wx // 2, wy // 2, (wt - 1) // 2

    # (T, ny_all, nx_all, B) vectorized patches, copied in one allocation:
    # per-frame copies are mid-sized blocks that glibc moves from mmap to the
    # heap once one is freed, so a later call would peak higher than the first
    stacks = sliding_window_view(guide.frames(), (ps, ps), axis=(1, 2)).reshape(
        t_total, h - ps + 1, w - ps + 1, -1)
    yy, xx = np.indices((h - ps + 1, w - ps + 1))

    xs = grid_positions(w, ps, geom.stride)
    ys = grid_positions(h, ps, geom.stride)
    n_groups = len(xs) * len(ys) * t_total
    members = np.empty((n_groups, big_l, 3), dtype=np.int32)
    padded = np.zeros(n_groups, dtype=bool)

    p = 0
    for t in range(t_total):
        t_lo, t_hi = max(0, t - half_t), min(t_total - 1, t + half_t)
        for y in ys:
            y_lo, y_hi = max(0, y - half_y), min(h - ps, y + half_y)
            ysl = slice(y_lo, y_hi + 1)
            for x in xs:
                x_lo, x_hi = max(0, x - half_x), min(w - ps, x + half_x)
                xsl = slice(x_lo, x_hi + 1)
                ref_patch = stacks[t][y, x]

                dist, cand_t, cand_y, cand_x = [], [], [], []
                for ct in range(t_lo, t_hi + 1):
                    sub = stacks[ct][ysl, xsl]
                    d = ((sub - ref_patch) ** 2).sum(axis=2)
                    dist.append(d.reshape(-1))
                    cand_y.append(yy[ysl, xsl].reshape(-1))
                    cand_x.append(xx[ysl, xsl].reshape(-1))
                    cand_t.append(np.full(d.size, ct, dtype=np.int64))
                dist = np.concatenate(dist)
                cand_t = np.concatenate(cand_t)
                cand_y = np.concatenate(cand_y)
                cand_x = np.concatenate(cand_x)

                keep = ~((cand_t == t) & (cand_y == y) & (cand_x == x))
                dist, cand_t, cand_y, cand_x = (
                    dist[keep], cand_t[keep], cand_y[keep], cand_x[keep])
                order = np.lexsort((cand_x, cand_y, cand_t, dist))[:big_l - 1]

                members[p, 0] = (x, y, t)
                n_sel = order.size
                members[p, 1:1 + n_sel, 0] = cand_x[order]
                members[p, 1:1 + n_sel, 1] = cand_y[order]
                members[p, 1:1 + n_sel, 2] = cand_t[order]
                if n_sel < big_l - 1:
                    members[p, 1 + n_sel:] = (x, y, t)
                    padded[p] = True
                p += 1

    return PatchGroupTable(geom, dims, members, padded)


def extract_blocks(values: np.ndarray, table: PatchGroupTable) -> np.ndarray:
    """Gather all groups at once, shape (P, B, L)."""
    return values[table.gather_indices()]


def scatter_sum(blocks: np.ndarray, table: PatchGroupTable) -> np.ndarray:
    """Adjoint of :func:`extract_blocks`: sum block entries onto the voxel grid."""
    idx = table.gather_indices()
    if blocks.shape != idx.shape:
        raise DataError(f"blocks shape {blocks.shape} does not match table "
                        f"shape {idx.shape}")
    return np.bincount(idx.reshape(-1), weights=blocks.reshape(-1),
                       minlength=table.dims.total_voxels)


def compute_counts(table: PatchGroupTable) -> np.ndarray:
    """Number of (group, member, offset) references per voxel."""
    idx = table.gather_indices()
    return np.bincount(idx.reshape(-1), minlength=table.dims.total_voxels)


def aggregate_average(table: PatchGroupTable, blocks) -> np.ndarray:
    """Count-normalized adjoint placement: the overcomplete patch average.

    Feeding back the blocks extracted from a volume reproduces that volume
    exactly, which makes this the natural return path from block space.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    counts = table.counts()
    if np.any(counts == 0):
        raise DataError("group table does not cover every voxel")
    return scatter_sum(blocks, table) / counts

