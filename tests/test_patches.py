import dataclasses
import os
from functools import partial
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsr.patches as patches_mod
import dsr.pool as pool_mod
from dsr.errors import DataError
from dsr.patches import (
    PatchGeometry,
    PatchGroupTable,
    build_groups,
    compute_counts,
    grid_positions,
    scatter_sum,
)
from dsr.scenes import default_scene, synth_scene
from dsr.solvers import _extract, _Workspace
from dsr.volumes import FrameDims, IntensityVolume
from oracles import (counts_naive, extract_naive, match_distances_ref, match_groups_naive,
                     match_table_ref, scatter_naive, whole_index)

SMALL_GEOM = PatchGeometry(patch_side=3, stride=2, window=(5, 5, 3), group_size=4)


def _table(guide, geom=SMALL_GEOM):
    return build_groups(guide, geom)


def _index(table):
    """A buffer for ``table.chunks``."""
    return np.empty(table.chunk_shape(), dtype=np.int64)


def _gather(values, table):
    """The solver's gather, chunk by chunk: ``values[idx]`` over ``table.chunks``."""
    return np.concatenate([values[idx] for _, idx in table.chunks(_index(table))])


def _scatter(blocks, table):
    """The whole stack's sum, added chunk by chunk into one zero volume."""
    out = np.zeros(table.dims.total_voxels)
    for groups, idx in table.chunks(_index(table)):
        scatter_sum(blocks[groups], idx, out)
    return out


def _average(values, table):
    """The simplified solvers' feedback on unshrunk blocks: the block pass
    with an identity update, divided by the reference counts."""
    out = np.empty(table.dims.total_voxels)
    ws = _Workspace.allocate(table, 1)
    ws.block_pass(pool_mod.Pool(table.n_chunks).answers(partial(ws.run, values, table, _extract)),
                  table, out)
    return out / compute_counts(table)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """The process's open descriptors, or None where /proc does not list them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _padded(members) -> bool:
    """A padded group repeats its reference in the last column; no real
    candidate equals the reference."""
    return len(members) > 1 and np.array_equal(members[-1], members[0])


class TestGridPositions:
    def test_clamped_last_position(self):
        assert grid_positions(10, 5, 3) == [0, 3, 5]

    def test_exact_fit_needs_no_clamp(self):
        assert grid_positions(8, 2, 2) == [0, 2, 4, 6]

    def test_stride_one(self):
        assert grid_positions(5, 3, 1) == [0, 1, 2]

    def test_single_position(self):
        assert grid_positions(4, 4, 2) == [0]

    def test_patch_too_large(self):
        with pytest.raises(DataError):
            grid_positions(3, 4, 1)


class TestPatchGeometry:
    def test_defaults(self):
        g = PatchGeometry()
        assert (g.patch_side, g.stride, g.window, g.group_size) == (5, 3, (11, 11, 3), 10)

    def test_stride_larger_than_patch_rejected(self):
        with pytest.raises(DataError):
            PatchGeometry(patch_side=3, stride=4)

    def test_even_temporal_window_rejected(self):
        with pytest.raises(DataError):
            PatchGeometry(window=(11, 11, 2))

    @pytest.mark.parametrize("window", [(11, 11), (11, 11, 3, 3), ()])
    def test_window_needs_three_extents(self, window):
        with pytest.raises(DataError, match="three"):
            PatchGeometry(window=window)

    def test_group_size_positive(self):
        with pytest.raises(DataError):
            PatchGeometry(group_size=0)


class TestBuildGroups:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force(self, workers, data):
        """Members, their order and the padding agree with the naive matcher,
        also with tied distances, frames smaller than the window, even window
        extents, groups larger than the candidate count, any number of
        workers and bands from one grid row up to the whole frame."""
        patch = data.draw(st.integers(1, 4), label="patch")
        stride = data.draw(st.integers(1, patch), label="stride")
        dims = FrameDims(data.draw(st.integers(patch, patch + 8), label="w"),
                         data.draw(st.integers(patch, patch + 8), label="h"),
                         data.draw(st.integers(1, 4), label="t"))
        window = (data.draw(st.integers(1, 6), label="wx"),
                  data.draw(st.integers(1, 6), label="wy"),
                  data.draw(st.sampled_from([1, 3, 5]), label="wt"))
        # up to one more than the number of patch positions in the volume
        positions = (dims.width - patch + 1) * (dims.height - patch + 1) * dims.frames
        big_l = data.draw(st.integers(1, positions + 1), label="L")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = data.draw(st.sampled_from([
            rng.uniform(0, 1, dims.total_voxels),
            rng.integers(0, 3, dims.total_voxels) / 2,  # values k/2: many tied SSDs
            # values k/10: SSDs equal up to rounding, so their order follows
            # the order in which the squared differences are added
            rng.integers(0, 4, dims.total_voxels) / 10,
            np.full(dims.total_voxels, 0.5),
        ]), label="guide")
        guide = IntensityVolume(dims, values)
        refs_per_frame = (len(grid_positions(dims.width, patch, stride))
                          * len(grid_positions(dims.height, patch, stride)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pool_mod, "_worker_count", lambda: workers)
            mp.setattr(patches_mod, "CHUNK_GROUPS",
                       data.draw(st.integers(1, refs_per_frame), label="band"))
            table = build_groups(guide, PatchGeometry(patch, stride, window, big_l))
        got = table.members
        assert got.dtype == np.int32
        expect = match_groups_naive(guide.frames(), patch, stride, window, big_l)
        assert table.n_groups == len(expect)
        for p, (members, padded) in enumerate(expect):
            assert [tuple(map(int, trip)) for trip in got[p]] == members, f"group {p} differs"
            assert _padded(got[p]) == padded

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_distances_and_table_match_the_oracle_scorer(self, data):
        """Every distance has the bits of numpy's sum over the patch's
        contiguous vector of squared differences, and the table is the
        oracle's, for patch sizes 1 to 7 at every stride, even and odd
        windows, one or three frames searched, clamped last rows and
        columns, frames smaller than the window, constant guides (exact
        ties), groups larger than the candidate count and bands from one
        grid row up to the whole frame."""
        patch = data.draw(st.integers(1, 7), label="patch")
        stride = data.draw(st.integers(1, patch), label="stride")
        dims = FrameDims(data.draw(st.integers(patch, patch + 10), label="w"),
                         data.draw(st.integers(patch, patch + 10), label="h"),
                         data.draw(st.integers(1, 3), label="t"))
        window = (data.draw(st.integers(1, 8), label="wx"),
                  data.draw(st.integers(1, 8), label="wy"),
                  data.draw(st.sampled_from([1, 3]), label="wt"))
        positions = (dims.width - patch + 1) * (dims.height - patch + 1) * dims.frames
        big_l = data.draw(st.integers(1, positions + 1), label="L")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = data.draw(st.sampled_from([
            rng.uniform(0, 1, dims.total_voxels),
            rng.integers(0, 4, dims.total_voxels) / 10,
            np.full(dims.total_voxels, 0.5),
        ]), label="guide")
        guide = IntensityVolume(dims, values)
        geom = PatchGeometry(patch, stride, window, big_l)
        frames = guide.frames()
        expect = match_distances_ref(frames, patch, stride, window)
        grid_rows = len(grid_positions(dims.height, patch, stride))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(patches_mod, "CHUNK_GROUPS", data.draw(
                st.integers(1, grid_rows * len(grid_positions(dims.width, patch, stride))),
                label="band"))
            mp.setattr(pool_mod, "_worker_count", lambda: 2)
            scorer = patches_mod._Scorer(dims, geom)
            ws = patches_mod._Workspace.allocate(scorer)
            for t in range(dims.frames):
                got = np.concatenate([scorer.distances(ws, frames, t, first).copy()
                                      for first in range(0, grid_rows, scorer.band_rows)])
                assert got.tobytes() == expect[t].tobytes(), f"frame {t} differs"
            table = build_groups(guide, geom)
        top_left = match_table_ref(frames, patch, stride, window, big_l)
        assert table.top_left.astype(np.int64).tobytes() == top_left.tobytes()

    def test_sum_plan_is_numpys_reduction_order(self):
        """The adds of ``_sum_plan(n)`` give the bits of ``np.add.reduce``
        over contiguous rows, for n = 1 to 200 terms of either sign spread
        over 24 decades: n - 1 adds, and 4 partial sums for a 5 x 5 patch."""
        rng = np.random.default_rng(41)
        for n in range(1, 201):
            rows = rng.choice([-1.0, 1.0], (64, n)) * 10.0 ** rng.uniform(-12, 12, (64, n))
            adds, n_partial, total = patches_mod._sum_plan(n)
            operands = [rows[:, i] for i in range(n)] + [np.empty(64) for _ in range(n_partial)]
            for out, a, b in adds:
                np.add(operands[a], operands[b], out=operands[out])
            assert len(adds) == n - 1
            assert operands[total].tobytes() == np.add.reduce(rows, axis=-1).tobytes(), n
        assert patches_mod._sum_plan(25)[1] == 4

    def test_reference_comes_first(self, random_guide):
        table = _table(random_guide)
        xs = grid_positions(random_guide.dims.width, 3, 2)
        ys = grid_positions(random_guide.dims.height, 3, 2)
        refs = [(x, y, t) for t in range(random_guide.dims.frames) for y in ys for x in xs]
        assert [tuple(map(int, ref)) for ref in table.references] == refs

    def test_constant_guide_orders_lexicographically(self):
        # all SSDs tie, so selection is purely by (t, y, x)
        dims = FrameDims(7, 7, 2)
        guide = IntensityVolume(dims, np.full(dims.total_voxels, 0.5))
        table = build_groups(guide, SMALL_GEOM)
        expect = match_groups_naive(guide.frames(), 3, 2, (5, 5, 3), 4)
        got = table.members
        for p, (members, _) in enumerate(expect):
            assert [tuple(map(int, m)) for m in got[p]] == members

    def test_single_frame_window_stays_in_frame(self, random_guide):
        geom = PatchGeometry(patch_side=3, stride=2, window=(5, 5, 1), group_size=4)
        table = build_groups(random_guide, geom)
        refs_t = table.members[:, 0, 2]
        assert np.array_equal(table.members[:, :, 2],
                              np.repeat(refs_t[:, None], 4, axis=1))

    def test_padding_when_candidates_run_out(self):
        # 3x3 frame fits a single 3x3 patch, so the only group self-pads
        dims = FrameDims(3, 3, 1)
        guide = IntensityVolume(dims, np.linspace(0, 1, 9))
        table = build_groups(guide, SMALL_GEOM)
        assert table.n_groups == 1
        assert _padded(table.members[0])
        np.testing.assert_array_equal(table.members[0],
                                      np.zeros((4, 3), dtype=np.int32))

    def test_patch_exceeding_frame_rejected(self):
        dims = FrameDims(4, 4, 1)
        guide = IntensityVolume(dims, np.zeros(16))
        with pytest.raises(DataError):
            build_groups(guide, PatchGeometry(patch_side=5, stride=3))

    def test_matching_is_deterministic(self, random_guide):
        a = _table(random_guide)
        b = _table(random_guide)
        np.testing.assert_array_equal(a.members, b.members)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_exception_reaches_caller(self, monkeypatch, random_guide, workers):
        """An exception raised in a helper process reaches the caller with
        its type and message, after every helper has ended and closed its
        pipes."""
        parent, select = os.getpid(), patches_mod._select

        def failing(*args):
            if os.getpid() != parent:
                raise RuntimeError("band failed")
            return select(*args)

        monkeypatch.setattr(pool_mod, "_worker_count", lambda: workers)
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", 1)
        monkeypatch.setattr(patches_mod, "_select", failing)
        fds = _open_fds()
        with pytest.raises(RuntimeError) as info:
            _table(random_guide)
        assert (type(info.value), str(info.value)) == (RuntimeError, "band failed")
        assert _open_fds() == fds
        _no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_no_thread_outlives_the_call(self, monkeypatch, random_guide, workers):
        """Matching starts no thread, and the helper processes it forks are
        gone, with their pipes, when it returns."""
        monkeypatch.setattr(pool_mod, "_worker_count", lambda: workers)
        baseline, fds = threading.active_count(), _open_fds()
        _table(random_guide)
        assert threading.active_count() == baseline
        assert _open_fds() == fds
        _no_child_left()

    @pytest.mark.parametrize("dims, limit_mb", [(FrameDims(320, 240, 8), 6.0),
                                                (FrameDims(64, 64, 16), 3.6)],
                             ids=["320x240x8", "64x64x16"])
    def test_peak_memory_is_the_table_and_one_workspace(self, monkeypatch, dims, limit_mb):
        """The parent holds one band's buffers whatever the number of
        processes, and the table, in shared memory, which ``tracemalloc``
        does not see: its bytes are recorded where it is allocated and
        added. Nothing else spans the volume. At two workers the peaks
        were 5.5 MB (1.1 volumes; the table is 2.7 MB of it) and 3.1 MB
        (the table is 0.3 MB)."""
        monkeypatch.setattr(pool_mod, "_worker_count", lambda: 2)
        _, guide = synth_scene(default_scene(dims))
        scorer = patches_mod._Scorer(dims, PatchGeometry())
        shared, allocate = [], pool_mod.shared

        def recorded(shape, dtype=np.float64):
            arr = allocate(shape, dtype)
            shared.append(arr.nbytes)
            return arr

        monkeypatch.setattr(pool_mod, "shared", recorded)
        tracemalloc.start()
        try:
            table = build_groups(guide, PatchGeometry())
            peak = tracemalloc.get_traced_memory()[1] + sum(shared)
        finally:
            tracemalloc.stop()
        assert shared == [table.top_left.nbytes]
        held = table.top_left.nbytes + patches_mod._Workspace.nbytes(scorer)
        assert held < peak < limit_mb * 1e6


class TestBlockOperators:
    def test_extract_against_naive(self, random_volume, random_guide):
        table = _table(random_guide)
        blocks = _gather(random_volume.values, table)
        assert blocks.shape == (table.n_groups, 9, 4)
        frames = random_volume.frames()
        for p, group in enumerate(table.members):
            members = [tuple(map(int, trip)) for trip in group]
            np.testing.assert_array_equal(blocks[p], extract_naive(frames, members, 3))

    def test_batched_extract_matches_per_group(self, random_volume, random_guide):
        table = _table(random_guide)
        blocks = _gather(random_volume.values, table)
        for p in range(0, table.n_groups, 5):
            single = PatchGroupTable(table.geometry, table.dims, table.top_left[p:p + 1])
            np.testing.assert_array_equal(
                blocks[p], _gather(random_volume.values, single)[0])

    def test_scatter_against_naive(self, rng, random_guide):
        table = _table(random_guide)
        blocks = rng.standard_normal((table.n_groups, 9, 4))
        got = _scatter(blocks, table)
        naive_groups = [[tuple(map(int, trip)) for trip in group] for group in table.members]
        d = random_guide.dims
        expect = scatter_naive([blocks[p] for p in range(table.n_groups)],
                               naive_groups, 3, (d.frames, d.height, d.width))
        np.testing.assert_allclose(got, expect.reshape(-1), atol=1e-12)

    def test_scatter_shape_checked(self, random_guide):
        table = _table(random_guide)
        with pytest.raises(DataError):
            scatter_sum(np.zeros((table.n_groups, 9, 3)), whole_index(table),
                        np.zeros(table.dims.total_voxels))

    def test_adjoint_identity(self, rng, random_volume, random_guide):
        """<B x, Y> == <x, B^T Y> for random volume x and block stack Y."""
        table = _table(random_guide)
        y = rng.standard_normal((table.n_groups, 9, 4))
        lhs = float(np.sum(_gather(random_volume.values, table) * y))
        rhs = float(random_volume.values @ _scatter(y, table))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_counts_against_naive(self, random_guide):
        table = _table(random_guide)
        naive_groups = [([tuple(map(int, trip)) for trip in group], None)
                        for group in table.members]
        d = random_guide.dims
        expect = counts_naive(naive_groups, 3, (d.frames, d.height, d.width))
        np.testing.assert_array_equal(compute_counts(table), expect.reshape(-1))

    def test_counts_cover_every_voxel(self, random_guide):
        assert compute_counts(_table(random_guide)).min() >= 1

    def test_counts_equal_scatter_of_ones(self, random_guide):
        table = _table(random_guide)
        ones = np.ones((table.n_groups, 9, 4))
        np.testing.assert_array_equal(compute_counts(table),
                                      _scatter(ones, table).astype(np.int64))

    @pytest.mark.parametrize("chunk", [1, 7, 10_000])
    def test_chunks_write_into_one_buffer(self, monkeypatch, random_guide, chunk):
        """Every chunk's index is gather_indices(groups), written into the
        buffer given, never a new array."""
        table = _table(random_guide)
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", chunk)
        whole = whole_index(table)
        index = _index(table)
        assert index.shape == (min(chunk, table.n_groups), 9, 4)
        seen = []
        for groups, idx in table.chunks(index):
            assert idx.tobytes() == whole[groups].tobytes()
            assert idx.base is index
            seen.append(groups)
        assert [g.start for g in seen] == list(range(0, table.n_groups, chunk))
        assert seen[-1].stop == table.n_groups

    def test_member_base_keeps_its_values(self, random_guide):
        """``top_left`` is ((t * H) + y) * W + x of the decoded members."""
        table = _table(random_guide)
        m = table.members.astype(np.int64)
        d = table.dims
        expect = (m[:, :, 2] * d.height + m[:, :, 1]) * d.width + m[:, :, 0]
        assert table.top_left.dtype == np.int32
        assert table.top_left.tobytes() == expect.astype(np.int32).tobytes()
        assert table.references.tobytes() == table.members[:, 0].tobytes()

    def test_a_built_table_stores_4_bytes_per_member(self, random_guide):
        """Matching stores one int32 per member, and nothing else until the
        reference counts are asked for."""
        table = _table(random_guide)
        stored = sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))
        assert stored == 4 * table.n_groups * table.geometry.group_size

    @pytest.mark.parametrize("dims, dtype", [
        (FrameDims(320, 240, 8), np.int32),
        (FrameDims(2 ** 31 - 1, 1, 1), np.int32),
        (FrameDims(2 ** 16, 2 ** 15, 1), np.int64),
        (FrameDims(2 ** 16, 2 ** 16, 3), np.int64)])
    def test_index_dtype_is_int64_from_2_31_voxels(self, dims, dtype):
        """The table's type holds the voxel count itself, so every flat
        index and every in-patch sum; it is chosen from the dims alone,
        without matching or allocating anything."""
        assert patches_mod._index_dtype(dims) == dtype

    def test_counts_above_255_are_uint16(self):
        """Stride 1 and 40-member groups on a constant 8 x 8 x 2 guide give
        some voxel more than 255 references, so the counts take two bytes
        each; they still equal the naive count."""
        dims = FrameDims(8, 8, 2)
        table = build_groups(IntensityVolume(dims, np.full(dims.total_voxels, 0.5)),
                             PatchGeometry(patch_side=3, stride=1, window=(5, 5, 3),
                                           group_size=40))
        counts = compute_counts(table)
        expect = np.bincount(whole_index(table).reshape(-1), minlength=dims.total_voxels)
        assert expect.max() > 255
        assert counts.dtype == np.uint16
        np.testing.assert_array_equal(counts, expect)

    @pytest.mark.parametrize("axis,value", [(0, -1), (0, 10), (1, 8), (2, 3), (2, -1)])
    def test_members_outside_the_volume_are_rejected(self, random_guide, axis, value):
        """The one bounds check per table, at construction, stands in for
        the gathers' own. The first reference, (0, 0, 0), moves to x = 10
        or y = 8, past the last patch position of the 12 x 10 x 3 guide, to
        t = 3, or to x or t = -1, a negative index."""
        table = _table(random_guide)
        assert table.top_left[0, 0] == 0
        x, y, t = (value if a == axis else 0 for a in range(3))
        top_left = table.top_left.copy()
        top_left[0, 0] = (t * table.dims.height + y) * table.dims.width + x
        with pytest.raises(DataError, match="outside the volume"):
            PatchGroupTable(table.geometry, table.dims, top_left)

    @pytest.mark.parametrize("top_left", [np.zeros((3, 4), np.int32), np.zeros(3, np.int32),
                                          np.zeros((3, 10)), np.zeros((3, 10, 1), np.int32)],
                             ids=["3x4", "3", "float_3x10", "3x10x1"])
    def test_wrongly_shaped_tables_are_rejected(self, top_left):
        """Only a 2-D integer array with a column per member builds a table;
        anything else would fail later, in the first ``compute_counts``."""
        geometry = PatchGeometry(group_size=10)
        with pytest.raises(DataError, match="2-D integer array with 10 columns"):
            PatchGroupTable(geometry, FrameDims(12, 12, 3), top_left)

    @pytest.mark.parametrize("top_left", [np.full((2, 4), 255, np.uint8),
                                          np.zeros((2, 4), np.int16), np.zeros((2, 4), np.int64)],
                             ids=["uint8", "int16", "int64"])
    def test_tables_of_another_index_type_are_rejected(self, top_left):
        """A table holds its members in ``_index_dtype(dims)``, int32 on a
        20 x 20 x 1 volume, the type ``build_groups`` stores. Any other is a
        DataError at construction: a uint8 decode would fail with numpy's
        OverflowError on the 400 voxels of a frame, and a narrow gather
        index could wrap."""
        geometry = PatchGeometry(3, 1, (5, 5, 1), 4)
        with pytest.raises(DataError, match="4 columns of type int32, got " + top_left.dtype.name):
            PatchGroupTable(geometry, FrameDims(20, 20, 1), top_left)

    def test_table_is_a_frozen_value(self, random_guide):
        """A table holds its geometry, dims and members and nothing a solve
        caches on it, so one table can serve any number of solves."""
        table = _table(random_guide)
        assert set(vars(table)) == {"geometry", "dims", "top_left"}
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.top_left = table.top_left.copy()

    def test_aggregate_reconstructs_exactly(self, random_volume, random_guide):
        out = _average(random_volume.values, _table(random_guide))
        np.testing.assert_allclose(out, random_volume.values, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_group_operators_property(data):
    """Full coverage and exact average reconstruction hold for any geometry,
    and chunked counts and scatters have the bytes of one whole-index sum."""
    patch = data.draw(st.integers(2, 4), label="patch")
    stride = data.draw(st.integers(1, patch), label="stride")
    w = data.draw(st.integers(patch, patch + 5), label="w")
    h = data.draw(st.integers(patch, patch + 5), label="h")
    t = data.draw(st.integers(1, 3), label="t")
    big_l = data.draw(st.integers(1, 6), label="L")
    dims = FrameDims(w, h, t)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    guide = IntensityVolume(dims, rng.uniform(0, 1, dims.total_voxels))
    vol_values = rng.uniform(-5, 5, dims.total_voxels)
    geom = PatchGeometry(patch_side=patch, stride=stride, window=(5, 5, 3),
                         group_size=big_l)
    table = build_groups(guide, geom)
    saved = patches_mod.CHUNK_GROUPS
    patches_mod.CHUNK_GROUPS = data.draw(st.integers(1, 8), label="chunk")
    try:
        counts = compute_counts(table)
        weights = rng.standard_normal((table.n_groups, patch * patch, big_l))
        chunked = _scatter(weights, table)
        average = _average(vol_values, table)
    finally:
        patches_mod.CHUNK_GROUPS = saved
    idx = whole_index(table)
    flat = idx.reshape(-1)
    expect = np.bincount(flat, minlength=dims.total_voxels)
    np.testing.assert_array_equal(counts, expect)
    assert counts.dtype == np.min_scalar_type(expect.max()) and counts.dtype.kind == "u"
    whole = np.bincount(flat, weights=weights.reshape(-1), minlength=dims.total_voxels)
    assert scatter_sum(weights, idx, np.zeros(dims.total_voxels)).tobytes() == whole.tobytes()
    assert chunked.tobytes() == whole.tobytes()
    assert counts.min() >= 1
    np.testing.assert_allclose(average, vol_values, atol=1e-10)
    # every member must be a valid patch position
    members = table.members
    assert np.all(members[:, :, 0] <= w - patch)
    assert np.all(members[:, :, 1] <= h - patch)
    assert np.all(members[:, :, 2] < t)
    assert np.all(members >= 0)
