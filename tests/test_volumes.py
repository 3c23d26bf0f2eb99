import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsr.errors import DataError
from dsr.volumes import (
    DepthVolume,
    FrameDims,
    IntensityVolume,
    Measurements,
    SamplingOperator,
    _norm,
    _sum_squares,
    add_noise,
    apply_sampling,
    linear_interpolate,
    mask_fill,
    per_frame_snr,
    snr_db,
)
from oracles import adjoint_ref, bilinear_naive, mask_fill_ref, occupancy


class TestFrameDims:
    def test_counts(self):
        assert FrameDims(6, 4, 3).total_voxels == 72

    @pytest.mark.parametrize("bad", [(0, 4, 3), (6, -1, 3), (6, 4, 0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(DataError):
            FrameDims(*bad)


class TestVolumes:
    def test_from_frames_round_trip(self, rng):
        frames = rng.uniform(0.0, 5.0, (3, 4, 6))
        vol = DepthVolume.from_frames(frames)
        assert vol.dims == FrameDims(6, 4, 3)
        np.testing.assert_array_equal(vol.frames(), frames)

    def test_flat_index_convention(self):
        # index = t*W*H + y*W + x
        frames = np.arange(24.0).reshape(2, 3, 4)
        vol = DepthVolume.from_frames(frames)
        assert vol.values[1 * 12 + 2 * 4 + 3] == frames[1, 2, 3]

    def test_size_mismatch(self):
        with pytest.raises(DataError):
            DepthVolume(FrameDims(2, 2, 2), np.zeros(7))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            DepthVolume(FrameDims(2, 2, 1), [1.0, np.nan, 0.0, 2.0])

    def test_finiteness_check_makes_no_mask(self, rng):
        """A volume built from a float64 array is checked without a
        one-byte-per-voxel mask: the traced peak stays below 0.01 volume."""
        dims = FrameDims(320, 240, 8)
        values = rng.uniform(1.0, 9.0, dims.total_voxels)
        tracemalloc.start()
        try:
            DepthVolume(dims, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * values.nbytes

    def test_intensity_range_checked(self):
        with pytest.raises(DataError):
            IntensityVolume(FrameDims(2, 1, 1), [0.5, 1.5])
        IntensityVolume(FrameDims(2, 1, 1), [0.0, 1.0])


class TestSamplingOperator:
    def test_decimation_grid(self):
        op = SamplingOperator.decimation(FrameDims(6, 5, 2), 2)
        sel = op.mask[:30].reshape(5, 6)
        expect = np.zeros((5, 6), dtype=bool)
        expect[::2, ::2] = True
        np.testing.assert_array_equal(sel, expect)
        # same grid replicated on every frame
        np.testing.assert_array_equal(op.mask[30:].reshape(5, 6), expect)
        assert op.n_measurements == 3 * 3 * 2

    def test_factor_one_keeps_everything(self):
        op = SamplingOperator.decimation(FrameDims(4, 3, 2), 1)
        assert op.n_measurements == 24

    def test_indices_sorted(self, small_dims, rng):
        mask = rng.uniform(size=small_dims.total_voxels) < 0.3
        mask[0] = True
        op = SamplingOperator.from_mask(small_dims, mask)
        assert np.all(np.diff(op.indices) > 0)

    def test_mask_size_checked(self, small_dims):
        with pytest.raises(DataError):
            SamplingOperator.from_mask(small_dims, np.ones(5, dtype=bool))

    def test_equality(self, small_dims):
        a = SamplingOperator.decimation(small_dims, 2)
        b = SamplingOperator.decimation(small_dims, 2)
        c = SamplingOperator.decimation(small_dims, 3)
        assert a == b and a != c

    def test_apply_reads_scan_order(self, random_volume):
        op = SamplingOperator.decimation(random_volume.dims, 3)
        m = apply_sampling(op, random_volume)
        np.testing.assert_array_equal(m.values, random_volume.values[op.indices])

    def test_adjoint_zero_fills(self, random_volume):
        op = SamplingOperator.decimation(random_volume.dims, 2)
        m = apply_sampling(op, random_volume)
        back = adjoint_ref(op, m.values)
        np.testing.assert_array_equal(back[op.indices], m.values)
        assert np.all(back[~op.mask] == 0.0)

    def test_adjoint_dot_product_identity(self, rng, small_dims):
        """<H x, y> == <x, H^T y> holds exactly for selection operators."""
        op = SamplingOperator.from_mask(
            small_dims, rng.uniform(size=small_dims.total_voxels) < 0.4)
        x = DepthVolume(small_dims, rng.standard_normal(small_dims.total_voxels))
        y = rng.standard_normal(op.n_measurements)
        lhs = float(apply_sampling(op, x).values @ y)
        rhs = float(x.values @ adjoint_ref(op, y))
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_normal_matrix_is_occupancy_diagonal(self, random_volume):
        op = SamplingOperator.decimation(random_volume.dims, 2)
        m = apply_sampling(op, random_volume)
        hth = adjoint_ref(op, m.values)
        np.testing.assert_allclose(
            hth, occupancy(op) * random_volume.values, rtol=0, atol=0)

    def test_occupancy_binary(self, small_dims):
        op = SamplingOperator.decimation(small_dims, 2)
        occ = occupancy(op)
        assert set(np.unique(occ)) <= {0, 1}
        assert occ.sum() == op.n_measurements

    def test_measurements_length_checked(self, small_dims):
        op = SamplingOperator.decimation(small_dims, 2)
        with pytest.raises(DataError):
            Measurements(np.zeros(op.n_measurements + 1), op)


class TestSnr:
    def test_known_value(self):
        # ||ref||^2 = 25, ||err||^2 = 25 -> 0 dB
        assert snr_db([3.0, 4.0], [3.0, -1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_ten_db(self):
        ref = np.ones(1000)
        est = ref + np.sqrt(0.1)
        assert snr_db(ref, est) == pytest.approx(10.0, abs=1e-9)

    def test_exact_match_is_inf(self):
        assert snr_db([1.0, 2.0], [1.0, 2.0]) == np.inf

    def test_zero_reference_rejected(self):
        with pytest.raises(DataError):
            snr_db([0.0, 0.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            snr_db([1.0], [1.0, 2.0])

    def test_per_frame(self, rng):
        ref = DepthVolume.from_frames(rng.uniform(1, 5, (3, 4, 4)))
        est = DepthVolume.from_frames(ref.frames() + rng.normal(0, 0.1, (3, 4, 4)))
        curve = per_frame_snr(ref, est)
        assert curve.shape == (3,)
        for k in range(3):
            assert curve[k] == pytest.approx(
                snr_db(ref.frames()[k], est.frames()[k]))

    def test_per_frame_dims_checked(self, random_volume):
        other = DepthVolume(FrameDims(10, 12, 3),
                            np.ones(random_volume.dims.total_voxels))
        with pytest.raises(DataError):
            per_frame_snr(random_volume, other)


def test_norm_falls_back_only_when_the_plain_norm_overflows(rng):
    x = rng.standard_normal(1000)
    assert _norm(x) == math.sqrt(np.einsum("i,i->", x, x))
    assert _norm(x * 1e300) == pytest.approx(1e300 * float(np.linalg.norm(x)), rel=1e-12)


def test_norms_and_snr_share_one_sum_of_squares(rng):
    """Whatever the shape, ``_sum_squares`` is the ``einsum`` sum of the
    flat values, ``_norm`` its root and ``snr_db`` the ratio of two of them."""
    ref, est = rng.standard_normal((2, 4, 6, 5))
    assert _sum_squares(ref) == float(np.einsum("i,i->", ref.reshape(-1), ref.reshape(-1)))
    assert _norm(ref) == math.sqrt(_sum_squares(ref))
    assert snr_db(ref, est) == 10.0 * float(np.log10(_sum_squares(ref) / _sum_squares(ref - est)))


class TestAddNoise:
    def _meas(self, rng, n=400):
        dims = FrameDims(n, 1, 1)
        op = SamplingOperator.decimation(dims, 1)
        return Measurements(rng.uniform(2.0, 8.0, n), op)

    def test_hits_target_exactly(self, rng):
        m = self._meas(rng)
        noisy = add_noise(m, 25.0, seed=3)
        assert snr_db(m.values, noisy.values) == pytest.approx(25.0, abs=1e-10)

    def test_seeded_and_deterministic(self, rng):
        m = self._meas(rng)
        a = add_noise(m, 20.0, seed=5)
        b = add_noise(m, 20.0, seed=5)
        c = add_noise(m, 20.0, seed=6)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_infinite_target_is_noise_free(self, rng):
        m = self._meas(rng)
        out = add_noise(m, np.inf, seed=0)
        np.testing.assert_array_equal(out.values, m.values)
        assert out.values is not m.values

    @pytest.mark.parametrize("bad", [-np.inf, np.nan, -1e40, -6166.0])
    def test_invalid_target_rejected(self, rng, bad):
        # below about -6165 dB the noise level 10 ** (-snr / 20) overflows a float
        with pytest.raises(DataError):
            add_noise(self._meas(rng), bad, seed=0)

    @pytest.mark.parametrize("target", [20.0, np.inf])
    def test_negative_seed_rejected(self, rng, target):
        with pytest.raises(DataError, match="seed"):
            add_noise(self._meas(rng), target, seed=-1)

    def test_zero_signal_rejected(self):
        op = SamplingOperator.decimation(FrameDims(4, 1, 1), 1)
        with pytest.raises(DataError):
            add_noise(Measurements(np.zeros(4), op), 10.0, seed=0)


class TestLinearInterpolate:
    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_matches_separable_oracle(self, rng, factor):
        dims = FrameDims(13, 11, 2)
        vol = DepthVolume(dims, rng.uniform(1, 9, dims.total_voxels))
        op = SamplingOperator.decimation(dims, factor)
        out = linear_interpolate(apply_sampling(op, vol))
        low = vol.frames()[:, ::factor, ::factor]
        for k in range(dims.frames):
            expect = bilinear_naive(low[k], factor, dims.width, dims.height)
            np.testing.assert_allclose(out.frames()[k], expect, atol=1e-12)

    def test_exact_at_samples(self, rng):
        dims = FrameDims(16, 12, 3)
        vol = DepthVolume(dims, rng.uniform(1, 9, dims.total_voxels))
        op = SamplingOperator.decimation(dims, 4)
        out = linear_interpolate(apply_sampling(op, vol))
        np.testing.assert_array_equal(out.values[op.indices],
                                      vol.values[op.indices])

    def test_factor_one_is_identity(self, random_volume):
        op = SamplingOperator.decimation(random_volume.dims, 1)
        out = linear_interpolate(apply_sampling(op, random_volume))
        np.testing.assert_array_equal(out.values, random_volume.values)

    def test_edge_replication(self):
        # width 5, factor 3 -> samples at x = 0, 3; column 4 extrapolates flat
        frames = np.arange(5.0).reshape(1, 1, 5).repeat(2, axis=1)
        vol = DepthVolume.from_frames(frames)
        op = SamplingOperator.decimation(vol.dims, 3)
        out = linear_interpolate(apply_sampling(op, vol)).frames()
        assert out[0, 0, 4] == out[0, 0, 3] == 3.0

    def test_requires_decimation(self, random_volume):
        op = SamplingOperator.from_mask(
            random_volume.dims, np.ones(random_volume.dims.total_voxels, bool))
        m = apply_sampling(op, random_volume)
        with pytest.raises(DataError):
            linear_interpolate(m)


class TestMaskFill:
    def test_matches_brute_force(self, rng):
        dims = FrameDims(7, 6, 2)
        vol = DepthVolume(dims, rng.uniform(1, 9, dims.total_voxels))
        mask = rng.uniform(size=dims.total_voxels) < 0.25
        mask[0] = mask[dims.width * dims.height] = True  # keep every frame fillable
        op = SamplingOperator.from_mask(dims, mask)
        out = mask_fill(apply_sampling(op, vol))
        expect = mask_fill_ref(mask.reshape(2, 6, 7), vol.values[mask])
        np.testing.assert_array_equal(out.frames(), expect)

    def test_keeps_measured_values(self, rng):
        dims = FrameDims(9, 9, 1)
        vol = DepthVolume(dims, rng.uniform(1, 9, dims.total_voxels))
        mask = rng.uniform(size=dims.total_voxels) < 0.4
        mask[40] = True
        op = SamplingOperator.from_mask(dims, mask)
        out = mask_fill(apply_sampling(op, vol))
        np.testing.assert_array_equal(out.values[op.indices],
                                      vol.values[op.indices])

    def test_tie_goes_to_smallest_scan_index(self):
        # measured at x=0 and x=4; x=2 is equidistant, takes the earlier one
        dims = FrameDims(5, 1, 1)
        vol = DepthVolume(dims, [10.0, 0.0, 0.0, 0.0, 20.0])
        mask = np.array([True, False, False, False, True])
        out = mask_fill(apply_sampling(SamplingOperator.from_mask(dims, mask), vol))
        assert out.values[2] == 10.0

    def test_empty_frame_rejected(self):
        dims = FrameDims(3, 3, 2)
        mask = np.zeros(18, dtype=bool)
        mask[:9] = True  # second frame has nothing to fill from
        op = SamplingOperator.from_mask(dims, mask)
        m = apply_sampling(op, DepthVolume(dims, np.ones(18)))
        with pytest.raises(DataError):
            mask_fill(m)

    def test_requires_mask_operator(self, random_volume):
        op = SamplingOperator.decimation(random_volume.dims, 2)
        with pytest.raises(DataError):
            mask_fill(apply_sampling(op, random_volume))


@st.composite
def fill_masks(draw):
    """(T, H, W) masks with every frame fillable: 1x1, 1xN and Nx1 frames,
    single samples, full frames and unsampled rows and columns all occur."""
    width = draw(st.integers(1, 13))
    height = draw(st.integers(1, 13))
    n_frames = draw(st.integers(1, 3))
    frames = []
    for _ in range(n_frames):
        kind = draw(st.sampled_from(["one", "sparse", "dense", "full"]))
        if kind == "full":
            frame = np.ones(width * height, dtype=bool)
        else:
            frame = np.zeros(width * height, dtype=bool)
            if kind != "one":
                bits = draw(st.lists(st.integers(0, 9), min_size=frame.size,
                                     max_size=frame.size))
                frame = np.array(bits) < (2 if kind == "sparse" else 7)
            frame[draw(st.integers(0, frame.size - 1))] = True
        frames.append(frame.reshape(height, width))
    return np.stack(frames)


def _fill(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    n_t, height, width = mask.shape
    op = SamplingOperator.from_mask(FrameDims(width, height, n_t), mask.reshape(-1))
    return mask_fill(Measurements(values, op)).frames()


class TestMaskFillExact:
    """mask_fill against the brute-force reference, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(fill_masks())
    def test_matches_reference(self, mask):
        values = np.arange(1, int(mask.sum()) + 1) * 1.25  # one value per sample
        assert _fill(mask, values).tobytes() == mask_fill_ref(mask, values).tobytes()

    @pytest.mark.parametrize("samples,pick", [
        ([(2, 0), (0, 2), (4, 2), (2, 4)], (2, 0)),  # four at distance 2
        ([(0, 2), (4, 2)], (0, 2)),                  # same row, left wins
        ([(2, 4), (2, 0)], (2, 0)),                  # same column, upper wins
        ([(3, 3), (1, 1), (3, 1), (1, 3)], (1, 1)),  # four diagonals
        ([(4, 3), (0, 1)], (0, 1)),                  # distance^2 5 both ways
    ])
    def test_equidistant_tie_takes_smallest_scan_index(self, samples, pick):
        mask = np.zeros((1, 5, 5), dtype=bool)
        for x, y in samples:
            mask[0, y, x] = True
        values = np.arange(1.0, mask.sum() + 1)  # scan order
        out = _fill(mask, values)
        assert out[0, 2, 2] == out[0, pick[1], pick[0]]

    def test_320x240_frame_at_2_5_percent(self, rng):
        mask = rng.uniform(size=(1, 240, 320)) < 0.025
        values = rng.uniform(1, 9, int(mask.sum()))
        assert _fill(mask, values).tobytes() == mask_fill_ref(mask, values).tobytes()

    def test_peak_memory_stays_within_a_few_frames(self, rng):
        dims = FrameDims(320, 240, 4)
        op = SamplingOperator.from_mask(dims, rng.uniform(size=dims.total_voxels) < 0.025)
        m = Measurements(rng.uniform(1, 9, op.n_measurements), op)
        tracemalloc.start()
        try:
            mask_fill(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * dims.width * dims.height * 8


@settings(max_examples=30, deadline=None)
@given(factor=st.integers(1, 4), data=st.data())
def test_sampling_round_trip_property(factor, data):
    """Sampling then scattering then sampling again is the identity on values."""
    w = data.draw(st.integers(factor, 9), label="w")
    h = data.draw(st.integers(factor, 9), label="h")
    t = data.draw(st.integers(1, 3), label="t")
    dims = FrameDims(w, h, t)
    values = np.asarray(
        data.draw(st.lists(st.floats(-50, 50), min_size=dims.total_voxels,
                           max_size=dims.total_voxels), label="values"))
    vol = DepthVolume(dims, values)
    op = SamplingOperator.decimation(dims, factor)
    m = apply_sampling(op, vol)
    again = apply_sampling(op, DepthVolume(dims, adjoint_ref(op, m.values)))
    np.testing.assert_array_equal(again.values, m.values)
