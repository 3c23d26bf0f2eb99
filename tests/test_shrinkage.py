import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsr.shrinkage as shrinkage_mod
from dsr.errors import DataError
from dsr.shrinkage import (
    nu_shrink,
    prox_low_rank,
    prox_work,
    shrink_threshold,
)
from dsr.patches import PatchGeometry, build_groups
from dsr.scenes import default_scene, synth_scene
from dsr.volumes import FrameDims, SamplingOperator, apply_sampling, linear_interpolate
from oracles import prox_low_rank_ref, soft_threshold_ref

lams = st.floats(0.1, 10.0)
nus = st.floats(0.01, 1.0)
xs = st.floats(-1e4, 1e4, allow_nan=False)


class TestShrinkThreshold:
    def test_soft_case(self):
        assert shrink_threshold(2.5, 1.0) == pytest.approx(2.5)

    def test_hard_limit(self):
        # nu -> 0 gives the sqrt(lam) cutoff of hard thresholding
        assert shrink_threshold(4.0, 0.0) == pytest.approx(2.0)

    def test_general(self):
        assert shrink_threshold(8.0, 0.5) == pytest.approx(8.0 ** (1 / 1.5))


class TestNuShrink:
    def test_reduces_to_soft_threshold(self, rng):
        x = rng.standard_normal(200) * 3
        np.testing.assert_allclose(nu_shrink(x, 0.7, 1.0),
                                   soft_threshold_ref(x, 0.7), atol=1e-15)

    def test_zero_below_cutoff(self):
        thr = shrink_threshold(2.0, 0.3)
        assert nu_shrink(0.999 * thr, 2.0, 0.3) == 0.0
        assert nu_shrink(-0.999 * thr, 2.0, 0.3) == 0.0
        assert nu_shrink(0.0, 2.0, 0.3) == 0.0

    def test_continuous_at_cutoff(self):
        # just above the cutoff the output rises from 0 with slope 2 - nu
        for nu in (0.02, 0.3, 0.7, 1.0):
            thr = shrink_threshold(1.7, nu)
            eps = 1e-7
            val = nu_shrink(thr * (1 + eps), 1.7, nu)
            assert val == pytest.approx((2.0 - nu) * thr * eps, rel=1e-3)

    def test_hard_threshold_limit_value(self):
        # nu = 0, lam = 1: x - 1/x for |x| > 1
        assert nu_shrink(3.0, 1.0, 0.0) == pytest.approx(8.0 / 3.0, abs=1e-14)
        assert nu_shrink(1.0, 1.0, 0.0) == 0.0

    def test_scalar_in_scalar_out(self):
        out = nu_shrink(5.0, 1.0, 0.5)
        assert isinstance(out, float)

    def test_array_shape_preserved(self, rng):
        x = rng.standard_normal((3, 4))
        assert nu_shrink(x, 1.0, 0.5).shape == (3, 4)

    def test_bad_params(self):
        with pytest.raises(DataError):
            nu_shrink(1.0, -1.0, 0.5)
        with pytest.raises(DataError):
            nu_shrink(1.0, 1.0, 1.5)
        with pytest.raises(DataError):
            nu_shrink(1.0, 1.0, -0.1)

    @settings(max_examples=200, deadline=None)
    @given(x=xs, lam=lams, nu=nus)
    def test_odd_symmetry(self, x, lam, nu):
        assert nu_shrink(-x, lam, nu) == pytest.approx(-nu_shrink(x, lam, nu),
                                                       abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(x=xs, lam=lams, nu=nus)
    def test_never_amplifies(self, x, lam, nu):
        assert abs(nu_shrink(x, lam, nu)) <= abs(x) + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(a=xs, b=xs, lam=lams, nu=nus)
    def test_monotone(self, a, b, lam, nu):
        lo, hi = sorted((a, b))
        assert nu_shrink(lo, lam, nu) <= nu_shrink(hi, lam, nu) + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(x=xs, lam=lams)
    def test_scalar_moreau_identity(self, x, lam):
        """Soft thresholding plus the clamp to [-lam, lam] recovers the input."""
        assert nu_shrink(x, lam, 1.0) + np.clip(x, -lam, lam) == pytest.approx(
            x, abs=1e-12)


class TestProxNuclear:
    """Singular value soft thresholding is the low-rank prox at nu = 1."""

    def test_diagonal_example(self):
        out = prox_low_rank(np.diag([3.0, 1.0]), 1.0, 1.0)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_matches_reference(self, rng):
        for _ in range(10):
            mat = rng.standard_normal((6, 4)) * 2
            np.testing.assert_allclose(prox_low_rank(mat, 0.8, 1.0),
                                       prox_low_rank_ref(mat, 0.8, 1.0), atol=1e-10)

    def test_batch_matches_loop(self, rng):
        stack = rng.standard_normal((5, 4, 3))
        out = prox_low_rank(stack, 0.5, 1.0)
        for i in range(5):
            np.testing.assert_allclose(out[i], prox_low_rank(stack[i], 0.5, 1.0),
                                       atol=1e-12)

    def test_negative_lam_rejected(self):
        with pytest.raises(DataError):
            prox_low_rank(np.eye(2), -0.5, 1.0)

    def test_singular_values_soft_thresholded(self, rng):
        """Output spectrum equals the thresholded input spectrum."""
        mat = rng.uniform(1.0, 3.0, (5, 4))
        lam = 1.2
        sv_in = np.linalg.svd(mat, compute_uv=False)
        sv_out = np.linalg.svd(prox_low_rank(mat, lam, 1.0), compute_uv=False)
        np.testing.assert_allclose(sv_out, soft_threshold_ref(sv_in, lam),
                                   atol=1e-7)

    def test_matrix_moreau_residual_spectrum(self, rng):
        # Y - prox(Y) is the projection onto the lam spectral ball
        mat = rng.standard_normal((6, 5)) * 3
        lam = 1.0
        resid = mat - prox_low_rank(mat, lam, 1.0)
        sv_resid = np.linalg.svd(resid, compute_uv=False)
        sv_in = np.linalg.svd(mat, compute_uv=False)
        np.testing.assert_allclose(sv_resid, np.minimum(sv_in, lam), atol=1e-10)


class TestProxLowRank:
    def test_nu_one_equals_nuclear(self, rng):
        mat = rng.standard_normal((5, 4))
        np.testing.assert_allclose(prox_low_rank(mat, 0.6, 1.0),
                                   prox_low_rank_ref(mat, 0.6, 1.0), atol=1e-12)

    def test_hard_limit_diagonal_example(self):
        out = prox_low_rank(np.diag([3.0, 1.0]), 1.0, 0.0)
        np.testing.assert_allclose(out, np.diag([8.0 / 3.0, 0.0]), atol=1e-12)

    def test_spectrum_follows_scalar_shrinkage(self, rng):
        mat = rng.uniform(1.0, 3.0, (6, 4))
        lam, nu = 1.5, 0.3
        sv_in = np.linalg.svd(mat, compute_uv=False)
        sv_out = np.linalg.svd(prox_low_rank(mat, lam, nu), compute_uv=False)
        np.testing.assert_allclose(sv_out, nu_shrink(sv_in, lam, nu), atol=1e-7)

    def test_batch(self, rng):
        stack = rng.standard_normal((4, 5, 3))
        out = prox_low_rank(stack, 0.4, 0.2)
        assert out.shape == stack.shape
        for i in range(4):
            np.testing.assert_allclose(out[i], prox_low_rank(stack[i], 0.4, 0.2),
                                       atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            prox_low_rank(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1.0, 0.5)


def _rotated(spectrum, rows, cols, rng):
    """rows x cols matrix with the given singular values, up to rounding."""
    q_left, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    q_right, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    diag = np.zeros((rows, cols))
    diag[np.arange(len(spectrum)), np.arange(len(spectrum))] = spectrum
    return q_left @ diag @ q_right.T


#: The weights the reference test runs at, and the thresholds they give.
PROX_LAMS = (1e-8, 0.4, 12.0)
PROX_NUS = (0.0, 0.02, 1.0)
THRESHOLDS = sorted({shrink_threshold(lam, nu) for lam in PROX_LAMS for nu in PROX_NUS})
#: The threshold of the default weight the edge-case stacks are built around.
TAU = shrink_threshold(12.0, 0.02)


def _per_threshold(spectrum_of, rng, rows=25, cols=10):
    """One rows x cols block per reference threshold tau, with the singular
    values spectrum_of(tau)."""
    return np.stack([_rotated(spectrum_of(tau), rows, cols, rng) for tau in THRESHOLDS])


def _rank1_zero_column(rng):
    """Rank-1 blocks with s1 = 2 tau and an all-zero column."""
    left = rng.standard_normal((len(THRESHOLDS), 25, 1))
    right = rng.standard_normal((len(THRESHOLDS), 1, 10))
    right[:, :, 4] = 0.0
    scale = 2.0 * np.array(THRESHOLDS)[:, None, None]
    return scale * (left / np.linalg.norm(left, axis=1, keepdims=True)) @ (
        right / np.linalg.norm(right, axis=2, keepdims=True))


def _scene_blocks():
    """Every patch-group block, with the default geometry, of a 32x32x6
    default scene decimated x3 and linearly interpolated back."""
    depth, guide = synth_scene(default_scene(FrameDims(32, 32, 6)))
    est = linear_interpolate(apply_sampling(SamplingOperator.decimation(depth.dims, 3), depth))
    table = build_groups(guide, PatchGeometry())
    index = np.empty(table.chunk_shape(), dtype=np.int64)
    return np.concatenate([est.values[idx] for _, idx in table.chunks(index)])


def _mixed_routes(rng):
    """At (lam, nu) = (12, 0.02): certified rank-1, zeroed and fallback blocks,
    interleaved; returns the stack and the indices of each kind."""
    kinds = {"certified": [3.0 * TAU], "zeroed": [0.3 * TAU, 0.2 * TAU],
             "fallback": [3.0 * TAU, 2.0 * TAU, 1.5 * TAU]}
    order = [kind for _ in range(3) for kind in kinds]
    stack = np.stack([_rotated(kinds[kind], 25, 10, rng) for kind in order])
    return stack, {kind: [i for i, k in enumerate(order) if k == kind] for kind in kinds}


def _with_huge_blocks(rng):
    """Six ordinary 25 x 10 blocks, the second and fifth scaled by 1e250."""
    stack = rng.standard_normal((6, 25, 10)) * 3
    stack[[1, 4]] *= 1e250
    return stack


def _svd_reference_cases():
    rng = np.random.default_rng(7)
    rank1 = (rng.standard_normal((40, 25, 1)) * 2) @ rng.standard_normal((40, 1, 10))
    return {
        # patch-group stacks with block scales spread over two decades
        "stack": rng.standard_normal((40, 25, 10)) * rng.uniform(0.1, 10.0, (40, 1, 1)),
        "wide_1x10": rng.standard_normal((1, 10)) * 3,
        "wide_4x9": rng.standard_normal((5, 4, 9)) * 3,
        "square_6x6": rng.standard_normal((5, 6, 6)) * 3,
        "repeated_identity": 2.5 * np.eye(6, 4),
        "repeated_rotated": _rotated([4.0, 4.0, 4.0, 0.7, 0.7], 8, 5, rng),
        "zero": np.zeros((3, 25, 10)),
        "rank1_noise": rank1 + 1e-10 * rng.standard_normal(rank1.shape),
        # the certificate's edges, one block per threshold: s1 just on
        # either side of tau, a tail mass tr G - s1**2 just on either side
        # of tau**2, and s1 = s2 (relative gap 1e-8) below and above tau
        "s1_at_threshold": np.concatenate([
            _per_threshold(lambda tau: [tau * (1 - 1e-9)], rng),
            _per_threshold(lambda tau: [tau * (1 + 1e-9)], rng)]),
        "wide_s1_at_threshold": np.concatenate([
            _per_threshold(lambda tau: [tau * (1 + sign * 1e-9)], rng, rows=4, cols=9)
            for sign in (-1, 1)]),
        "tail_mass_at_threshold": np.concatenate([
            _per_threshold(lambda tau: [3 * tau] + 2 * [tau * np.sqrt((1 - 1e-9) / 2)], rng),
            _per_threshold(lambda tau: [3 * tau] + 2 * [tau * np.sqrt((1 + 1e-9) / 2)], rng)]),
        "near_equal_top": np.concatenate([
            _per_threshold(lambda tau: [0.9 * tau, 0.9 * tau * (1 - 1e-8)], rng),
            _per_threshold(lambda tau: [3 * tau, 3 * tau * (1 - 1e-8)], rng)]),
        # s2 / s1 = 0.8 with s2 < tau < s1: six power steps leave about
        # 0.64**6 = 0.07 of the second direction in v, which the gap test
        # must refuse
        "slow_top_convergence": _per_threshold(lambda tau: [1.2 * tau, 0.96 * tau], rng),
        "rank1_zero_column": _rank1_zero_column(rng),
        "mixed_routes": _mixed_routes(rng)[0],
        # Gram entries overflow float64: the whole stack, and two blocks
        # among ordinary ones
        "gram_overflow": np.full((2, 25, 10), 1e200),
        "gram_overflow_mixed": _with_huge_blocks(rng),
    }


SVD_REFERENCE_CASES = _svd_reference_cases()


@pytest.mark.parametrize("nu", PROX_NUS)
@pytest.mark.parametrize("lam", PROX_LAMS)
@pytest.mark.parametrize("case", sorted(SVD_REFERENCE_CASES))
def test_prox_matches_svd_reference(case, lam, nu):
    """The prox, on either of its routes, agrees with the full-SVD route to
    1e-9 of each block's largest entry; all-zero blocks come back as zeros,
    and rounded-negative Gram eigenvalues raise no floating-point error."""
    mat = SVD_REFERENCE_CASES[case]
    tol = 1e-9 * np.abs(mat).max(axis=(-2, -1))
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        out, ref = prox_low_rank(mat, lam, nu), prox_low_rank_ref(mat, lam, nu)
    assert out.shape == mat.shape
    assert np.all(np.isfinite(out))
    assert np.all(np.abs(out - ref).max(axis=(-2, -1)) <= tol)


@pytest.fixture
def fallback_calls(monkeypatch):
    """The (Gram stack, scale) pairs ``prox_low_rank`` hands to the
    eigendecomposition route."""
    calls, original = [], shrinkage_mod._projectors

    def spy(gram, fn, scale=1.0):
        calls.append((gram.copy(), scale))
        return original(gram, fn, scale)

    monkeypatch.setattr(shrinkage_mod, "_projectors", spy)
    return calls


def _fallback_count(calls) -> int:
    return sum(len(gram) for gram, _ in calls)


def _grams(blocks):
    """The Gram matrices B^T B of a stack of tall blocks."""
    return np.swapaxes(blocks, -1, -2) @ blocks


class TestProxRoutes:
    """Which blocks the certified rank-1 route keeps and which it refuses."""

    def test_clean_rank1_never_falls_back(self, fallback_calls, rng):
        left = rng.standard_normal((50, 25, 1))
        right = rng.standard_normal((50, 1, 10))
        rank1 = left @ right
        scale = np.linalg.norm(rank1, axis=(1, 2), keepdims=True)
        prox_low_rank(rank1 / scale * TAU * rng.uniform(1.01, 50.0, (50, 1, 1)), 12.0, 0.02)
        assert _fallback_count(fallback_calls) == 0

    def test_full_rank_at_small_lam_always_falls_back(self, fallback_calls, rng):
        prox_low_rank(rng.standard_normal((40, 25, 10)), 1e-8, 0.02)
        assert _fallback_count(fallback_calls) == 40

    def test_mixed_stack_sends_only_its_fallback_blocks(self, fallback_calls):
        stack, kinds = _mixed_routes(np.random.default_rng(3))
        out = prox_low_rank(stack, 12.0, 0.02)
        ((sent, scale),) = fallback_calls
        np.testing.assert_array_equal(sent, _grams(stack[kinds["fallback"]]))
        assert scale == 1.0
        assert not np.any(out[kinds["zeroed"]])
        assert np.all(np.abs(out[kinds["certified"]]).max(axis=(1, 2)) > 0)

    @pytest.mark.parametrize("sign,falls_back", [(-1, False), (1, True)])
    def test_tail_mass_decides_at_tau_squared(self, fallback_calls, rng, sign, falls_back):
        """A tail s2 = s3 whose Frobenius bound sqrt(s2**4 + s3**4) lies just
        on either side of tau**2, while its sum s2**2 + s3**2 is about
        1.41 tau**2. The top value 10 tau leaves the power steps (1/200)**7
        of the tail in v, so the gap test passes and the bound alone
        decides."""
        tail = TAU * ((1 + sign * 1e-9) / np.sqrt(2)) ** 0.5
        prox_low_rank(_rotated([10 * TAU, tail, tail], 25, 10, rng), 12.0, 0.02)
        assert _fallback_count(fallback_calls) == int(falls_back)

    def test_frobenius_bound_certifies_a_heavy_tail(self, fallback_calls):
        """Four tail values with s**2 = 0.45 tau**2: their sum 1.8 tau**2
        exceeds tau**2, but ||QGQ||_F = 0.9 tau**2 does not, so every block
        is certified, and it agrees with the full-SVD prox to 1e-12 of its
        largest entry."""
        rng = np.random.default_rng(23)
        tail = 4 * [TAU * np.sqrt(0.45)]
        stack = np.stack([_rotated([s1] + tail, 25, 10, rng)
                          for s1 in TAU * rng.uniform(6.0, 20.0, 32)])
        tail_sq = np.linalg.svd(stack, compute_uv=False)[:, 1:] ** 2
        assert np.all(tail_sq.sum(axis=1) > 1.7 * TAU**2)
        assert np.all(np.sqrt((tail_sq**2).sum(axis=1)) < 0.91 * TAU**2)
        out = prox_low_rank(stack, 12.0, 0.02)
        assert _fallback_count(fallback_calls) == 0
        peak = np.abs(stack).max(axis=(1, 2))
        ref = prox_low_rank_ref(stack, 12.0, 0.02)
        assert np.all(np.abs(out - ref).max(axis=(1, 2)) <= 1e-12 * peak)

    def test_every_block_the_tail_sum_certifies_stays_certified(self):
        """The bound only adds blocks to the tail-sum test
        tr G - mu <= tau**2 with ||r|| < 1e-12 (2 mu - tr G): each block that
        passes it is certified, on the mixed-route stack, on random stacks of
        a strong rank-1 part plus noise of spread-out size and on every patch
        group of a scene decimated x3 and interpolated back."""
        rng = np.random.default_rng(29)
        rank1 = rng.standard_normal((512, 25, 1)) @ rng.standard_normal((512, 1, 10))
        noise = rng.standard_normal((512, 25, 10)) * 10.0 ** rng.uniform(-3, 0, (512, 1, 1))
        added = 0
        for stack in (_mixed_routes(rng)[0], TAU * (rank1 + noise), _scene_blocks()):
            gram = _grams(stack)
            trace = np.einsum("gii->g", gram)
            frob2 = np.einsum("gij,gij->g", gram, gram)
            vec, mu, live, certified = shrinkage_mod._top_eigenpairs(gram, trace, frob2, TAU)
            resid = np.linalg.norm(np.einsum("gij,gj->gi", gram, vec) - mu[:, None] * vec,
                                   axis=-1)
            by_sum = live & (trace - mu <= TAU**2) & (resid < 1e-12 * (2 * mu - trace))
            assert np.all(certified[by_sum])
            added += np.count_nonzero(certified & ~by_sum)
        assert added > 0

    def test_trace_certifies_where_the_frobenius_floor_tops_tau_squared(self, fallback_calls):
        """Flat patches of depths in millimetres: s1 is about 9,000 tau, so
        the rounding floor of the Frobenius bound, 2 k**2 ulps of
        ||G||_F**2, is above tau**2 by itself; tr G - mu is not, and every
        block is certified and agrees with the full-SVD prox."""
        rng = np.random.default_rng(31)
        stack = rng.uniform(1500.0, 2500.0, (16, 1, 1)) + 1e-6 * rng.standard_normal((16, 25, 10))
        frob2 = np.einsum("gij,gij->g", _grams(stack), _grams(stack))
        assert np.all(2 * 10**2 * np.finfo(float).eps * frob2 > TAU**4)
        out = prox_low_rank(stack, 12.0, 0.02)
        assert _fallback_count(fallback_calls) == 0
        peak = np.abs(stack).max(axis=(1, 2))
        ref = prox_low_rank_ref(stack, 12.0, 0.02)
        assert np.all(np.abs(out - ref).max(axis=(1, 2)) <= 1e-12 * peak)

    @pytest.mark.parametrize("spectrum", [[0.9, 0.9 * (1 - 1e-8)], [3.0, 3.0 * (1 - 1e-8)],
                                          [1.2, 0.96]])
    def test_close_top_pair_is_refused(self, fallback_calls, rng, spectrum):
        prox_low_rank(_rotated(TAU * np.array(spectrum), 25, 10, rng), 12.0, 0.02)
        assert _fallback_count(fallback_calls) == 1

    def test_overflowing_blocks_leave_the_others_unchanged(self, fallback_calls):
        stack = _with_huge_blocks(np.random.default_rng(5))
        ordinary = [0, 2, 3, 5]
        with np.errstate(over="raise"):
            out = prox_low_rank(stack, 0.4, 0.02)
        assert out[ordinary].tobytes() == prox_low_rank(stack[ordinary], 0.4, 0.02).tobytes()
        # the two overflowing blocks reach the eigendecomposition as the
        # Gram matrices of their rescales to a largest entry in [0.5, 1)
        ((sent, scale),) = [(g, sc) for g, sc in fallback_calls if np.ndim(sc)]
        assert max(np.abs(g).max() for g, _ in fallback_calls) < 1e3
        peaks = np.abs(stack[[1, 4]]).max(axis=(1, 2)) / scale.ravel()
        assert np.all((0.5 <= peaks) & (peaks < 1.0))
        np.testing.assert_array_equal(sent, _grams(stack[[1, 4]] / scale[:, :, None]))

    @pytest.mark.parametrize("peak", [1e78, 1e100, 1e153])
    def test_overflowing_frobenius_norm_takes_the_rescaled_route(self, fallback_calls, peak):
        """A finite rank-1 block whose trace is finite but whose ||G||_F**2
        overflows, as from entries of about 1e77 to 1e154, would overflow
        the power steps; it takes the rescaled route, warns of nothing and
        gives the SVD reference."""
        rng = np.random.default_rng(37)
        block = peak * np.outer(rng.uniform(0.5, 1.0, 25), rng.uniform(0.5, 1.0, 10))
        gram = _grams(block[None])
        with np.errstate(over="ignore"):
            assert np.isfinite(np.trace(gram[0]))
            assert not np.isfinite(np.einsum("gij,gij->g", gram, gram)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = prox_low_rank(block, 12.0, 0.02)
        ((_, scale),) = fallback_calls
        assert np.ndim(scale)
        ref = prox_low_rank_ref(block, 12.0, 0.02)
        assert np.abs(out - ref).max() <= 1e-9 * np.abs(block).max()

    def test_checks_run_before_either_route(self, fallback_calls):
        with pytest.raises(DataError):
            prox_low_rank(np.full((2, 25, 10), np.nan), 12.0, 0.02)
        with pytest.raises(DataError):
            prox_low_rank(np.ones((2, 25, 10)), 0.0, 0.02)
        assert fallback_calls == []

    def test_empty_stacks_keep_their_shape(self):
        for shape in [(0, 25, 10), (3, 0, 4), (2, 4, 0)]:
            assert prox_low_rank(np.zeros(shape), 1.0, 0.5).shape == shape

    @pytest.mark.parametrize("ratio", [1e-3, 0.1, 0.3, 0.5])
    def test_certified_blocks_match_the_svd_reference(self, fallback_calls, ratio):
        """Blocks with singular values s1 and s2 = ratio * s1, s2 < tau < s1.
        Every block the certificate keeps agrees with the full-SVD prox to
        1e-11 of its largest entry. Far-apart pairs are all certified; the
        power steps leave too much of s2's direction in v on closer pairs,
        and the gap test sends those to the eigendecomposition."""
        rng = np.random.default_rng(17)
        stack = np.stack([_rotated([s1, ratio * s1], 25, 10, rng)
                          for s1 in TAU * rng.uniform(1.05, 1.9, 64)])
        out = prox_low_rank(stack, 12.0, 0.02)
        sent = {g.tobytes() for gram, _ in fallback_calls for g in gram}
        certified = [i for i, g in enumerate(_grams(stack)) if g.tobytes() not in sent]
        assert len(certified) + len(sent) == len(stack)
        if ratio <= 0.1:
            assert len(certified) == len(stack)
        ref = prox_low_rank_ref(stack[certified], 12.0, 0.02)
        peak = np.abs(stack[certified]).max(axis=(1, 2))
        assert np.all(np.abs(out[certified] - ref).max(axis=(1, 2)) <= 1e-11 * peak)

    @pytest.mark.parametrize("huge", [False, True], ids=["alone", "beside_1e200"])
    @pytest.mark.parametrize("entry", [0, 125, 249], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entries_are_refused_before_out_is_written(self, value, entry, huge):
        """Every entry enters its block's Gram trace squared, so one NaN or
        infinity anywhere in a 256-block stack makes that trace non-finite,
        also beside a finite block whose trace overflows. It is a DataError,
        and neither ``out`` nor an input that is its own output is written."""
        stack = np.random.default_rng(11).standard_normal((256, 25, 10)) * 3
        if huge:
            stack[20] *= 1e200
        stack[137].flat[entry] = value
        for target in (np.full_like(stack, 7.0), stack):
            before = target.tobytes()
            with pytest.raises(DataError, match="finite"):
                prox_low_rank(stack, 12.0, 0.02, out=target, work=prox_work(256, 25, 10))
            assert target.tobytes() == before


#: Stacks that take each route of the prox: certified rank 1 (with zeroed
#: blocks), the eigendecomposition fallback, the rescaled overflow route,
#: and wide blocks on both routes.
OUT_CASES = ("mixed_routes", "stack", "rank1_noise", "gram_overflow_mixed",
             "wide_4x9", "wide_s1_at_threshold", "repeated_rotated", "zero")


class TestProxOut:
    """``prox_low_rank(..., out=, work=)`` writes the bytes of the plain call."""

    @pytest.mark.parametrize("lam,nu", [(12.0, 0.02), (0.4, 0.02), (1e-8, 1.0)])
    @pytest.mark.parametrize("case", OUT_CASES)
    def test_out_and_work_give_the_same_bytes(self, case, lam, nu):
        mat = SVD_REFERENCE_CASES[case]
        expect = prox_low_rank(mat, lam, nu)
        blocks = mat.reshape((-1,) + mat.shape[-2:])
        # scratch for more blocks than the stack has, left dirty on purpose
        work = np.full(prox_work(len(blocks) + 5, *mat.shape[-2:]).shape, np.nan)
        buf = np.full(mat.shape, np.nan)
        assert prox_low_rank(mat, lam, nu, out=buf) is buf
        assert buf.tobytes() == expect.tobytes()
        buf[...] = np.nan
        assert prox_low_rank(mat, lam, nu, out=buf, work=work) is buf
        assert buf.tobytes() == expect.tobytes()
        # in place: the input is its own output
        inplace = mat.copy()
        assert prox_low_rank(inplace, lam, nu, out=inplace, work=work) is inplace
        assert inplace.tobytes() == expect.tobytes()

    def test_work_is_reused_across_calls(self, rng):
        """One scratch serves stacks of any size up to its own, in any order."""
        work = prox_work(40, 25, 10)
        stacks = [rng.standard_normal((n, 25, 10)) * rng.uniform(0.1, 10.0, (n, 1, 1))
                  for n in (40, 7, 1, 40)]
        for stack in stacks:
            out = np.empty_like(stack)
            prox_low_rank(stack, 0.4, 0.02, out=out, work=work)
            assert out.tobytes() == prox_low_rank(stack, 0.4, 0.02).tobytes()

    @pytest.mark.parametrize("bad", [np.empty((40, 25, 9)), np.empty((40, 25, 10), np.float32),
                                     np.empty((40, 10, 25)).swapaxes(1, 2), [0.0]])
    def test_out_must_match_the_input(self, bad):
        with pytest.raises(DataError):
            prox_low_rank(SVD_REFERENCE_CASES["stack"], 0.4, 0.02, out=bad)

    def test_empty_stack_returns_out(self):
        out = np.empty((0, 25, 10))
        assert prox_low_rank(np.zeros((0, 25, 10)), 1.0, 0.5, out=out) is out
