import errno
import math
import os
import resource
import signal
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import dsr.patches as patches_mod
import dsr.solvers as solvers_mod
from dsr.errors import DataError, NumericError
from dsr.patches import PatchGeometry, PatchGroupTable, build_groups
from dsr.scenes import default_scene, synth_scene
from dsr.shrinkage import prox_low_rank
from dsr.solvers import (
    SolveReport,
    SolverConfig,
    admm_phi_step,
    default_initialization,
    default_lambda_grid,
    objective_nuclear,
    run_pipeline,
    select_lambda,
    solve_admm,
    solve_simplified,
)
from dsr.volumes import (
    DepthVolume,
    FrameDims,
    IntensityVolume,
    Measurements,
    SamplingOperator,
    add_noise,
    apply_sampling,
    linear_interpolate,
    mask_fill,
    snr_db,
)
from oracles import (iterate_ref, objective_nuclear_naive, phi_step_dense, prox_low_rank_ref,
                     whole_index)

GEOM = PatchGeometry(patch_side=3, stride=2, window=(5, 5, 3), group_size=4)


@pytest.fixture
def problem(rng):
    """Small decimation problem with a correlated guide."""
    dims = FrameDims(12, 12, 3)
    ramp = np.linspace(4.0, 8.0, dims.total_voxels)
    vol = DepthVolume(dims, ramp + rng.normal(0, 0.2, dims.total_voxels))
    guide_vals = (vol.values - vol.values.min()) / np.ptp(vol.values)
    guide = IntensityVolume(dims, guide_vals)
    op = SamplingOperator.decimation(dims, 2)
    psi = apply_sampling(op, vol)
    table = build_groups(guide, GEOM)
    return vol, guide, psi, table


def _sampled(rng, n, fraction=0.4):
    """Measurements at a random fraction of ``n`` voxels, with their dense
    occupancy and adjoint ``H^T psi``."""
    mask = rng.uniform(size=n) < fraction
    psi = Measurements(rng.uniform(2, 9, int(mask.sum())),
                       SamplingOperator.from_mask(FrameDims(n, 1, 1), mask))
    ht_psi = np.zeros(n)
    ht_psi[mask] = psi.values
    return psi, mask.astype(np.float64), ht_psi


class TestPhiSteps:
    def test_admm_step_matches_dense_solve(self, rng):
        """The diagonal update agrees with a dense linear solve to 1e-8."""
        n = 80
        psi, occ, ht_psi = _sampled(rng, n)
        counts = rng.integers(1, 9, n).astype(np.float64)
        bt_z = rng.standard_normal(n) * 3
        rho = 0.7
        got = admm_phi_step(psi, rho * counts, bt_z, rho)
        expect = phi_step_dense(occ, counts, ht_psi, bt_z, rho)
        np.testing.assert_allclose(got, expect, atol=1e-8)

    def test_simplified_step_matches_dense_solve(self, rng):
        n = 80
        psi, occ, ht_psi = _sampled(rng, n)
        phi_tilde = rng.uniform(2, 9, n)
        rho = 1.3
        got = admm_phi_step(psi, rho, phi_tilde, rho)
        expect = phi_step_dense(occ, np.ones(n), ht_psi, phi_tilde, rho)
        np.testing.assert_allclose(got, expect, atol=1e-8)

    def test_unmeasured_voxels_take_block_feedback(self):
        psi = Measurements([5.0], SamplingOperator.from_mask(FrameDims(2, 1, 1),
                                                               np.array([True, False])))
        rho, counts = 1.0, np.array([2.0, 2.0])
        out = admm_phi_step(psi, rho * counts, np.array([4.0, 4.0]), rho)
        assert out[1] == pytest.approx(2.0)  # rho*bt_z / (rho*counts)
        assert out[0] == pytest.approx(9.0 / 3.0)

    @pytest.mark.parametrize("step", [admm_phi_step])
    def test_out_gives_the_same_bytes(self, rng, step):
        """Written into ``out``, also when ``out`` is the feedback volume,
        and with a volume or a scalar ``base``, the step has the bytes of
        the dense ``(ht_psi + rho * feedback) / (occ + base)``. That holds
        where ``rho * feedback`` is -0.0 too: the dense formula adds the
        adjoint's +0.0 there and gives +0.0."""
        n = 80
        psi, occ, ht_psi = _sampled(rng, n)
        rho = 0.7
        for base in (rng.uniform(0.5, 9, n), rho):
            feedback = rng.uniform(2, 9, n)
            feedback[::7] = -0.0
            feedback[1] = -5e-324  # rho * feedback underflows to -0.0
            expect = (ht_psi + rho * feedback) / (occ + base)
            assert step(psi, base, feedback, rho).tobytes() == expect.tobytes()
            out = np.empty(n)
            assert step(psi, base, feedback, rho, out=out) is out
            assert out.tobytes() == expect.tobytes()
            assert step(psi, base, feedback, rho, out=feedback).tobytes() == expect.tobytes()


class TestSolverConfig:
    def test_unknown_algo(self):
        with pytest.raises(DataError):
            SolverConfig(algo="magic", lam=1.0)

    def test_lam_required_for_iterative(self):
        with pytest.raises(DataError):
            SolverConfig(algo="gds3d")
        SolverConfig(algo="linear")  # no lam needed

    @pytest.mark.parametrize("lam", [1.0, -5.0, 0.0])
    def test_linear_takes_no_weight(self, lam):
        with pytest.raises(DataError, match="linear takes no weight"):
            SolverConfig(algo="linear", lam=lam)

    @pytest.mark.parametrize("kw", [dict(rho=0.0), dict(nu=1.5),
                                    dict(max_iter=0), dict(tol=-1.0)])
    def test_parameter_validation(self, kw):
        for algo, lam in (("gds3d", 1.0), ("linear", None)):
            with pytest.raises(DataError):
                SolverConfig(algo=algo, lam=lam, **kw)

    @pytest.mark.parametrize("kw", [dict(tol=np.nan), dict(tol=np.inf),
                                    dict(rho=np.inf), dict(lam=np.inf)])
    def test_non_finite_settings_rejected(self, kw):
        for algo in ("gds3d", "linear"):
            with pytest.raises(DataError, match="must be finite"):
                SolverConfig(**{"algo": algo, "lam": 1.0, **kw})

    def test_gds2d_collapses_temporal_window(self):
        cfg = SolverConfig(algo="gds2d", lam=1.0,
                           geometry=PatchGeometry(window=(9, 9, 5)))
        assert cfg.geometry.window == (9, 9, 1)


class TestInitialization:
    def test_decimation_uses_interpolation(self, problem):
        _, _, psi, _ = problem
        init = default_initialization(psi)
        expect = linear_interpolate(psi)
        np.testing.assert_array_equal(init.values, expect.values)

    def test_mask_uses_nearest_fill(self, rng, random_volume):
        dims = random_volume.dims
        mask = rng.uniform(size=dims.total_voxels) < 0.3
        for k in range(dims.frames):
            mask[k * dims.width * dims.height] = True
        op = SamplingOperator.from_mask(dims, mask)
        psi = apply_sampling(op, random_volume)
        np.testing.assert_array_equal(default_initialization(psi).values,
                                      mask_fill(psi).values)

    @pytest.mark.parametrize("kind", ["decimation", "mask"])
    def test_out_holds_the_same_bytes(self, problem, kind):
        """Written into a given array, as the solve writes its first
        iterate into shared memory, the initialization has the same bytes;
        the array's old contents do not show."""
        vol, _, psi, _ = problem
        if kind == "mask":
            mask = np.zeros(vol.dims.total_voxels, dtype=bool)
            mask[::5] = True
            psi = apply_sampling(SamplingOperator.from_mask(vol.dims, mask), vol)
        out = np.full(vol.dims.total_voxels, np.nan)
        init = default_initialization(psi, out=out)
        assert np.shares_memory(init.values, out)
        assert out.tobytes() == default_initialization(psi).values.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, patches_mod.CHUNK_GROUPS])
def test_objective_matches_naive(problem, monkeypatch, chunk):
    vol, _, psi, table = problem
    lam = 0.8
    monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", chunk)
    got = objective_nuclear(vol, psi, table, lam)
    naive_groups = [([tuple(map(int, trip)) for trip in group], None)
                    for group in table.members]
    expect = objective_nuclear_naive(vol.frames(), psi.values,
                                     psi.operator.indices, naive_groups, 3, lam)
    assert got == pytest.approx(expect, rel=1e-12)


class TestSolveAdmm:
    def test_rejects_wrong_algo(self, problem):
        _, _, psi, table = problem
        with pytest.raises(DataError):
            solve_admm(psi, table, SolverConfig(algo="gds3d", lam=1.0))

    def test_trace_matches_iterations(self, problem):
        _, _, psi, table = problem
        cfg = SolverConfig(algo="admm3d", lam=0.5, rho=0.5, max_iter=6, tol=0.0,
                           geometry=GEOM)
        est, rep = solve_admm(psi, table, cfg)
        assert rep.iterations == len(rep.trace) == 6
        assert rep.stop_reason == "max_iter"
        assert all(np.isfinite(e.rel_change) for e in rep.trace)
        assert all(e.primal_residual is not None for e in rep.trace)

    def test_never_stops_on_first_iteration(self, problem):
        # the interpolation init reproduces itself on the first pass, so an
        # unguarded change test would exit immediately with the init
        _, _, psi, table = problem
        cfg = SolverConfig(algo="admm3d", lam=1e-9, max_iter=50, tol=1e-4,
                           geometry=GEOM)
        _, rep = solve_admm(psi, table, cfg)
        assert rep.iterations >= 2

    def test_tolerance_stop_reports_final_change(self, problem):
        _, _, psi, table = problem
        cfg = SolverConfig(algo="admm3d", lam=0.3, rho=0.5, max_iter=100,
                           tol=1e-3, geometry=GEOM)
        _, rep = solve_admm(psi, table, cfg)
        assert rep.stop_reason == "tolerance"
        assert rep.trace[-1].rel_change <= 1e-3

    def test_deterministic(self, problem):
        _, _, psi, table = problem
        cfg = SolverConfig(algo="admm3d", lam=0.5, max_iter=10, tol=0.0,
                           geometry=GEOM)
        a, _ = solve_admm(psi, table, cfg)
        b, _ = solve_admm(psi, table, cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_track_objective(self, problem):
        _, _, psi, table = problem
        cfg = SolverConfig(algo="admm3d", lam=0.5, max_iter=4, tol=0.0,
                           geometry=GEOM, track_objective=True)
        _, rep = solve_admm(psi, table, cfg)
        assert all(e.objective is not None and np.isfinite(e.objective)
                   for e in rep.trace)

    def test_primal_residual_vanishes_on_convex_desk_instance(self, rng):
        """With the convex penalty the block/volume gap closes below 1e-3."""
        dims = FrameDims(8, 8, 2)
        vol = DepthVolume(dims, rng.uniform(1, 9, dims.total_voxels))
        guide = IntensityVolume(dims, rng.uniform(0, 1, dims.total_voxels))
        psi = apply_sampling(SamplingOperator.decimation(dims, 2), vol)
        geom = PatchGeometry(patch_side=2, stride=2, window=(5, 5, 3), group_size=3)
        table = build_groups(guide, geom)
        cfg = SolverConfig(algo="admm3d", lam=1.0, nu=1.0, rho=1.0,
                           max_iter=500, tol=1e-7, geometry=geom)
        _, rep = solve_admm(psi, table, cfg)
        assert rep.trace[-1].primal_residual < 1e-3


class TestSolveSimplified:
    def test_rejects_wrong_algo(self, problem):
        _, _, psi, table = problem
        with pytest.raises(DataError):
            solve_simplified(psi, table, SolverConfig(algo="admm3d", lam=1.0))

    def test_trace_and_determinism(self, problem):
        _, _, psi, table = problem
        cfg = SolverConfig(algo="gds3d", lam=0.5, max_iter=8, tol=0.0,
                           geometry=GEOM)
        a, rep = solve_simplified(psi, table, cfg)
        b, _ = solve_simplified(psi, table, cfg)
        np.testing.assert_array_equal(a.values, b.values)
        assert rep.iterations == len(rep.trace) == 8
        assert all(e.primal_residual is None for e in rep.trace)

    def test_never_stops_on_first_iteration(self, problem):
        _, _, psi, table = problem
        cfg = SolverConfig(algo="gds3d", lam=1e-9, max_iter=50, tol=1e-4,
                           geometry=GEOM)
        _, rep = solve_simplified(psi, table, cfg)
        assert rep.iterations >= 2

    def test_measured_voxels_dominate_at_high_rho(self, problem):
        # rho -> 0 pins the solution to the data at measured voxels
        _, _, psi, table = problem
        cfg = SolverConfig(algo="gds3d", lam=0.5, rho=1e-9, max_iter=5, tol=0.0,
                           geometry=GEOM)
        est, _ = solve_simplified(psi, table, cfg)
        np.testing.assert_allclose(est.values[psi.operator.indices], psi.values,
                                   atol=1e-6)


class TestChunkedBlockPass:
    """Each iteration gathers, shrinks and scatters one chunk of groups at a
    time; the chunk size changes neither the result nor the trace."""

    @pytest.mark.parametrize("algo", ["gds3d", "admm3d"])
    def test_chunk_size_does_not_change_results(self, problem, monkeypatch, algo):
        _, _, psi, table = problem
        cfg = SolverConfig(algo=algo, lam=0.5, max_iter=5, tol=0.0, geometry=GEOM)
        runs = []
        for size in (1, 7, table.n_groups, 10 * table.n_groups):
            monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", size)
            est, rep = solvers_mod._iterate(psi, table, cfg, None)
            runs.append((est.values.tobytes(), [e.rel_change for e in rep.trace]))
        assert all(run == runs[0] for run in runs)

    @pytest.fixture(scope="class")
    def large(self):
        """Decimation x3 at 320x240x8 (67,840 groups of 25 x 10 blocks); a
        small search window keeps matching quick and leaves P, B and L as
        the default geometry makes them."""
        dims = FrameDims(320, 240, 8)
        ref, guide = synth_scene(default_scene(dims))
        psi = apply_sampling(SamplingOperator.decimation(dims, 3), ref)
        return psi, build_groups(guide, PatchGeometry(window=(3, 3, 1)))

    @pytest.mark.parametrize("algo", ["gds3d", "admm3d"])
    def test_one_iteration_peak_memory(self, large, monkeypatch, algo):
        """The iterate that the solve makes and then writes over, the
        feedback volume, the one-byte reference counts and one chunk's
        workspace: about 2.6 volumes, beside the table's flat member index,
        which matching stored. The int64 counts are narrowed before the
        feedback is allocated, so they do not add to that peak. admm3d keeps
        ``rho * counts``, one float64 volume, in place of the counts and adds
        its dual and its prox's block stack, about 3.7 volumes besides the
        dual. Holding every block of the video at once takes over 100
        volumes. ``tracemalloc`` does not see the shared mapping that holds
        the iterate, the helpers' slots and admm3d's dual, so their bytes are
        added to the traced peak whole."""
        psi, table = large
        cfg = SolverConfig(algo=algo, lam=12.0, max_iter=1, geometry=table.geometry)
        volume = psi.operator.dims.total_voxels * 8
        dual = table.n_groups * table.geometry.patch_side ** 2 * table.geometry.group_size * 8
        shared, allocate = [], solvers_mod._shared

        def recorded(shape):
            arr = allocate(shape)
            shared.append(arr.nbytes)
            return arr

        monkeypatch.setattr(solvers_mod, "_shared", recorded)
        tracemalloc.start()
        try:
            solvers_mod._iterate(psi, table, cfg, None)
            peak = tracemalloc.get_traced_memory()[1] + sum(shared)
        finally:
            tracemalloc.stop()
        assert sum(shared) >= volume + (dual if algo == "admm3d" else 0)
        if algo == "admm3d":
            assert peak < dual + 4 * volume
        else:
            assert peak < 3 * volume


def _fingerprint(est, rep) -> tuple:
    """The estimate's bytes and every trace value, each float by its repr."""
    return est.values.tobytes(), repr([(e.rel_change, e.primal_residual, e.objective)
                                       for e in rep.trace])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """The process's open descriptors, or None where /proc does not list them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


class TestForkedBlockPass:
    """A solve's block pass runs on ``min(patches._worker_count(), chunks
    per pass)`` processes, and the number changes no byte of the estimate
    or the trace. No helper outlives its solve, however the solve ends."""

    @pytest.mark.parametrize("chunk", [10, 256], ids=["11_chunks", "one_chunk"])
    @pytest.mark.parametrize("algo", ["gds3d", "gds2d", "ds3d", "admm3d"])
    def test_worker_count_does_not_change_results(self, problem, monkeypatch, algo, chunk):
        """108 groups in chunks of 10 end in a partial chunk of 8."""
        _, guide, psi, _ = problem
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", chunk)
        cfg = SolverConfig(algo=algo, lam=0.5, max_iter=5, tol=0.0, geometry=GEOM,
                           track_objective=True)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(patches_mod, "_worker_count", lambda: workers)
            est, rep = run_pipeline(psi, guide, cfg)
            assert rep.workers == min(workers, math.ceil(108 / chunk))
            assert (rep.wait_s > 0) == (rep.workers > 1)
            runs.append(_fingerprint(est, rep))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        _no_child_left()

    @pytest.mark.parametrize("why", ["thread", "no_fork"])
    def test_one_process_without_a_safe_fork(self, problem, monkeypatch, why):
        """A fork copies only the calling thread, so a solve forks no helper
        while another thread runs, nor where ``os.fork`` is missing."""
        _, guide, psi, _ = problem
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", 10)
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 2)
        cfg = SolverConfig(algo="gds3d", lam=0.5, max_iter=3, tol=0.0, geometry=GEOM)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        if why == "thread":
            other.start()
        else:
            monkeypatch.delattr(os, "fork")
        try:
            _, rep = run_pipeline(psi, guide, cfg)
        finally:
            release.set()
            if other.is_alive():
                other.join(30)
        assert (rep.workers, rep.wait_s) == (1, 0.0)

    def test_normal_solve_leaves_no_child(self, problem, monkeypatch):
        _, guide, psi, _ = problem
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", 10)
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 3)
        _, rep = run_pipeline(psi, guide, SolverConfig(algo="admm3d", lam=0.5, max_iter=3,
                                                       geometry=GEOM))
        assert rep.workers == 3
        _no_child_left()

    @pytest.mark.parametrize("algo,death", [
        pytest.param("gds3d", "exit", id="gds3d"),
        pytest.param("admm3d", "exit", id="admm3d"),
        pytest.param("gds3d", "unpicklable", id="unpicklable_exception")])
    def test_helper_that_dies_is_a_numeric_error(self, problem, monkeypatch, algo, death):
        """A helper that ends without an answer, because it exited or raised
        an exception that cannot be pickled for the parent, is a
        NumericError in the parent."""
        _, guide, psi, _ = problem
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", 10)
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 2)
        parent, prox = os.getpid(), solvers_mod.prox_low_rank

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                if death == "exit":
                    os._exit(1)
                exc = NumericError("synthetic prox failure")
                exc.hook = lambda: None  # a local function does not pickle
                raise exc
            return prox(*args, **kwargs)

        monkeypatch.setattr(solvers_mod, "prox_low_rank", dying)
        cfg = SolverConfig(algo=algo, lam=0.5, max_iter=3, geometry=GEOM)
        with pytest.raises(NumericError, match="ended in the middle of a pass"):
            run_pipeline(psi, guide, cfg)
        _no_child_left()

    def test_parent_builds_only_its_own_indices(self, problem, monkeypatch):
        """Every process builds the gather index of the chunks it runs and
        no other: with W = 2 the parent builds ⌈n/2⌉ of a pass's n chunks'
        indices, chunks 0, 2, 4, ..., and scatters the helper's from its
        shared slot, to the bytes of a pass on one process."""
        _, _, psi, table = problem
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", 10)
        values = solvers_mod._shared((table.dims.total_voxels,))
        default_initialization(psi, out=values)
        built, gather = [], PatchGroupTable.gather_indices

        def counted(self, groups, out):
            built.append(groups)
            return gather(self, groups, out)

        monkeypatch.setattr(PatchGroupTable, "gather_indices", counted)
        sums = []
        for helpers in (0, 1):
            ws = solvers_mod._Workspace.allocate(table, helpers)
            out = np.empty_like(values)
            built.clear()
            with ws.forked(values, table, solvers_mod._extract, helpers):
                assert len(ws.helpers) == helpers
                ws.block_pass(values, table, out, solvers_mod._extract)
            sums.append(out.tobytes())
        assert table.n_chunks == 11
        assert built == [table.chunk(c) for c in range(0, 11, 2)]
        assert sums[1] == sums[0]
        _no_child_left()

    @pytest.mark.parametrize("refused,failing_call,workers",
                             [("fork", 1, 1), ("fork", 2, 2), ("pipe", 2, 1), ("pipe", 4, 2)],
                             ids=["1", "2", "pipe_2", "pipe_4"])
    def test_failed_fork_shrinks_the_pass(self, problem, monkeypatch, refused, failing_call,
                                          workers):
        """A fork refused as under a process limit, or a pipe refused as
        under a descriptor limit, ends the forking: the processes already
        running share the pass, ``workers`` counts them, the bytes are those
        of one process and every descriptor opened for the refused helper is
        closed again. A helper takes two pipes before its fork."""
        _, guide, psi, _ = problem
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", 10)
        cfg = SolverConfig(algo="admm3d", lam=0.5, max_iter=3, tol=0.0, geometry=GEOM)
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 1)
        expect = _fingerprint(*run_pipeline(psi, guide, cfg))
        calls, original = [], getattr(os, refused)

        def refusing():
            calls.append(None)
            if len(calls) == failing_call:
                if refused == "fork":
                    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
                raise OSError(errno.EMFILE, "Too many open files")
            return original()

        monkeypatch.setattr(os, refused, refusing)
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 3)
        fds = _open_fds()
        est, rep = run_pipeline(psi, guide, cfg)
        assert _open_fds() == fds
        assert (len(calls), rep.workers) == (failing_call, workers)
        assert _fingerprint(est, rep) == expect
        _no_child_left()

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_fork_that_warns_ends_the_forking(self, problem, monkeypatch, action):
        """Python 3.12 and later warn (``DeprecationWarning``) from
        ``os.fork`` in a process with more OS threads than the caller, as an
        OpenBLAS pool makes it. The suite runs on Python 3.11, so a fork
        whose parent warns after a real fork stands in. The warning ends the
        forking: the helper just forked is told to leave and waited for,
        and the warning is issued after that. Under an error filter the
        solve raises it; otherwise the solve has the bytes of one process.
        Either way no descriptor and no child is left."""
        _, guide, psi, _ = problem
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", 10)
        cfg = SolverConfig(algo="gds3d", lam=0.5, max_iter=3, tol=0.0, geometry=GEOM)
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 1)
        expect = _fingerprint(*run_pipeline(psi, guide, cfg))
        forks, real_fork = [], os.fork

        def warning_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
                warnings.warn("This process is multi-threaded, use of fork() may lead to "
                              "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 3)
        fds = _open_fds()
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            if action == "error":
                with pytest.raises(DeprecationWarning, match="multi-threaded"):
                    run_pipeline(psi, guide, cfg)
            else:
                est, rep = run_pipeline(psi, guide, cfg)
                assert rep.workers == 1
                assert _fingerprint(est, rep) == expect
        assert len(forks) == 1
        assert _open_fds() == fds
        _no_child_left()

    def test_waits_take_descriptors_above_fd_setsize(self, problem, monkeypatch):
        """With 1,100 descriptors held, the pass's pipes are numbered above
        the 1,024 that ``select`` accepts; with no spin every wait sleeps,
        and the solve still returns the bytes of one process."""
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
            pytest.skip("the soft open-file limit is below 1,200")
        _, guide, psi, _ = problem
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", 10)
        monkeypatch.setattr(solvers_mod, "_SPIN_S", 0.0)
        cfg = SolverConfig(algo="gds3d", lam=0.5, max_iter=3, tol=0.0, geometry=GEOM)
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 1)
        expect = _fingerprint(*run_pipeline(psi, guide, cfg))
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 2)
        held = []
        try:
            for _ in range(1100):
                held.append(os.open(os.devnull, os.O_RDONLY))
            est, rep = run_pipeline(psi, guide, cfg)
        finally:
            for fd in held:
                os.close(fd)
        assert rep.workers == 2
        assert _fingerprint(est, rep) == expect
        _no_child_left()

    def test_helpers_reaped_by_the_kernel(self, problem, monkeypatch):
        """Under SIGCHLD = SIG_IGN the kernel reaps each helper as it ends,
        so the solve's wait finds no child; the solve still returns the
        bytes of one process."""
        _, guide, psi, _ = problem
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", 10)
        cfg = SolverConfig(algo="gds3d", lam=0.5, max_iter=3, tol=0.0, geometry=GEOM)
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 1)
        expect = _fingerprint(*run_pipeline(psi, guide, cfg))
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 2)
        old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            est, rep = run_pipeline(psi, guide, cfg)
        finally:
            signal.signal(signal.SIGCHLD, old)
        assert rep.workers == 2
        assert _fingerprint(est, rep) == expect
        _no_child_left()

    def test_helper_exception_is_raised_in_the_parent(self, problem, monkeypatch):
        """An exception raised in a helper reaches the caller as it was
        raised, as the parent's own chunks' exceptions do."""
        _, guide, psi, _ = problem
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", 10)
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 2)
        parent, prox = os.getpid(), solvers_mod.prox_low_rank

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                raise NumericError("synthetic prox failure")
            return prox(*args, **kwargs)

        monkeypatch.setattr(solvers_mod, "prox_low_rank", failing)
        cfg = SolverConfig(algo="gds3d", lam=0.5, max_iter=3, geometry=GEOM)
        with pytest.raises(NumericError, match="synthetic prox failure"):
            run_pipeline(psi, guide, cfg)
        _no_child_left()

    def test_parent_failure_leaves_no_child(self, problem, monkeypatch):
        """A non-finite iterate raises in the parent after the helpers ran a
        pass; they are told to leave and waited for."""
        _, guide, psi, _ = problem
        monkeypatch.setattr(patches_mod, "CHUNK_GROUPS", 10)
        monkeypatch.setattr(patches_mod, "_worker_count", lambda: 2)

        def poisoned(*args, **kwargs):
            out = admm_phi_step(*args, **kwargs)
            out[0] = np.nan
            return out

        monkeypatch.setattr(solvers_mod, "admm_phi_step", poisoned)
        cfg = SolverConfig(algo="gds3d", lam=0.5, max_iter=3, geometry=GEOM)
        with pytest.raises(NumericError, match="non-finite"):
            run_pipeline(psi, guide, cfg)
        _no_child_left()


@pytest.mark.parametrize("algo", ["gds3d", "gds2d", "ds3d", "admm3d"])
def test_prox_round_off_leaves_solves_unchanged(monkeypatch, algo):
    """Eight iterations with the library prox and with the full-SVD oracle
    prox take the same iterations and agree to 1e-10 relative: the prox's
    routes differ from an exact SVD only at round-off, which the solver
    does not amplify."""
    dims = FrameDims(32, 32, 6)
    ref, guide = synth_scene(default_scene(dims))
    psi = add_noise(apply_sampling(SamplingOperator.decimation(dims, 3), ref), 30.0, 0)
    cfg = SolverConfig(algo=algo, lam=12.0, max_iter=8)
    est, rep = run_pipeline(psi, guide, cfg)

    def prox_oracle(mat, lam, nu, out=None, work=None):
        """The full-SVD prox, written into ``out`` as the library's is."""
        result = prox_low_rank_ref(mat, lam, nu)
        if out is None:
            return result
        out[...] = result
        return out

    monkeypatch.setattr(solvers_mod, "prox_low_rank", prox_oracle)
    est_ref, rep_ref = run_pipeline(psi, guide, cfg)
    assert rep.iterations == rep_ref.iterations
    assert (np.linalg.norm(est.values - est_ref.values)
            <= 1e-10 * np.linalg.norm(est_ref.values))


@pytest.mark.parametrize("lam", [0.5, 12.0])
@pytest.mark.parametrize("algo", ["gds3d", "gds2d", "ds3d", "admm3d"])
def test_solve_matches_whole_table_reference(algo, lam):
    """run_pipeline's solve agrees with ``oracles.iterate_ref``, the two
    update rules applied to the whole table at once: the same iterations,
    estimate bytes and relative changes, and the primal residual to
    round-off (the reference takes its norms whole, the solver chunk by
    chunk). The table's 600 groups span three chunks, the last one partial."""
    dims = FrameDims(32, 32, 6)
    ref, guide = synth_scene(default_scene(dims))
    psi = add_noise(apply_sampling(SamplingOperator.decimation(dims, 3), ref), 30.0, 0)
    cfg = SolverConfig(algo=algo, lam=lam, max_iter=25, tol=1e-3)
    est, rep = run_pipeline(psi, guide, cfg)

    init = default_initialization(psi)
    table = build_groups(init if algo == "ds3d" else guide, cfg.geometry)
    assert 2 * patches_mod.CHUNK_GROUPS < table.n_groups < 3 * patches_mod.CHUNK_GROUPS
    expect, trace = iterate_ref(psi, table, cfg, init.values)
    assert est.values.tobytes() == expect.tobytes()
    assert [e.rel_change for e in rep.trace] == [change for change, _ in trace]
    for entry, (_, resid) in zip(rep.trace, trace):
        if resid is None:
            assert entry.primal_residual is None
        else:
            assert entry.primal_residual == pytest.approx(resid, rel=1e-12, abs=0.0)


class TestVanishingRegularization:
    """Both solvers must return a fully sampled input unchanged as lam -> 0+."""

    @pytest.mark.parametrize("algo,fn", [("admm3d", solve_admm),
                                         ("gds3d", solve_simplified)])
    def test_full_sampling_identity(self, rng, algo, fn):
        dims = FrameDims(10, 10, 2)
        vol = DepthVolume(dims, rng.uniform(2, 9, dims.total_voxels))
        guide = IntensityVolume(dims, rng.uniform(0, 1, dims.total_voxels))
        psi = apply_sampling(SamplingOperator.decimation(dims, 1), vol)
        table = build_groups(guide, GEOM)
        cfg = SolverConfig(algo=algo, lam=1e-12, max_iter=30, tol=1e-10,
                           geometry=GEOM)
        est, _ = fn(psi, table, cfg)
        assert float(np.max(np.abs(est.values - vol.values))) <= 1e-8


@pytest.mark.parametrize("algo,fn", [("admm3d", solve_admm),
                                     ("gds3d", solve_simplified),
                                     ("ds3d", solve_simplified)])
def test_all_zero_depth_returns_zeros(rng, algo, fn):
    """An all-zero iterate has no relative change; the absolute one is used."""
    dims = FrameDims(12, 12, 3)
    vol = DepthVolume(dims, np.zeros(dims.total_voxels))
    guide = IntensityVolume(dims, rng.uniform(0, 1, dims.total_voxels))
    psi = apply_sampling(SamplingOperator.decimation(dims, 2), vol)
    table = build_groups(guide, GEOM)
    cfg = SolverConfig(algo=algo, lam=1.0, geometry=GEOM)
    est, rep = fn(psi, table, cfg)
    np.testing.assert_array_equal(est.values, vol.values)
    assert rep.stop_reason == "tolerance"
    assert rep.iterations == 2
    assert [e.rel_change for e in rep.trace] == [0.0, 0.0]


@pytest.mark.parametrize("nu", [0.0, 0.02])
@pytest.mark.parametrize("algo", ["gds3d", "ds3d", "admm3d"])
def test_constant_depth_stays_constant(algo, nu):
    """Constant depth makes every block exactly rank 1, so the other Gram
    eigenvalues of the prox round to zero or below it."""
    dims = FrameDims(24, 24, 4)
    vol = DepthVolume(dims, np.full(dims.total_voxels, 5.0))
    guide = IntensityVolume(dims, np.full(dims.total_voxels, 0.5))
    psi = apply_sampling(SamplingOperator.decimation(dims, 2), vol)
    est, rep = run_pipeline(psi, guide, SolverConfig(algo=algo, lam=1.0, nu=nu))
    assert np.all(np.isfinite(est.values))
    assert rep.stop_reason == "tolerance"
    assert float(np.max(np.abs(est.values - 5.0))) <= 0.1


@pytest.mark.parametrize("algo", ["gds3d", "admm3d"])
def test_nu_near_zero_matches_nu_zero(algo):
    """nu -> 0+ is continuous: the threshold lam**(1/(2-nu)) and the shrink
    lam*s**(nu-1) move by O(nu), so the iterates stay within rounding."""
    depth, guide = synth_scene(default_scene(FrameDims(24, 24, 4), seed=0))
    psi = apply_sampling(SamplingOperator.decimation(depth.dims, 2), depth)
    ests = [run_pipeline(psi, guide, SolverConfig(algo=algo, lam=2.0, nu=nu,
                                                  max_iter=10))[0].values
            for nu in (0.0, 1e-12)]
    assert all(np.all(np.isfinite(e)) for e in ests)
    assert float(np.max(np.abs(ests[1] - ests[0]))) <= 1e-9


@pytest.mark.parametrize("algo", ["gds3d", "admm3d"])
def test_huge_depth_stops_on_tolerance(algo):
    """At depth 1e300 the plain norm's sum of squares overflows. The stop
    test and admm3d's primal residual then take an overflow-safe norm, so
    the solve warns of no overflow, its trace is finite and it stops on
    tolerance."""
    dims = FrameDims(16, 16, 4)
    ref, guide = synth_scene(default_scene(dims))
    psi = apply_sampling(SamplingOperator.decimation(dims, 2),
                         DepthVolume(dims, ref.values * 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rep = run_pipeline(psi, guide, SolverConfig(algo=algo, lam=12.0))
    assert all(math.isfinite(e.rel_change) for e in rep.trace)
    if algo == "admm3d":
        assert all(math.isfinite(e.primal_residual) for e in rep.trace)
    assert rep.stop_reason == "tolerance"


@pytest.mark.parametrize("algo", ["gds3d", "gds2d", "ds3d", "admm3d"])
def test_explicit_init_is_only_read(problem, algo):
    """A solve never writes the caller's initialization: it copies it once
    and writes every change over that copy, so the initialization keeps its
    bytes, and the estimate is an array of its own."""
    _, _, psi, table = problem
    init = DepthVolume(psi.operator.dims, default_initialization(psi).values + 0.25)
    before = init.values.tobytes()
    cfg = SolverConfig(algo=algo, lam=1.0, max_iter=3, tol=0.0, geometry=GEOM)
    solve = solve_admm if algo == "admm3d" else solve_simplified
    est, rep = solve(psi, table, cfg, init=init)
    assert rep.iterations == 3
    assert init.values.tobytes() == before
    assert not np.shares_memory(est.values, init.values)


class TestRunPipeline:
    def test_linear_returns_initialization(self, problem):
        _, _, psi, _ = problem
        est, rep = run_pipeline(psi, None, SolverConfig(algo="linear"))
        expect = linear_interpolate(psi)
        np.testing.assert_array_equal(est.values, expect.values)
        assert rep.iterations == 0
        assert rep.stop_reason == "tolerance"
        assert rep.trace == []

    def test_guided_requires_guide(self, problem):
        _, _, psi, _ = problem
        for algo in ("gds3d", "gds2d", "admm3d"):
            with pytest.raises(DataError):
                run_pipeline(psi, None, SolverConfig(algo=algo, lam=1.0,
                                                     geometry=GEOM))

    def test_guide_dims_checked(self, problem):
        _, _, psi, _ = problem
        other = IntensityVolume(FrameDims(6, 6, 2), np.zeros(72))
        with pytest.raises(DataError):
            run_pipeline(psi, other, SolverConfig(algo="gds3d", lam=1.0,
                                                  geometry=GEOM))

    def test_ds3d_runs_without_guide(self, problem):
        _, _, psi, _ = problem
        cfg = SolverConfig(algo="ds3d", lam=0.5, max_iter=3, tol=0.0,
                           geometry=GEOM)
        est, rep = run_pipeline(psi, None, cfg)
        assert rep.algo == "ds3d"
        assert est.dims == psi.operator.dims

    @pytest.mark.parametrize("kind", ["decimation", "mask"])
    @pytest.mark.parametrize("algo", ["gds3d", "gds2d", "admm3d"])
    def test_guided_solve_makes_its_own_initialization(self, problem, algo, kind):
        """A guided solve gets no init from run_pipeline and makes the
        default initialization itself: estimate and trace have the bytes
        of a solve handed ``default_initialization(psi)``."""
        vol, guide, psi, _ = problem
        if kind == "mask":
            mask = np.arange(vol.dims.total_voxels) % 5 == 0
            psi = apply_sampling(SamplingOperator.from_mask(vol.dims, mask), vol)
        cfg = SolverConfig(algo=algo, lam=1.0, max_iter=4, tol=0.0, geometry=GEOM)
        est, rep = run_pipeline(psi, guide, cfg)
        solve = solve_admm if algo == "admm3d" else solve_simplified
        expect, rep_expect = solve(psi, build_groups(guide, cfg.geometry), cfg,
                                   init=default_initialization(psi))
        assert est.values.tobytes() == expect.values.tobytes()
        assert repr(rep.trace) == repr(rep_expect.trace)

    def test_improves_over_initialization(self, problem):
        vol, guide, psi, _ = problem
        cfg = SolverConfig(algo="gds3d", lam=0.35, max_iter=60, tol=1e-5,
                           geometry=GEOM)
        est, _ = run_pipeline(psi, guide, cfg)
        init = default_initialization(psi)
        assert snr_db(vol.values, est.values) > snr_db(vol.values, init.values)


class TestSelectLambda:
    def test_tie_keeps_smaller_lambda(self, problem, monkeypatch):
        _, guide, psi, _ = problem
        ref = DepthVolume(psi.operator.dims,
                          np.ones(psi.operator.dims.total_voxels))

        def fake_pipeline(psi_arg, guide_arg, cfg):
            err = 0.01 if cfg.lam in (0.1, 0.2) else 0.5
            est = DepthVolume(ref.dims, ref.values * (1 + err))
            return est, SolveReport(1, "tolerance", [], 0.0, cfg.algo, cfg.lam)

        monkeypatch.setattr(solvers_mod, "run_pipeline", fake_pipeline)
        cfg = SolverConfig(algo="gds3d", lam=1.0, geometry=GEOM)
        lam, _, _ = select_lambda(psi, guide, cfg, [0.3, 0.2, 0.1], ref)
        assert lam == 0.1

    def test_picks_best_candidate(self, problem, monkeypatch):
        _, guide, psi, _ = problem
        ref = DepthVolume(psi.operator.dims,
                          np.ones(psi.operator.dims.total_voxels))

        def fake_pipeline(psi_arg, guide_arg, cfg):
            err = abs(cfg.lam - 0.4)  # 0.4 is the sweet spot
            est = DepthVolume(ref.dims, ref.values * (1 + err + 1e-3))
            return est, SolveReport(1, "tolerance", [], 0.0, cfg.algo, cfg.lam)

        monkeypatch.setattr(solvers_mod, "run_pipeline", fake_pipeline)
        cfg = SolverConfig(algo="gds3d", lam=1.0, geometry=GEOM)
        lam, est, rep = select_lambda(psi, guide, cfg, [0.8, 0.4, 0.1], ref)
        assert lam == 0.4
        assert rep.lam == 0.4

    def test_single_candidate_solved_once_without_ref(self, problem, monkeypatch):
        _, guide, psi, _ = problem
        calls = []

        def counting_pipeline(psi_arg, guide_arg, cfg):
            calls.append(cfg.lam)
            return run_pipeline(psi_arg, guide_arg, cfg)

        monkeypatch.setattr(solvers_mod, "run_pipeline", counting_pipeline)
        cfg = SolverConfig(algo="gds3d", lam=1.0, max_iter=3, geometry=GEOM)
        lam, est, rep = select_lambda(psi, guide, cfg, [0.7])
        assert calls == [0.7]
        assert lam == 0.7 and rep.lam == 0.7
        assert est.dims == psi.operator.dims

    def test_several_candidates_need_ref(self, problem):
        _, guide, psi, _ = problem
        with pytest.raises(DataError):
            select_lambda(psi, guide, SolverConfig(algo="gds3d", lam=1.0), [0.1, 0.2])

    def test_empty_candidates_rejected(self, problem):
        _, guide, psi, _ = problem
        ref = DepthVolume(psi.operator.dims, np.ones(psi.operator.dims.total_voxels))
        with pytest.raises(DataError):
            select_lambda(psi, guide, SolverConfig(algo="gds3d", lam=1.0), [], ref)


class TestDefaultLambdaGrid:
    def test_scales_with_noise_level(self, problem):
        _, _, psi, _ = problem
        grid = default_lambda_grid(psi, 30.0)
        rms = float(np.linalg.norm(psi.values)) / np.sqrt(psi.values.size)
        sigma = rms * 10 ** (-30.0 / 20.0)
        np.testing.assert_allclose(grid, [s * sigma for s in (2.0, 8.0, 32.0)])
        assert grid == sorted(grid)

    def test_infinite_snr_rejected(self, problem):
        _, _, psi, _ = problem
        with pytest.raises(DataError):
            default_lambda_grid(psi, np.inf)


class TestConvexCrossCheck:
    def test_admm_agrees_with_cvxpy(self, rng):
        """Independent convex solver reaches the same optimum as ADMM at nu=1."""
        cp = pytest.importorskip("cvxpy")
        dims = FrameDims(8, 8, 2)
        vol = DepthVolume(dims, rng.uniform(1, 9, dims.total_voxels))
        guide = IntensityVolume(dims, rng.uniform(0, 1, dims.total_voxels))
        op = SamplingOperator.decimation(dims, 2)
        psi = apply_sampling(op, vol)
        geom = PatchGeometry(patch_side=2, stride=2, window=(5, 5, 3), group_size=3)
        table = build_groups(guide, geom)
        lam = 1.0

        idx = whole_index(table)
        x = cp.Variable(dims.total_voxels)
        objective = 0.5 * cp.sum_squares(psi.values - x[op.indices])
        for p in range(table.n_groups):
            block = cp.reshape(x[idx[p].reshape(-1)], idx[p].shape, order="C")
            objective = objective + lam * cp.normNuc(block)
        prob = cp.Problem(cp.Minimize(objective))
        prob.solve(solver=cp.SCS, eps=1e-9, max_iters=50000)
        assert prob.status == "optimal"

        cfg = SolverConfig(algo="admm3d", lam=lam, nu=1.0, rho=1.0,
                           max_iter=2000, tol=1e-12, geometry=geom)
        est, _ = solve_admm(psi, table, cfg)
        ours = objective_nuclear(est, psi, table, lam)
        assert ours == pytest.approx(prob.value, rel=1e-6)
