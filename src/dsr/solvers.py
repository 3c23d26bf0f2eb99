"""Iterative reconstruction: exact ADMM and the decoupled simplified algorithm.

Both solvers run one loop that alternates a blockwise low-rank proximal step
(one pass over the group table's chunks) with a per-voxel quadratic
data-consistency step. Because the sampling operator is a selection and the
patch operator's normal matrix is the diagonal reference-count matrix, every
quadratic subproblem is a pointwise division, the same one for both, and
only the sampled voxels read a measurement. ADMM carries a dual variable
enforcing agreement between the block estimates and the volume; the
simplified variants drop it and re-aggregate blocks by count-normalized
averaging, which spreads the regularization evenly. Each solve owns two
volumes: the iterate, in shared memory, and the private feedback that the
data step turns into the new iterate. The first iterate is the solve's own:
the default initialization it makes, or one copy of the caller's, which it
never writes.

The groups are independent, so each block pass runs its chunks on every
usable core: the solve forks helper processes once, and every process runs
a chunk the same way, from its gather index to its update, on the shared
iterate. The parent adds every chunk's result into the feedback in table
order, so the bytes do not depend on the number of processes.

Algorithm variants select what drives the block matching: the intensity guide
(gds3d, gds2d, admm3d), or the interpolated depth itself (ds3d). gds2d
restricts matching to single frames.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import select
import signal
import struct
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import patches
from .errors import DataError, NumericError, all_finite, as_list, as_number
from .patches import PatchGeometry, PatchGroupTable, build_groups, scatter_sum
from .shrinkage import prox_low_rank, prox_work
from .volumes import (DepthVolume, Measurements, _norm, _sum_squares, linear_interpolate,
                      mask_fill, snr_db)

__all__ = [
    "ALGORITHMS",
    "GUIDED_ALGORITHMS",
    "SolverConfig",
    "DEFAULT_SOLVER",
    "TraceEntry",
    "SolveReport",
    "default_initialization",
    "admm_phi_step",
    "objective_nuclear",
    "solve_admm",
    "solve_simplified",
    "run_pipeline",
    "select_lambda",
    "default_lambda_grid",
]

ALGORITHMS = ("admm3d", "gds3d", "gds2d", "ds3d", "linear")

#: The algorithms whose block matching runs on the intensity guide.
GUIDED_ALGORITHMS = ("admm3d", "gds3d", "gds2d")

#: Multipliers applied to the estimated measurement-noise standard deviation
#: when no explicit candidate list is given. The shrinkage threshold scales
#: like sqrt(lam), so useful weights sit well above the noise deviation.
DEFAULT_LAMBDA_SCALES = (2.0, 8.0, 32.0)


@dataclass
class SolverConfig:
    """Algorithm selection and parameters for one reconstruction run."""

    algo: str
    lam: float | None = None
    rho: float = 1.0
    nu: float = 0.02
    max_iter: int = 100
    tol: float = 1e-4
    geometry: PatchGeometry = field(default_factory=PatchGeometry)
    track_objective: bool = False

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise DataError(f"unknown algorithm {self.algo!r}, expected one of {ALGORITHMS}")
        for name in ("lam", "rho", "nu", "tol"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
        if self.algo == "linear":
            if self.lam is not None:
                raise DataError(f"linear takes no weight, got lam={self.lam}")
        elif self.lam is None or not self.lam > 0:
            raise DataError(f"lam must be positive for {self.algo}, got {self.lam}")
        if not 0.0 <= self.nu <= 1.0:
            raise DataError(f"nu must lie in [0, 1], got {self.nu}")
        if not self.rho > 0:
            raise DataError(f"rho must be positive, got {self.rho}")
        if self.max_iter < 1:
            raise DataError("max_iter must be >= 1")
        if self.tol < 0:
            raise DataError("tol must be nonnegative")
        if self.algo == "gds2d" and self.geometry.window[2] != 1:
            # frame-by-frame matching: collapse the temporal search extent
            wx, wy, _ = self.geometry.window
            self.geometry = replace(self.geometry, window=(wx, wy, 1))

    @classmethod
    def from_settings(cls, algo: str, lam: float | None, settings) -> "SolverConfig":
        """Config from a mapping holding the flat settings named in DEFAULT_SOLVER,
        as ``dsr solve`` and ``dsr bench`` take them; other keys are ignored.
        Each value passes ``as_number``, so a string or a fractional count is
        a DataError, and the window must be an array."""
        patch, stride, group_size, max_iter = (
            as_number(settings[k], k, whole=True)
            for k in ("patch", "stride", "group_size", "max_iter"))
        window = tuple(as_number(v, "window", whole=True)
                       for v in as_list(settings["window"], "window"))
        rho, nu, tol = (as_number(settings[k], k) for k in ("rho", "nu", "tol"))
        return cls(algo=algo, lam=lam, rho=rho, nu=nu, max_iter=max_iter, tol=tol,
                   geometry=PatchGeometry(patch, stride, window, group_size))

    def settings(self) -> dict:
        """The flat settings named in DEFAULT_SOLVER, as this config holds
        them: counts as ints, the window as a list of ints, reals as floats."""
        geom = self.geometry
        return {"patch": geom.patch_side, "stride": geom.stride, "window": list(geom.window),
                "group_size": geom.group_size, "nu": self.nu, "rho": self.rho,
                "max_iter": self.max_iter, "tol": self.tol}


#: The flat solver settings and their defaults, read from the dataclasses.
DEFAULT_SOLVER = {
    "patch": PatchGeometry.patch_side,
    "stride": PatchGeometry.stride,
    "window": PatchGeometry.window,
    "group_size": PatchGeometry.group_size,
    "nu": SolverConfig.nu,
    "rho": SolverConfig.rho,
    "max_iter": SolverConfig.max_iter,
    "tol": SolverConfig.tol,
}


@dataclass
class TraceEntry:
    rel_change: float
    primal_residual: float | None = None
    objective: float | None = None


@dataclass
class SolveReport:
    """Convergence record of one solve."""

    iterations: int
    stop_reason: str  # "tolerance" | "max_iter"
    trace: list[TraceEntry]
    wall_time: float
    algo: str
    lam: float | None = None
    #: processes that ran the block pass (0 when none ran), and the seconds
    #: the parent waited for the others; a profile of the parent alone sees
    #: only its own share of the pass
    workers: int = 0
    wait_s: float = 0.0


def admm_phi_step(psi: Measurements, base: np.ndarray | float, feedback: np.ndarray,
                  rho: float, out: np.ndarray | None = None) -> np.ndarray:
    """The data step of every solver, a diagonal solve per voxel:
    (H^T psi + rho * feedback) / (base + occupancy). admm3d feeds back its
    dual-corrected block sum over the volume ``base = rho * counts``; the
    simplified solvers their count-normalized block average over the
    scalar ``base = rho``. H is a selection, so only the sampled voxels
    ``psi.operator.indices`` add a measured value to the numerator and 1
    to the denominator, and no adjoint or occupancy volume is formed. The
    result goes into ``out`` when given, which may be ``feedback`` itself;
    it has the bytes of the dense formula."""
    idx = psi.operator.indices
    out = np.multiply(rho, feedback, out=out)
    sampled = out[idx]
    sampled += psi.values
    sampled /= (base[idx] if np.ndim(base) else base) + 1.0
    out += 0.0  # the adjoint's zeros: they turn an underflowed -0.0 into +0.0
    out /= base
    out[idx] = sampled
    return out


def default_initialization(psi: Measurements, out: np.ndarray | None = None) -> DepthVolume:
    """Interpolate decimation measurements, nearest-fill mask measurements;
    into the flat float64 array ``out`` when given."""
    if psi.operator.kind == "decimation":
        return linear_interpolate(psi, out=out)
    return mask_fill(psi, out=out)


def objective_nuclear(phi: DepthVolume, psi: Measurements, table: PatchGroupTable,
                      lam: float) -> float:
    """Data misfit plus lam times the summed nuclear norms of all blocks, chunk by chunk."""
    resid = psi.values - phi.values[psi.operator.indices]
    index = np.empty(table.chunk_shape(), dtype=np.int64)
    nuclear = sum(float(np.linalg.svd(phi.values[idx], compute_uv=False).sum())
                  for _, idx in table.chunks(index))
    return 0.5 * _sum_squares(resid) + lam * nuclear


def _relative(change: float, scale: float) -> float:
    """change / scale for two norms, or change itself when scale is zero."""
    return change / scale if scale > 0 else change


#: A chunk order to a helper: the chunk's number; end of file means leave.
_ORDER = struct.Struct("<q")
#: A helper's answer to one order: the chunk's two norms from the update, and
#: the byte count of a pickled exception that follows, 0 when none does.
_ANSWER = struct.Struct("<ddq")
#: The two norms of an update that folds none.
_NO_NORMS = (0.0, 0.0)
#: Seconds a wait on a pipe polls before it sleeps in ``poll``. Between
#: chunks a hand-off takes well under a chunk's time; a process that slept
#: each time would lose more than that waking up.
_SPIN_S = 0.002


def _shared(shape) -> np.ndarray:
    """A zero-filled float64 array in anonymous shared memory: what a forked
    helper writes there the parent reads, and the reverse."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64).reshape(shape)


def _recv(fd: int, size: int) -> bytes:
    """``size`` bytes from the non-blocking pipe ``fd``, or fewer at end of
    file. It polls for ``_SPIN_S``, then sleeps in ``poll`` between reads,
    which takes a descriptor of any number, unlike ``select``; end of file
    wakes it as a hang-up."""
    data, poller = b"", None
    spin_until = time.perf_counter() + _SPIN_S
    while len(data) < size:
        try:
            part = os.read(fd, size - len(data))
        except BlockingIOError:
            if poller is not None:
                poller.poll()
            elif time.perf_counter() > spin_until:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
            continue
        if not part:
            break
        data += part
    return data


def _leave(pid: int, orders: int, answers: int) -> None:
    """Close a helper's pipe ends, which tells it to leave, and wait for it."""
    os.close(orders)
    os.close(answers)
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # reaped already, as under SIGCHLD = SIG_IGN
        pass


def _extract(groups, blocks, out) -> tuple[float, float]:
    """The identity update of a block pass: each chunk's blocks unchanged."""
    np.copyto(out, blocks)
    return _NO_NORMS


def _helper_count(table: PatchGroupTable) -> int:
    """Processes to fork beside this one for a solve's block pass: one per
    further usable core, at most one per further chunk of a pass. None
    without ``os.fork``, or while other threads run, since a fork copies
    only the calling thread and their locks might be held."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    return min(patches._worker_count(), table.n_chunks) - 1


@dataclass
class _Workspace:
    """One solve's chunk buffers, allocated once and reused by every chunk
    of every block pass, and the helper processes that share the pass. Each
    process has its own gathered blocks and prox scratch (a helper gets
    copies when it forks) and its own gather index and result block stack,
    in ``indices`` and ``slots``: the parent's private, each helper's pair in
    shared memory, the index as an int64 view. admm3d allocates one more
    block stack for its dual arithmetic next to the dual. No prox writes into
    its input, since a product into its own input works on a copy.

    ``helpers`` holds (pid, order pipe, answer pipe) of each helper while
    ``forked`` runs, and ``wait_s`` the seconds the parent waited for their
    answers."""

    indices: list
    slots: list
    blocks: np.ndarray
    prox: np.ndarray
    helpers: list = field(default_factory=list)
    wait_s: float = 0.0

    @classmethod
    def allocate(cls, table: PatchGroupTable, helpers: int) -> "_Workspace":
        shape = table.chunk_shape()
        shared = _shared((helpers, 2, *shape)) if helpers else np.empty((0, 2, *shape))
        return cls([np.empty(shape, dtype=np.int64), *shared[:, 0].view(np.int64)],
                   [np.empty(shape), *shared[:, 1]], np.empty(shape), prox_work(*shape))

    def _run(self, values, table, chunk: int, worker: int, update) -> tuple[float, float]:
        """Build chunk ``chunk``'s gather index into process ``worker``'s
        index slot, gather its blocks of ``values`` and apply ``update`` into
        that process's result slot. The table has checked that every index
        lies in the volume, so the gather checks none."""
        groups = table.chunk(chunk)
        n = groups.stop - groups.start
        idx = table.gather_indices(groups, self.indices[worker][:n])
        blocks = np.take(values, idx, out=self.blocks[:n], mode="clip")
        return update(groups, blocks, self.slots[worker][:n])

    def _order(self, chunk: int) -> None:
        """Send chunk ``chunk`` to the helper that runs it."""
        os.write(self.helpers[chunk % (len(self.helpers) + 1) - 1][1], _ORDER.pack(chunk))

    def _answer(self, worker: int) -> tuple[float, float]:
        """The norms helper ``worker`` posts once its slots hold its chunk;
        the helper's exception when it raised one, and a NumericError when
        it ended without an answer."""
        pid, _, answers = self.helpers[worker - 1]
        t_wait = time.perf_counter()
        head = _recv(answers, _ANSWER.size)
        if len(head) < _ANSWER.size:
            raise NumericError(f"block-pass helper {pid} ended in the middle of a pass")
        *norms, size = _ANSWER.unpack(head)
        if size:
            raise pickle.loads(_recv(answers, size))
        self.wait_s += time.perf_counter() - t_wait
        return norms

    def block_pass(self, values: np.ndarray, table: PatchGroupTable, out: np.ndarray,
                   update) -> tuple[float, float]:
        """Set ``out`` to the sum of ``update(groups, blocks, result)`` over
        the table's chunks, where ``blocks`` are the chunk's blocks of
        ``values`` and ``update`` writes the chunk's result into ``result``;
        return the two norms each update returns, folded with ``hypot``.

        With W processes, chunk c runs on process c mod W: the parent is
        process 0 and the helpers run the update they forked with. Each
        process runs a chunk through ``_run``; a helper runs one at a time,
        ordered from here as soon as its slots are free. The parent scatters
        each chunk from the slots of the process that ran it and folds the
        norms, in table order, so ``out`` has the bytes of one whole-table
        sum and the norms those of one fold over the table, whatever W is."""
        out.fill(0.0)
        workers = len(self.helpers) + 1
        for chunk in range(1, min(workers, table.n_chunks)):
            self._order(chunk)
        folded = _NO_NORMS
        for chunk in range(table.n_chunks):
            worker = chunk % workers
            norms = (self._answer(worker) if worker else
                     self._run(values, table, chunk, 0, update))
            groups = table.chunk(chunk)
            n = groups.stop - groups.start
            scatter_sum(self.slots[worker][:n], self.indices[worker][:n], out)
            if worker and chunk + workers < table.n_chunks:
                self._order(chunk + workers)
            folded = tuple(map(math.hypot, folded, norms))
        return folded

    @contextmanager
    def forked(self, values: np.ndarray, table: PatchGroupTable, update, helpers: int):
        """Fork up to ``helpers`` processes that run ``update`` on the
        chunks the block pass orders, for as long as the block lasts; after
        a failed pipe or fork, as under a descriptor or process limit, the
        forked ones share the pass. A fork that warns, as Python 3.12 and
        later do in a process with more threads than this one (a BLAS pool),
        also ends the forking: its helper is told to leave and waited for,
        and then the warning is issued, so a filter that makes it an error
        fails the solve with no helper left. When the block ends, also by an
        exception, each helper's order pipe is closed and it is waited for,
        so none outlives the solve."""
        try:
            for worker in range(1, helpers + 1):
                fds = ()
                try:
                    fds += os.pipe()
                    fds += os.pipe()
                    # a warning raised inside os.fork would lose the child's pid
                    with warnings.catch_warnings(record=True) as warned:
                        warnings.simplefilter("always")
                        pid = os.fork()
                except OSError:
                    for fd in fds:
                        os.close(fd)
                    break
                orders, order_end, answer_end, answers = fds
                if pid == 0:
                    self._serve(values, table, update, worker, orders, answers,
                                (order_end, answer_end,
                                 *(fd for _, *fds in self.helpers for fd in fds)))
                self.helpers.append((pid, order_end, answer_end))
                os.close(orders)
                os.close(answers)
                if warned:
                    _leave(*self.helpers.pop())
                    for w in warned:
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                    break
                os.set_blocking(answer_end, False)
            yield
        finally:
            while self.helpers:
                _leave(*self.helpers.pop(0))

    def _serve(self, values, table: PatchGroupTable, update, worker: int, orders: int,
               answers: int, inherited) -> None:
        """A helper's whole life: close the parent's pipe ends it
        ``inherited``, then run each ordered chunk into the slots of process
        ``worker`` and post its norms, until the end of file of its order
        pipe. It ends only through ``os._exit``, since unwinding would run
        the parent's code in this process; an exception is posted for the
        parent to raise. An interrupt is the parent's to handle: it tells
        its helpers to leave."""
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for fd in inherited:
                os.close(fd)
            os.set_blocking(orders, False)
            while len(order := _recv(orders, _ORDER.size)) == _ORDER.size:
                norms = self._run(values, table, *_ORDER.unpack(order), worker, update)
                os.write(answers, _ANSWER.pack(*norms, 0))
            status = 0
        except BaseException as exc:  # noqa: B036  (posted, then the process ends)
            try:
                raised = pickle.dumps(exc)
                os.write(answers, _ANSWER.pack(*_NO_NORMS, len(raised)) + raised)
            except BaseException:  # noqa: B036  (the parent sees the end of file)
                pass
        finally:
            os._exit(status)


def _iterate(psi: Measurements, table: PatchGroupTable, cfg: SolverConfig,
             init: DepthVolume | None) -> tuple[DepthVolume, SolveReport]:
    """The alternation both solvers share: per iteration one block pass and
    one data step. The simplified solvers' pass shrinks the iterate's blocks
    and feeds back their average; admm3d's, after its data step, updates the
    blocks and the dual and sums the next feedback ``blocks + dual / rho``.

    The solve allocates its whole working set here, once. Before its clock
    starts it makes the first iterate, in shared memory:
    ``default_initialization(psi)`` writes it there without ``init``, else
    it is a copy of ``init``, which stays the caller's and is only read.
    Then come the reference counts in their narrow unsigned dtype (admm3d
    keeps only ``rho * counts``), the feedback volume, one workspace through
    which every pass streams the table's chunks, and for admm3d the dual,
    also in shared memory, and the block stack of its dual arithmetic.
    admm3d's first pass, on the initialization, runs here alone. Then the
    solve forks its helpers (``_helper_count``, fewer when a fork fails),
    which run their share of every later pass's chunks and are gone when it
    returns, also when it raises.

    The block pass writes the feedback, and the data step turns it into the
    new iterate in place. The change of the iterate goes over the old
    iterate, whose norm is taken first, and the new iterate is then copied
    over it, so every pass reads the one shared iterate; admm3d's pass then
    writes the next feedback. So after set-up no iteration allocates a
    volume or a block stack. At the end the estimate is copied into the
    feedback volume, out of shared memory. ``SolveReport.workers`` counts
    the processes that ran the passes and ``wait_s`` the parent's waits for
    helpers.
    """
    op = psi.operator
    phi = _shared((op.dims.total_voxels,))
    if init is None:
        default_initialization(psi, out=phi)
    else:
        phi[:] = init.values
    t_start = time.perf_counter()
    admm = cfg.algo == "admm3d"
    rho = cfg.rho
    counts = patches.compute_counts(table)
    # the data step's denominator less the occupancy; admm3d drops the integer counts
    base, counts = (counts * rho, None) if admm else (rho, counts)

    # the one private volume goes where the int64 counts were, before any
    # chunk-sized buffer can split that space
    feedback = np.empty_like(phi)
    helpers = _helper_count(table)
    ws = _Workspace.allocate(table, helpers)
    if admm:
        dual = _shared((table.n_groups, *table.chunk_shape()[1:]))
        step = np.empty(table.chunk_shape())

        def update(groups, b_phi, out):
            """Block and dual updates of one chunk; its feedback goes into ``out``."""
            extracted = _norm(b_phi)
            dual_g, step_g = dual[groups], step[:len(b_phi)]
            np.subtract(b_phi, np.divide(dual_g, rho, out=step_g), out=step_g)
            blocks = prox_low_rank(step_g, cfg.lam / rho, cfg.nu, out=out, work=ws.prox)
            resid = np.subtract(blocks, b_phi, out=b_phi)
            resid_norm = _norm(resid)
            dual_g += np.multiply(rho, resid, out=resid)
            blocks += np.divide(dual_g, rho, out=resid)
            return extracted, resid_norm

        # blocks start as exact extractions of the initialization, the dual at zero
        ws.block_pass(phi, table, feedback, _extract)
    else:
        def update(groups, blocks, out):
            prox_low_rank(blocks, cfg.lam, cfg.nu, out=out, work=ws.prox)
            return _NO_NORMS

    trace: list[TraceEntry] = []
    stop_reason = "max_iter"
    with ws.forked(phi, table, update, helpers):
        workers = len(ws.helpers) + 1
        for k in range(cfg.max_iter):
            if not admm:
                ws.block_pass(phi, table, feedback, update)
                feedback /= counts
            new = admm_phi_step(psi, base, feedback, rho, out=feedback)
            if not all_finite(new):
                raise NumericError("iterate diverged to non-finite values")
            # the change overwrites phi: norm it first
            scale = _norm(phi)
            entry = TraceEntry(rel_change=_relative(_norm(np.subtract(new, phi, out=phi)),
                                                    scale))
            phi[:] = new
            if admm:
                extracted, resid_norm = ws.block_pass(phi, table, feedback, update)
                entry.primal_residual = _relative(resid_norm, extracted)
            if cfg.track_objective:
                entry.objective = objective_nuclear(DepthVolume(op.dims, phi), psi, table,
                                                    cfg.lam)
            trace.append(entry)
            # the initialization is a fixed point of the first ADMM volume update
            # (blocks start as exact extractions), so the change test is only
            # meaningful from the second iteration on
            if k >= 1 and entry.rel_change <= cfg.tol:
                stop_reason = "tolerance"
                break

    feedback[:] = phi
    report = SolveReport(len(trace), stop_reason, trace, time.perf_counter() - t_start,
                         cfg.algo, cfg.lam, workers, ws.wait_s)
    return DepthVolume(op.dims, feedback), report


def solve_admm(psi: Measurements, table: PatchGroupTable, cfg: SolverConfig,
               init: DepthVolume | None = None) -> tuple[DepthVolume, SolveReport]:
    """Full splitting with a dual variable tying blocks to the volume.

    Per iteration: diagonal data step on the volume, blockwise low-rank
    proximal step with threshold lam/rho, then the dual ascent update.
    Stops when the relative change of the volume falls within cfg.tol (the
    absolute change while the previous iterate is all zero). Starts from
    ``init``, copied once and never written, or else from
    ``default_initialization(psi)``, which the solve makes itself.
    """
    if cfg.algo != "admm3d":
        raise DataError(f"solve_admm called with algo {cfg.algo!r}")
    return _iterate(psi, table, cfg, init)


def solve_simplified(psi: Measurements, table: PatchGroupTable, cfg: SolverConfig,
                     init: DepthVolume | None = None) -> tuple[DepthVolume, SolveReport]:
    """Decoupled alternation: blockwise proximal step with threshold lam,
    count-normalized aggregation, then the diagonal data step. Starts from
    ``init`` or the default initialization, as ``solve_admm`` does."""
    if cfg.algo not in ("gds3d", "gds2d", "ds3d"):
        raise DataError(f"solve_simplified called with algo {cfg.algo!r}")
    return _iterate(psi, table, cfg, init)


def run_pipeline(psi: Measurements, guide, cfg: SolverConfig
                 ) -> tuple[DepthVolume, SolveReport]:
    """Build the group table from the configured guide, and solve.

    The guided modes match on the intensity volume, which they require, and
    their solve makes its own initialization. ds3d matches on the
    interpolated depth initialization instead and starts its solve from it,
    and linear returns the initialization directly.
    """
    t_start = time.perf_counter()
    if cfg.algo == "linear":
        init = default_initialization(psi)
        report = SolveReport(0, "tolerance", [], time.perf_counter() - t_start,
                             cfg.algo, None)
        return init, report

    if cfg.algo in GUIDED_ALGORITHMS:
        if guide is None:
            raise DataError(f"{cfg.algo} requires an intensity guide")
        if guide.dims != psi.operator.dims:
            raise DataError(f"guide dims {guide.dims} do not match "
                            f"measurement dims {psi.operator.dims}")
        init, match_on = None, guide
    else:  # ds3d matches on the depth itself
        init = match_on = default_initialization(psi)

    table = build_groups(match_on, cfg.geometry)
    if cfg.algo == "admm3d":
        return solve_admm(psi, table, cfg, init=init)
    return solve_simplified(psi, table, cfg, init=init)


def select_lambda(psi: Measurements, guide, cfg: SolverConfig,
                  candidates, ref: DepthVolume | None = None
                  ) -> tuple[float | None, DepthVolume, SolveReport]:
    """Solve at each candidate weight and keep the result of best SNR against ref.

    A single candidate is solved once and not scored, so it needs no ref (it
    may be None, as for linear). Several are tried in ascending order and ties
    keep the earlier (smaller) weight, so the selection is deterministic.
    """
    candidates = list(candidates)
    if not candidates:
        raise DataError("empty candidate list")
    if len(candidates) == 1:
        est, rep = run_pipeline(psi, guide, replace(cfg, lam=candidates[0]))
        return candidates[0], est, rep
    if ref is None:
        raise DataError("several candidate weights need a reference to score them")
    best = None
    for lam in sorted(float(c) for c in candidates):
        est, rep = run_pipeline(psi, guide, replace(cfg, lam=lam))
        score = snr_db(ref.values, est.values)
        if best is None or score > best[0]:
            best = (score, lam, est, rep)
    _, lam, est, rep = best
    return lam, est, rep


def default_lambda_grid(psi: Measurements, input_snr_db: float) -> list[float]:
    """Candidate weights proportional to the implied measurement-noise level."""
    if not np.isfinite(input_snr_db):
        raise DataError("default candidates need a finite input SNR; "
                        "pass explicit weights for noiseless data")
    rms = _norm(psi.values) / np.sqrt(psi.values.size)
    sigma = rms * 10.0 ** (-input_snr_db / 20.0)
    if sigma == 0.0:
        raise DataError("measurements are all zero; cannot scale candidates")
    return [s * sigma for s in DEFAULT_LAMBDA_SCALES]
