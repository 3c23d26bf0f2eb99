"""Iterative reconstruction: exact ADMM and the decoupled simplified algorithm.

Both solvers run one loop that alternates a blockwise low-rank proximal step
(one pass over the group table's chunks) with a per-voxel quadratic
data-consistency step. Because the sampling operator is a selection and the
patch operator's normal matrix is the diagonal reference-count matrix, every
quadratic subproblem is a pointwise division, the same one for both, and
only the sampled voxels read a measurement. ADMM carries a dual variable
enforcing agreement between the block estimates and the volume; the
simplified variants drop it and re-aggregate blocks by count-normalized
averaging, which spreads the regularization evenly. Each solve rotates two
volumes, the feedback that becomes the new iterate and the old iterate
that becomes the change. The first iterate is the solve's own: the default
initialization it makes, or one copy of the caller's, which it never writes.

Algorithm variants select what drives the block matching: the intensity guide
(gds3d, gds2d, admm3d), or the interpolated depth itself (ds3d). gds2d
restricts matching to single frames.
"""

from __future__ import annotations

import math
import time
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


def default_initialization(psi: Measurements) -> DepthVolume:
    """Interpolate decimation measurements, nearest-fill mask measurements."""
    if psi.operator.kind == "decimation":
        return linear_interpolate(psi, psi.operator.dims)
    return mask_fill(psi)


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


@dataclass
class _Workspace:
    """One solve's chunk buffers, allocated once before its volumes and
    reused by every chunk of every block pass: the gather index, the
    gathered blocks, a second block stack, and the prox's Gram and
    projector stacks. The simplified solvers write the prox of the gathered
    blocks into the second stack; admm3d does its dual arithmetic there and
    writes the prox into a block stack that ``_iterate`` allocates next to
    the dual. No prox writes into its input, since a product into its own
    input works on a copy."""

    index: np.ndarray
    blocks: np.ndarray
    step: np.ndarray
    prox: np.ndarray

    @classmethod
    def allocate(cls, table: PatchGroupTable) -> "_Workspace":
        shape = table.chunk_shape()
        return cls(np.empty(shape, dtype=np.int64), np.empty(shape), np.empty(shape),
                   prox_work(*shape))

    def block_pass(self, values: np.ndarray, table: PatchGroupTable, out: np.ndarray,
                   update) -> None:
        """Set ``out`` to the sum of ``update(groups, blocks)`` over the
        table's chunks, where ``blocks`` are the chunk's blocks of ``values``
        in the block buffer. The table has checked that every index lies in
        the volume, so the gather checks none; the chunks are added in table
        order, so ``out`` has the bytes of one whole-table sum."""
        out.fill(0.0)
        for groups, idx in table.chunks(self.index):
            blocks = np.take(values, idx, out=self.blocks[:len(idx)], mode="clip")
            scatter_sum(update(groups, blocks), idx, out)


def _iterate(psi: Measurements, table: PatchGroupTable, cfg: SolverConfig,
             init: DepthVolume | None) -> tuple[DepthVolume, SolveReport]:
    """The alternation both solvers share: per iteration one block pass and
    one data step. The simplified solvers' pass shrinks the iterate's blocks
    and feeds back their average; admm3d's, after its data step, updates the
    blocks and the dual and sums the next feedback ``blocks + dual / rho``.

    The solve allocates its whole working set here, once. Before its clock
    starts it makes the first iterate: ``default_initialization(psi)``
    without ``init``, else one copy of ``init``, which stays the caller's
    and is only read. Then come the reference counts in their narrow
    unsigned dtype (admm3d keeps only ``rho * counts``), one workspace
    through which every pass streams the table's chunks, the feedback
    volume, and for admm3d the dual and the block stack its prox writes.
    The block pass writes the feedback, the data step turns it into the new
    iterate in place, and the change of the iterate goes over the old
    iterate, into which admm3d's next pass then writes; the two volumes
    swap. So after set-up no iteration allocates a volume or a block stack.
    """
    phi = default_initialization(psi).values if init is None else init.values.copy()
    t_start = time.perf_counter()
    admm = cfg.algo == "admm3d"
    ws = _Workspace.allocate(table)
    op = psi.operator
    rho = cfg.rho
    counts = patches.compute_counts(table)
    # the data step's denominator less the occupancy; admm3d drops the integer counts
    base, counts = (counts * rho, None) if admm else (rho, counts)

    feedback = np.empty_like(phi)
    if admm:
        dual = np.zeros((table.n_groups, *table.chunk_shape()[1:]))
        shrunk = np.empty(table.chunk_shape())

        def update(groups, b_phi):
            """Block and dual updates of one chunk; returns its feedback."""
            nonlocal extracted, resid_norm
            extracted = math.hypot(extracted, _norm(b_phi))
            dual_g, step = dual[groups], ws.step[:len(b_phi)]
            np.subtract(b_phi, np.divide(dual_g, rho, out=step), out=step)
            blocks = prox_low_rank(step, cfg.lam / rho, cfg.nu, out=shrunk[:len(b_phi)],
                                   work=ws.prox)
            resid = np.subtract(blocks, b_phi, out=b_phi)
            resid_norm = math.hypot(resid_norm, _norm(resid))
            dual_g += np.multiply(rho, resid, out=resid)
            blocks += np.divide(dual_g, rho, out=resid)
            return blocks

        # blocks start as exact extractions of the initialization, the dual at zero
        ws.block_pass(phi, table, feedback, lambda groups, blocks: blocks)
    else:
        def update(groups, blocks):
            return prox_low_rank(blocks, cfg.lam, cfg.nu, out=ws.step[:len(blocks)],
                                 work=ws.prox)

    trace: list[TraceEntry] = []
    stop_reason = "max_iter"
    for k in range(cfg.max_iter):
        if not admm:
            ws.block_pass(phi, table, feedback, update)
            feedback /= counts
        new = admm_phi_step(psi, base, feedback, rho, out=feedback)
        if not all_finite(new):
            raise NumericError("iterate diverged to non-finite values")
        # the change overwrites phi: norm it first
        scale = _norm(phi)
        entry = TraceEntry(rel_change=_relative(_norm(np.subtract(new, phi, out=phi)), scale))
        if admm:
            extracted = resid_norm = 0.0
            ws.block_pass(new, table, phi, update)
            entry.primal_residual = _relative(resid_norm, extracted)
        if cfg.track_objective:
            entry.objective = objective_nuclear(DepthVolume(op.dims, new), psi, table, cfg.lam)
        phi, feedback = new, phi
        trace.append(entry)
        # the initialization is a fixed point of the first ADMM volume update
        # (blocks start as exact extractions), so the change test is only
        # meaningful from the second iteration on
        if k >= 1 and entry.rel_change <= cfg.tol:
            stop_reason = "tolerance"
            break

    report = SolveReport(len(trace), stop_reason, trace,
                         time.perf_counter() - t_start, cfg.algo, cfg.lam)
    return DepthVolume(op.dims, phi), report


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
