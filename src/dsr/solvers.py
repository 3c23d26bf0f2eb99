"""Iterative reconstruction: exact ADMM and the decoupled simplified algorithm.

Both solvers run one loop that alternates a blockwise low-rank proximal step
(one pass over the group table's chunks) with a per-voxel quadratic
data-consistency step. Because the sampling operator is a selection and the
patch operator's normal matrix is the diagonal reference-count matrix, every
quadratic subproblem is a pointwise division, the same one for both. ADMM
carries a dual variable enforcing agreement between the block estimates and
the volume; the simplified variants drop it and re-aggregate blocks by
count-normalized averaging, which spreads the regularization evenly.

Algorithm variants select what drives the block matching: the intensity guide
(gds3d, gds2d, admm3d), or the interpolated depth itself (ds3d). gds2d
restricts matching to single frames.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, NumericError, all_finite, as_list, as_number
from .patches import PatchGeometry, PatchGroupTable, build_groups, scatter_sum
from .shrinkage import prox_low_rank, prox_work
from .volumes import (
    DepthVolume,
    Measurements,
    SamplingOperator,
    adjoint_sampling,
    linear_interpolate,
    mask_fill,
    occupancy,
    snr_db,
)

__all__ = [
    "ALGORITHMS",
    "GUIDED_ALGORITHMS",
    "SolverConfig",
    "DEFAULT_SOLVER",
    "TraceEntry",
    "SolveReport",
    "default_initialization",
    "admm_phi_step",
    "simplified_phi_step",
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


def admm_phi_step(ht_psi: np.ndarray, denom: np.ndarray, feedback: np.ndarray, rho: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The data step of every solver, a diagonal solve per voxel:
    (measured value + rho * feedback) / denom. admm3d feeds back its
    dual-corrected block sum over occupancy + rho * count; the simplified
    solvers their count-normalized block average over occupancy + rho.
    The result goes into ``out`` when given."""
    out = np.multiply(rho, feedback, out=out)
    out += ht_psi
    out /= denom
    return out


# one step under both names: perfbench/tracing.py times each by its name
simplified_phi_step = admm_phi_step


def default_initialization(psi: Measurements) -> DepthVolume:
    """Interpolate decimation measurements, nearest-fill mask measurements."""
    if psi.operator.kind == "decimation":
        return linear_interpolate(psi, psi.operator.dims)
    return mask_fill(psi)


def objective_nuclear(phi: DepthVolume, psi: Measurements, op: SamplingOperator,
                      table: PatchGroupTable, lam: float) -> float:
    """Data misfit plus lam times the summed nuclear norms of all blocks, chunk by chunk."""
    resid = psi.values - phi.values[op.indices]
    nuclear = sum(float(np.linalg.svd(phi.values[idx], compute_uv=False).sum())
                  for _, idx in table.chunks())
    return 0.5 * float(resid @ resid) + lam * nuclear


def _relative(change: float, scale: float) -> float:
    """change / scale for two norms, or change itself when scale is zero."""
    return change / scale if scale > 0 else change


@dataclass
class _Workspace:
    """One solve's chunk buffers, allocated once before its volumes and
    reused by every chunk of every block pass: the gather index, the
    gathered blocks (which the simplified solvers shrink in place), admm3d's
    stack for its dual arithmetic, and the prox's Gram and squaring stacks."""

    index: np.ndarray
    blocks: np.ndarray
    step: np.ndarray | None
    prox: np.ndarray

    @classmethod
    def allocate(cls, table: PatchGroupTable, admm: bool) -> "_Workspace":
        shape = table.chunk_shape()
        return cls(np.empty(shape, dtype=np.int64), np.empty(shape),
                   np.empty(shape) if admm else None, prox_work(*shape))

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
            scatter_sum(update(groups, blocks), table, out, idx)


def _iterate(psi: Measurements, table: PatchGroupTable, cfg: SolverConfig,
             init: DepthVolume | None) -> tuple[DepthVolume, SolveReport]:
    """The alternation both solvers share: per iteration one block pass and
    one data step. The simplified solvers' pass shrinks the iterate's blocks
    and feeds back their average; admm3d's, after its data step, updates the
    blocks and the dual and sums the next feedback ``blocks + dual / rho``.

    Every pass streams the table's chunks through one workspace allocated
    per solve, and the iterate alternates between two volumes, so after
    set-up no iteration allocates a chunk-sized stack or a volume: besides
    admm3d's dual the working memory is five volumes and one chunk.
    """
    t_start = time.perf_counter()
    admm = cfg.algo == "admm3d"
    ws = _Workspace.allocate(table, admm)
    op = psi.operator
    rho = cfg.rho
    counts = table.counts()
    ht_psi = adjoint_sampling(op, psi).values
    # the data step's per-voxel denominator, occ + rho * counts or occ + rho
    if admm:
        denom = counts * rho
        denom += occupancy(op)
    else:
        denom = occupancy(op) + rho

    phi = (init if init is not None else default_initialization(psi)).values.copy()
    new = np.empty_like(phi)
    # the data step's feedback, then the change of the iterate
    block_sum = np.empty_like(phi)
    if admm:
        dual = np.zeros((table.n_groups, *table.chunk_shape()[1:]))

        def update(groups, b_phi):
            """Block and dual updates of one chunk; returns its feedback."""
            nonlocal extracted_sq, resid_sq
            extracted_sq += float(np.vdot(b_phi, b_phi))
            dual_g, step = dual[groups], ws.step[:len(b_phi)]
            np.subtract(b_phi, np.divide(dual_g, rho, out=step), out=step)
            blocks = prox_low_rank(step, cfg.lam / rho, cfg.nu, out=step, work=ws.prox)
            resid = np.subtract(blocks, b_phi, out=b_phi)
            resid_sq += float(np.vdot(resid, resid))
            dual_g += np.multiply(rho, resid, out=resid)
            blocks += np.divide(dual_g, rho, out=resid)
            return blocks

        # blocks start as exact extractions of the initialization, the dual at zero
        ws.block_pass(phi, table, block_sum, lambda groups, blocks: blocks)
    else:
        def update(groups, blocks):
            return prox_low_rank(blocks, cfg.lam, cfg.nu, out=blocks, work=ws.prox)

    trace: list[TraceEntry] = []
    stop_reason = "max_iter"
    for k in range(cfg.max_iter):
        if not admm:
            ws.block_pass(phi, table, block_sum, update)
            block_sum /= counts
        (admm_phi_step if admm else simplified_phi_step)(ht_psi, denom, block_sum, rho, out=new)
        if not all_finite(new):
            raise NumericError("iterate diverged to non-finite values")
        change = np.subtract(new, phi, out=block_sum)
        entry = TraceEntry(rel_change=_relative(float(np.linalg.norm(change)),
                                                float(np.linalg.norm(phi))))
        if admm:
            extracted_sq = resid_sq = 0.0
            ws.block_pass(new, table, block_sum, update)
            entry.primal_residual = _relative(math.sqrt(resid_sq), math.sqrt(extracted_sq))
        if cfg.track_objective:
            entry.objective = objective_nuclear(DepthVolume(op.dims, new),
                                                psi, op, table, cfg.lam)
        phi, new = new, phi
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
    absolute change while the previous iterate is all zero).
    """
    if cfg.algo != "admm3d":
        raise DataError(f"solve_admm called with algo {cfg.algo!r}")
    return _iterate(psi, table, cfg, init)


def solve_simplified(psi: Measurements, table: PatchGroupTable, cfg: SolverConfig,
                     init: DepthVolume | None = None) -> tuple[DepthVolume, SolveReport]:
    """Decoupled alternation: blockwise proximal step with threshold lam,
    count-normalized aggregation, then the diagonal data step."""
    if cfg.algo not in ("gds3d", "gds2d", "ds3d"):
        raise DataError(f"solve_simplified called with algo {cfg.algo!r}")
    return _iterate(psi, table, cfg, init)


def run_pipeline(psi: Measurements, guide, cfg: SolverConfig
                 ) -> tuple[DepthVolume, SolveReport]:
    """Initialize, build the group table from the configured guide, and solve.

    The guided modes require the intensity volume; ds3d matches on the
    interpolated depth initialization instead, and linear returns the
    initialization directly.
    """
    t_start = time.perf_counter()
    init = default_initialization(psi)
    if cfg.algo == "linear":
        report = SolveReport(0, "tolerance", [], time.perf_counter() - t_start,
                             cfg.algo, None)
        return init, report

    if cfg.algo in GUIDED_ALGORITHMS:
        if guide is None:
            raise DataError(f"{cfg.algo} requires an intensity guide")
        if guide.dims != psi.operator.dims:
            raise DataError(f"guide dims {guide.dims} do not match "
                            f"measurement dims {psi.operator.dims}")
        match_on = guide
    else:  # ds3d matches on the depth itself
        match_on = init

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
    rms = float(np.linalg.norm(psi.values)) / np.sqrt(psi.values.size)
    sigma = rms * 10.0 ** (-input_snr_db / 20.0)
    if sigma == 0.0:
        raise DataError("measurements are all zero; cannot scale candidates")
    return [s * sigma for s in DEFAULT_LAMBDA_SCALES]
