"""The benchmark's workloads: inputs made from a seed, the timed call, the checks.

Every workload renders ``default_scene`` with the run's seed. ``build`` makes
the inputs (this is set-up), ``run`` makes the timed reconstruction call(s)
and then checks every reconstruction it produced. A reconstruction fails when
the call raises, when its output has the wrong dims or non-finite values, or
when its SNR lands below the workload's floor.

The library is reached through module attributes at call time
(``solvers.run_pipeline``, ``bench.run_bench``, ``scenes.synth_scene``,
``dsr_io.write_dsrv``), so the wrappers of ``tracing.py`` see these calls.
``run`` takes the context manager that brackets the timed call: none by
default, the tracer's root span in a traced run.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dsr import bench, scenes, solvers
from dsr import io as dsr_io
from dsr.volumes import FrameDims, SamplingOperator, add_noise, apply_sampling, snr_db


@dataclass
class OpResult:
    """One timed call: its wall time, what the solver reported, its checks."""

    wall_s: float
    solve_s: float = 0.0
    iterations: int = 0
    snr_db: float = float("nan")
    attempted: int = 1
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


class ReportCollector:
    """Collects the SolveReport of every ``run_pipeline`` call made while active.

    ``run_bench`` returns no reports, so the solver's iteration count and
    solve-loop time are taken from the reports ``run_pipeline`` returns. The
    wrapper is rebound in both modules that call it and costs one Python call
    per reconstruction.
    """

    MODULES = (solvers, bench)

    def __init__(self):
        self.reports = []

    def __enter__(self):
        self._saved = [m.run_pipeline for m in self.MODULES]
        for module, original in zip(self.MODULES, self._saved):
            module.run_pipeline = self._collecting(original)
        return self

    def __exit__(self, *exc):
        for module, original in zip(self.MODULES, self._saved):
            module.run_pipeline = original
        return False

    def _collecting(self, original):
        def run_pipeline(*args, **kwargs):
            est, report = original(*args, **kwargs)
            self.reports.append(report)
            return est, report
        return run_pipeline

    def fill(self, res: OpResult) -> None:
        solving = [r for r in self.reports if r.iterations > 0]
        res.iterations = sum(r.iterations for r in solving)
        res.solve_s = sum(r.wall_time for r in solving)


def _check_volume(res: OpResult, est, dims, what: str) -> bool:
    if est.dims != dims or np.asarray(est.values).shape != (dims.total_voxels,):
        res.fail(f"{what}: dims {est.dims}, expected {dims}")
        return False
    if not np.all(np.isfinite(est.values)):
        res.fail(f"{what}: non-finite values")
        return False
    return True


class Workload:
    """A named set of inputs made from a seed, and the call timed on them."""

    snr_floor: float

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def build(self, seed: int):
        raise NotImplementedError

    def run(self, inputs, out_dir: Path, timed=contextlib.nullcontext) -> OpResult:
        raise NotImplementedError


class SingleSolve(Workload):
    """One ``run_pipeline`` call on sampled measurements of one scene.

    ``build`` returns (measurements, guide, solver config, SNR scoring function).
    """

    def run(self, inputs, out_dir: Path, timed=contextlib.nullcontext) -> OpResult:
        """Solve and write the estimate as ``dsr solve`` does, then check it."""
        psi, guide, cfg, score = inputs
        path = out_dir / "est.dsrv"
        with ReportCollector() as collector, timed():
            t0 = time.perf_counter()
            try:
                est, _ = solvers.run_pipeline(psi, guide, cfg)
                dsr_io.write_dsrv(path, est)
                error = None
            except Exception as exc:  # any crash is one failed reconstruction
                error = exc
            res = OpResult(wall_s=time.perf_counter() - t0)
        if error is not None:
            res.fail(f"reconstruction raised {type(error).__name__}: {error}")
            return res
        collector.fill(res)
        dims = psi.operator.dims
        if not (_check_volume(res, est, dims, "estimate")
                and _check_volume(res, dsr_io.read_dsrv(path), dims, "est.dsrv")):
            return res
        res.snr_db = score(est)
        if not res.snr_db >= self.snr_floor:
            res.fail(f"SNR {res.snr_db:.2f} dB below the floor {self.snr_floor} dB")
        return res


class Dec3Gds3d(SingleSolve):
    """64x64x16, decimation x3 at 30 dB, gds3d at lam=12 run to tolerance."""

    dims = FrameDims(64, 64, 16)
    # the bilinear start alone gives 22.2 dB; solves gave 26.8-31.7 dB on
    # seeds 0-10, so the floor catches a solve that stays near its start
    snr_floor = 24.0

    def build(self, seed: int):
        depth, guide = scenes.synth_scene(scenes.default_scene(self.dims, seed=seed))
        op = SamplingOperator.decimation(depth.dims, 3)
        psi = add_noise(apply_sampling(op, depth), 30.0, seed)
        cfg = solvers.SolverConfig(algo="gds3d", lam=12.0)
        return psi, guide, cfg, lambda est: snr_db(depth.values, est.values)


class SparsePreview(SingleSolve):
    """320x240x8, 5 % random samples split half/half, gds3d at lam=6 for 5 iterations."""

    dims = FrameDims(320, 240, 8)
    # nearest fill alone gives 22-23 dB on the held-out voxels and five
    # iterations add under 1 dB (22.5-24.7 dB on seeds 0-10), so this floor
    # catches a broken solve only
    snr_floor = 20.0

    def build(self, seed: int):
        depth, guide = scenes.synth_scene(scenes.default_scene(self.dims, seed=seed))
        rec, val = bench.sparse_split(depth, rate=0.05, seed=seed, split=0.5)
        cfg = solvers.SolverConfig(algo="gds3d", lam=6.0, max_iter=5)
        held_out = val.operator.indices
        return rec, guide, cfg, lambda est: snr_db(val.values, est.values[held_out])


class GridSweep(Workload):
    """``run_bench`` on 24x24x8: factors (2, 4), all five algorithms, default lam sweep."""

    dims = FrameDims(24, 24, 8)
    factors = (2, 4)
    # every cell, linear included, sits near 17 dB or above; the floor
    # catches a broken solve only
    snr_floor = 14.0

    def build(self, seed: int):
        spec = scenes.default_scene(self.dims, seed=seed)
        # the ground truth, rendered here only to check the written results
        ref, _ = scenes.synth_scene(spec)
        grid = bench.ExperimentGrid(factors=self.factors, seeds=(seed,))
        return spec, grid, ref

    def run(self, inputs, out_dir: Path, timed=contextlib.nullcontext) -> OpResult:
        """Run the grid, then check every cell of table.csv against its file."""
        spec, grid, ref = inputs
        cells = [(a, f) for a in grid.algorithms for f in grid.factors]
        with ReportCollector() as collector, timed():
            t0 = time.perf_counter()
            try:
                bench.run_bench(spec, grid, None, out_dir)
                error = None
            except Exception as exc:  # a crash fails every cell
                error = exc
            res = OpResult(wall_s=time.perf_counter() - t0, attempted=len(cells))
        if error is not None:
            for _ in cells:
                res.fail(f"run_bench raised {type(error).__name__}: {error}")
            return res
        collector.fill(res)

        table = _read_table(out_dir / "table.csv")
        values = []
        for algo, factor in cells:
            what = f"{algo} x{factor}"
            cell = table.get((algo, factor), float("nan"))
            values.append(cell)
            if not math.isfinite(cell):
                res.fail(f"{what}: table cell {cell}")
                continue
            recon = out_dir / f"recon_{algo}_{factor}x.dsrv"
            if not recon.exists():
                res.fail(f"{what}: {recon.name} missing")
                continue
            est = dsr_io.read_dsrv(recon)
            if not _check_volume(res, est, ref.dims, recon.name):
                continue
            # table.csv rounds to 0.01 dB and the file holds float32 values
            recomputed = snr_db(ref.values, est.values)
            if abs(recomputed - cell) > 0.02:
                res.fail(f"{what}: table says {cell} dB, the file gives {recomputed:.4f}")
            elif cell < self.snr_floor:
                res.fail(f"{what}: SNR {cell} dB below the floor {self.snr_floor} dB")
        res.snr_db = float(np.mean(values))
        return res


def _read_table(path: Path) -> dict:
    """Parse table.csv into {(algo, factor): SNR}; a missing file gives {}."""
    if not path.exists():
        return {}
    lines = path.read_text().splitlines()
    factors = [int(h.rstrip("x")) for h in lines[0].split(",")[1:]]
    table = {}
    for line in lines[1:]:
        algo, *cells = line.split(",")
        for factor, cell in zip(factors, cells):
            table[(algo, factor)] = float(cell)
    return table


WORKLOADS = {w.name: w for w in (
    Dec3Gds3d("dec3-gds3d", "headline setting: the iteration loop is ~97 % of the "
              "time, so per-iteration kernels show and fill and matching barely run"),
    SparsePreview("sparse-preview", "largest volume, few iterations: mask_fill and "
                  "build_groups do most of the work and drive peak RSS"),
    GridSweep("grid-sweep", "the dsr bench path: 26 small pipeline calls, repeated "
              "table builds, file writes, admm3d, gds2d and ds3d matching"),
)}


def fresh_dir(path: Path) -> Path:
    """Empty the per-call output directory, so no result of an earlier call is read."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
