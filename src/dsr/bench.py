"""Experiment grid runner and the sparse-sampling split.

run_bench degrades one synthetic scene at every configured decimation factor,
reconstructs with every configured algorithm, and writes a compact results
tree: ``table.csv`` (algorithms x factors, overall SNR, 2 decimals),
``frames_<algo>_<factor>.csv`` per successful cell, reconstructed volumes as
DSRV files, and ``run.json`` echoing the full configuration. A failing cell
records "nan" and the grid continues. Everything is seeded, so a rerun with
the same config reproduces every output byte for byte.

sparse_split implements the random-mask protocol: sample a fixed fraction of
voxels uniformly, then split them into disjoint reconstruction and
validation measurement sets.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError, as_list, as_number, check_seed, read_section
from .io import write_dsrv, write_frame_snr, write_json
from .patches import check_geometry
from .scenes import ObjectSpec, SceneSpec, default_scene, synth_scene
from .solvers import (
    ALGORITHMS,
    DEFAULT_SOLVER,
    SolverConfig,
    default_lambda_grid,
    run_pipeline,
    select_lambda,
)
from .volumes import (
    DepthVolume,
    FrameDims,
    Measurements,
    SamplingOperator,
    add_noise,
    apply_sampling,
    per_frame_snr,
    snr_db,
)

__all__ = ["ExperimentGrid", "sparse_split", "run_bench", "bench_from_config",
           "objects_from_config", "scene_from_config"]

@dataclass
class ExperimentGrid:
    """Which cells the bench runs and how measurements are degraded."""

    factors: tuple[int, ...] = (2, 3, 4, 5)
    input_snr_db: float = 30.0
    algorithms: tuple[str, ...] = ("linear", "gds2d", "ds3d", "admm3d", "gds3d")
    lambdas: tuple[float, ...] = ()
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        self.factors = tuple(as_number(f, "factors", whole=True)
                             for f in as_list(self.factors, "factors"))
        if self.input_snr_db == "inf":  # the encoding of ``dsr degrade``
            self.input_snr_db = math.inf
        self.input_snr_db = as_number(self.input_snr_db, "input_snr_db")
        self.algorithms = as_list(self.algorithms, "algorithms")
        self.lambdas = tuple(as_number(v, "lambdas") for v in as_list(self.lambdas, "lambdas"))
        self.seeds = tuple(check_seed(s) for s in as_list(self.seeds, "seeds"))
        if not (np.isfinite(self.input_snr_db) or self.input_snr_db == np.inf):
            raise DataError(f"input_snr_db must be finite or +inf, "
                            f"got {self.input_snr_db}")
        if not self.factors or not self.algorithms or not self.seeds:
            raise DataError("factors, algorithms and seeds must be nonempty")
        if any(f < 1 for f in self.factors):
            raise DataError(f"factors must be >= 1, got {self.factors}")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise DataError(f"unknown algorithm {a!r}")
        if not all(np.isfinite(v) and v > 0 for v in self.lambdas):
            raise DataError(f"lambda candidates must be positive and finite, "
                            f"got {self.lambdas}")


def sparse_split(vol: DepthVolume, rate: float, seed: int, split: float
                 ) -> tuple[Measurements, Measurements]:
    """Sample floor(rate * total voxels) voxels uniformly at random and split
    them into disjoint (reconstruction, validation) mask measurements with
    proportions (split, 1 - split)."""
    check_seed(seed)
    if not 0.0 < rate <= 1.0:
        raise DataError(f"rate must lie in (0, 1], got {rate}")
    if not 0.0 < split < 1.0:
        raise DataError(f"split must lie in (0, 1), got {split}")
    total = vol.dims.total_voxels
    n_sample = math.floor(rate * total)
    if n_sample < 2:
        raise DataError(f"rate {rate} on {total} voxels leaves {n_sample} samples, "
                        "need at least 2 to split")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(total, size=n_sample, replace=False)
    n_rec = math.floor(split * n_sample + 0.5)
    n_rec = min(max(n_rec, 1), n_sample - 1)

    def _as_measurements(idx: np.ndarray) -> Measurements:
        mask = np.zeros(total, dtype=bool)
        mask[idx] = True
        op = SamplingOperator.from_mask(vol.dims, mask)
        return apply_sampling(op, vol)

    return _as_measurements(chosen[:n_rec]), _as_measurements(chosen[n_rec:])


def _solve_cell(ref: DepthVolume, guide, grid: ExperimentGrid, base: SolverConfig,
                algo: str, factor: int, seed: int) -> DepthVolume:
    op = SamplingOperator.decimation(ref.dims, factor)
    psi = add_noise(apply_sampling(op, ref), grid.input_snr_db, seed)
    if algo == "linear":
        return run_pipeline(psi, guide, base)[0]
    cands = list(grid.lambdas) or default_lambda_grid(psi, grid.input_snr_db)
    cfg = replace(base, algo=algo, lam=cands[0])
    return select_lambda(psi, guide, cfg, cands, ref)[1]


def run_bench(scene_spec: SceneSpec, grid: ExperimentGrid, solver: dict | None,
              out_dir) -> dict:
    """Run the full grid and write table.csv, per-frame CSVs, reconstructions
    and run.json under out_dir. Returns {algo: {factor: overall SNR}}."""
    solver = {**DEFAULT_SOLVER,
              **read_section({} if solver is None else solver, "solver config", DEFAULT_SOLVER)}
    # linear keeps the window whole; a gds2d cell collapses only its own copy
    base = SolverConfig.from_settings("linear", None, solver)
    # a table numpy cannot address fails the config, not each cell that builds one
    for algo in [a for a in grid.algorithms if a != "linear"]:
        check_geometry(scene_spec.dims, SolverConfig.from_settings(algo, 1.0, solver).geometry)

    ref, guide = synth_scene(scene_spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["algo," + ",".join(f"{f}x" for f in grid.factors)]
    summary: dict[str, dict[int, float]] = {}
    for algo in grid.algorithms:
        cells = []
        for factor in grid.factors:
            try:
                overall, frame_curves, first_est = [], [], None
                for seed in grid.seeds:
                    est = _solve_cell(ref, guide, grid, base, algo, factor, seed)
                    overall.append(snr_db(ref.values, est.values))
                    frame_curves.append(per_frame_snr(ref, est))
                    if first_est is None:
                        first_est = est
                cell = float(np.mean(overall))
                curve = np.mean(np.stack(frame_curves), axis=0)
                write_frame_snr(out / f"frames_{algo}_{factor}.csv", curve)
                write_dsrv(out / f"recon_{algo}_{factor}x.dsrv", first_est)
            except (DataError, NumericError):
                cell = float("nan")
            cells.append(cell)
        summary[algo] = dict(zip(grid.factors, cells))
        lines.append(algo + "," + ",".join(f"{c:.2f}" for c in cells))
    (out / "table.csv").write_text("\n".join(lines) + "\n")

    grid_info = asdict(grid)
    if not math.isfinite(grid.input_snr_db):
        grid_info["input_snr_db"] = "inf"  # the encoding of ``dsr degrade``
    write_json(out / "run.json", {
        "scene": asdict(scene_spec),
        "grid": grid_info,
        "solver": base.settings(),
    })
    return summary


def objects_from_config(entries) -> tuple[ObjectSpec, ...]:
    """Object specs from an array of arrays of 8 numbers (x0, y0, w, h, depth,
    contrast, vx, vy). Each value passes ``as_number``, so a string is a
    DataError, and so is a fractional corner or size."""
    names = ("x0", "y0", "w", "h", "depth", "contrast", "vx", "vy")
    objs = []
    for i, entry in enumerate(as_list(entries, "objects")):
        vals = as_list(entry, f"object {i}")
        if len(vals) != len(names):
            raise DataError(f"object {i} needs 8 numbers "
                            "(x0,y0,w,h,depth,contrast,vx,vy), got "
                            f"{len(vals)}")
        objs.append(ObjectSpec(*(as_number(v, f"object {i} {name}", whole=k < 4)
                                 for k, (v, name) in enumerate(zip(vals, names)))))
    return tuple(objs)


def scene_from_config(scene_cfg) -> SceneSpec:
    """Scene spec from an object with the optional keys "w", "h", "t", "seed"
    (whole numbers; defaults: ``SceneSpec``'s) and "objects" (an array, see
    ``objects_from_config``; default: ``default_scene``'s object). Anything
    else, a non-object included, is a DataError."""
    defaults = {"w": SceneSpec.dims.width, "h": SceneSpec.dims.height,
                "t": SceneSpec.dims.frames, "seed": SceneSpec.seed}
    scene_cfg = read_section(scene_cfg, "scene config", [*defaults, "objects"])
    w, h, t, seed = (as_number(scene_cfg.get(key, value), key, whole=True)
                     for key, value in defaults.items())
    dims = FrameDims(w, h, t)
    if "objects" in scene_cfg:
        return SceneSpec(dims=dims, seed=seed,
                         objects=objects_from_config(scene_cfg["objects"]))
    return default_scene(dims, seed)


def bench_from_config(config, out_dir) -> dict:
    """Build scene/grid/solver settings from a parsed config and run.

    The config and its optional sections "scene", "grid" and "solver" must be
    objects with known keys (a null "solver" is a missing one, as ``None``
    is for ``run_bench``); missing keys take the package defaults. List
    settings (factors, algorithms, lambdas, seeds, objects, window) must be
    arrays, counts must fit in int64 and real numbers in a float. Any
    violation is a DataError, raised before ``out_dir`` is created.
    """
    config = read_section(config, "bench config", ("scene", "grid", "solver"))
    spec = scene_from_config(config.get("scene", {}))
    grid = read_section(config.get("grid", {}), "grid config",
                        [f.name for f in fields(ExperimentGrid)])
    return run_bench(spec, ExperimentGrid(**grid), config.get("solver"), out_dir)
