"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line with its measured numbers, then
asserts. Thresholds and runtime budgets are fixed here on purpose; loosening
them is a behavior change, not a test fix. The guided-scenario fixture is
shared because two checks look at the same five solver runs.
"""

import time

import numpy as np
import pytest

from dsr.bench import ExperimentGrid, run_bench, sparse_split
from dsr.patches import PatchGeometry, build_groups, compute_counts, scatter_sum
from dsr.scenes import default_scene, synth_scene
from dsr.shrinkage import nu_shrink, prox_low_rank
from dsr.solvers import (
    SolverConfig,
    objective_nuclear,
    run_pipeline,
    solve_admm,
    solve_simplified,
)
from dsr.volumes import (
    DepthVolume,
    FrameDims,
    IntensityVolume,
    SamplingOperator,
    add_noise,
    apply_sampling,
    mask_fill,
    snr_db,
)
from oracles import adjoint_ref, nuclear_objective_oracle, occupancy, whole_index


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rel(err, ref):
    return float(np.linalg.norm(err)) / float(np.linalg.norm(ref))


def test_acceptance_1_operator_identities(capsys):
    """Adjoint and diagonal identities of the sampling and patch operators."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    dims = FrameDims(48, 48, 8)
    x = rng.uniform(1.0, 9.0, dims.total_voxels)
    guide = IntensityVolume(dims, rng.uniform(0.0, 1.0, dims.total_voxels))
    worst = 0.0

    ops = [SamplingOperator.decimation(dims, 3),
           SamplingOperator.from_mask(dims, rng.uniform(size=dims.total_voxels) < 0.3)]
    for op in ops:
        y = rng.standard_normal(op.n_measurements)
        vol = DepthVolume(dims, x)
        lhs = float(apply_sampling(op, vol).values @ y)
        rhs = float(x @ adjoint_ref(op, y))
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
        normal = adjoint_ref(op, apply_sampling(op, vol).values)
        worst = max(worst, _rel(normal - occupancy(op) * x, x))

    # the solver's chunked gather and scatter, over the whole table
    table = build_groups(guide, PatchGeometry())
    index = np.empty(table.chunk_shape(), dtype=np.int64)
    blocks = np.concatenate([x[idx] for _, idx in table.chunks(index)])
    y_blocks = rng.standard_normal(blocks.shape)
    scattered, normal = np.zeros(dims.total_voxels), np.zeros(dims.total_voxels)
    for groups, idx in table.chunks(index):
        scatter_sum(y_blocks[groups], idx, scattered)
        scatter_sum(blocks[groups], idx, normal)
    lhs = float(np.sum(blocks * y_blocks))
    rhs = float(x @ scattered)
    worst = max(worst, abs(lhs - rhs) / abs(lhs))
    counts = compute_counts(table)
    worst = max(worst, _rel(normal - counts * x, x))
    worst = max(worst, _rel(normal / counts - x, x))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(capsys, "acceptance 1 operator identities", ok,
             f"worst relative error {worst:.2e} (limit 1e-12), "
             f"{elapsed:.1f}s (limit 10s)")


def test_acceptance_2_shrinkage_closed_forms(capsys):
    """Matrix shrinkage examples and the scalar decomposition identity."""
    t0 = time.perf_counter()
    soft = prox_low_rank(np.diag([3.0, 1.0]), 1.0, 1.0)
    err_soft = float(np.max(np.abs(soft - np.diag([2.0, 0.0]))))
    hard = prox_low_rank(np.diag([3.0, 1.0]), 1.0, 0.0)
    err_hard = float(np.max(np.abs(hard - np.diag([8.0 / 3.0, 0.0]))))

    xs = np.linspace(-6.0, 6.0, 2001)
    err_moreau = 0.0
    for lam in (0.3, 1.0, 2.5):
        recomposed = nu_shrink(xs, lam, 1.0) + np.clip(xs, -lam, lam)
        err_moreau = max(err_moreau, float(np.max(np.abs(recomposed - xs))))

    elapsed = time.perf_counter() - t0
    worst = max(err_soft, err_hard, err_moreau)
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(capsys, "acceptance 2 shrinkage closed forms", ok,
             f"soft {err_soft:.2e}, hard-limit {err_hard:.2e}, "
             f"decomposition {err_moreau:.2e} (limit 1e-12), "
             f"{elapsed:.1f}s (limit 5s)")


def test_acceptance_3_convex_solver_optimality(capsys):
    """Full splitting at nu=1 lands within 1% of a long-run convex oracle."""
    t0 = time.perf_counter()
    dims = FrameDims(8, 8, 2)
    rng = np.random.default_rng(7)
    vol = DepthVolume(dims, rng.uniform(1.0, 9.0, dims.total_voxels))
    guide = IntensityVolume(dims, rng.uniform(0.0, 1.0, dims.total_voxels))
    op = SamplingOperator.decimation(dims, 2)
    psi = apply_sampling(op, vol)
    geom = PatchGeometry(patch_side=2, stride=2, window=(5, 5, 3), group_size=3)
    table = build_groups(guide, geom)
    lam = 1.0

    _, obj_oracle = nuclear_objective_oracle(
        psi.values, op.indices, whole_index(table), compute_counts(table),
        dims.total_voxels, lam, 100_000)

    cfg = SolverConfig(algo="admm3d", lam=lam, nu=1.0, rho=1.0,
                       max_iter=4000, tol=0.0, geometry=geom)
    est, _ = solve_admm(psi, table, cfg)
    obj_admm = objective_nuclear(est, psi, table, lam)

    gap = abs(obj_admm - obj_oracle) / obj_oracle
    elapsed = time.perf_counter() - t0
    ok = gap <= 0.01 and elapsed < 60.0
    _verdict(capsys, "acceptance 3 convex optimality", ok,
             f"objective {obj_admm:.6f} vs oracle {obj_oracle:.6f}, "
             f"relative gap {gap:.2e} (limit 1e-2), {elapsed:.1f}s (limit 60s)")


def test_acceptance_4_vanishing_weight_identity(capsys):
    """Near-zero regularization must leave the data untouched."""
    geom = PatchGeometry(patch_side=3, stride=2, window=(5, 5, 3), group_size=4)
    dims = FrameDims(16, 16, 4)
    rng = np.random.default_rng(3)
    guide = IntensityVolume(dims, rng.uniform(0.0, 1.0, dims.total_voxels))
    table = build_groups(guide, geom)

    # fully sampled random volume comes back within 1e-8
    vol = DepthVolume(dims, rng.uniform(2.0, 9.0, dims.total_voxels))
    psi_full = apply_sampling(SamplingOperator.decimation(dims, 1), vol)
    errs_full = {}
    for algo, fn in (("admm3d", solve_admm), ("gds3d", solve_simplified)):
        cfg = SolverConfig(algo=algo, lam=1e-12, max_iter=60, tol=1e-10,
                           geometry=geom)
        est, _ = fn(psi_full, table, cfg)
        errs_full[algo] = float(np.max(np.abs(est.values - vol.values)))

    # constant scene survives 2x decimation within 1e-6
    const = DepthVolume(dims, np.full(dims.total_voxels, 5.0))
    flat_guide = IntensityVolume(dims, np.full(dims.total_voxels, 0.5))
    flat_table = build_groups(flat_guide, geom)
    psi_dec = apply_sampling(SamplingOperator.decimation(dims, 2), const)
    errs_const = {}
    for algo, fn in (("admm3d", solve_admm), ("gds3d", solve_simplified)):
        cfg = SolverConfig(algo=algo, lam=1e-12, max_iter=60, tol=1e-10,
                           geometry=geom)
        est, _ = fn(psi_dec, flat_table, cfg)
        errs_const[algo] = float(np.max(np.abs(est.values - const.values)))

    ok = max(errs_full.values()) <= 1e-8 and max(errs_const.values()) <= 1e-6
    _verdict(capsys, "acceptance 4 vanishing-weight identity", ok,
             f"full sampling max|err| {errs_full['admm3d']:.1e}/"
             f"{errs_full['gds3d']:.1e} (limit 1e-8), constant scene "
             f"{errs_const['admm3d']:.1e}/{errs_const['gds3d']:.1e} (limit 1e-6)")


#: (algorithm, weight, coupling) used for the guided 3x scenario. The full
#: splitting needs the small coupling to damp its dual oscillation floor.
SCENARIO_PARAMS = {
    "linear": (None, None),
    "ds3d": (1.6, 1.0),
    "gds2d": (13.0, 1.0),
    "gds3d": (12.0, 1.0),
    "admm3d": (0.15, 0.015),
}


@pytest.fixture(scope="module")
def guided_scenario():
    """Factor-3 decimation of the default scene at 30 dB input, all algorithms."""
    t0 = time.perf_counter()
    dims = FrameDims(64, 64, 16)
    depth, guide = synth_scene(default_scene(dims, seed=0))
    op = SamplingOperator.decimation(dims, 3)
    psi = add_noise(apply_sampling(op, depth), 30.0, seed=0)

    runs = {}
    for algo, (lam, rho) in SCENARIO_PARAMS.items():
        cfg = SolverConfig(algo=algo, lam=lam, rho=rho if rho else 1.0)
        est, report = run_pipeline(psi, guide, cfg)
        runs[algo] = (snr_db(depth.values, est.values), report)
    return {"runs": runs, "elapsed": time.perf_counter() - t0,
            "depth": depth, "guide": guide}


def test_acceptance_5_guided_ranking(capsys, guided_scenario):
    """Guided space-time matching beats its ablations on the moving scene."""
    snr = {a: guided_scenario["runs"][a][0] for a in SCENARIO_PARAMS}
    elapsed = guided_scenario["elapsed"]
    margins = {
        "vs linear": (snr["gds3d"] - snr["linear"], 2.0),
        "vs single-frame": (snr["gds3d"] - snr["gds2d"], 0.3),
        "vs self-guided": (snr["gds3d"] - snr["ds3d"], 0.3),
    }
    ok = all(m >= need for m, need in margins.values())
    gap_admm = abs(snr["gds3d"] - snr["admm3d"])
    ok = ok and gap_admm <= 1.5 and elapsed < 300.0
    detail = ", ".join(f"{k} +{m:.2f} (need {need})"
                       for k, (m, need) in margins.items())
    _verdict(capsys, "acceptance 5 guided ranking", ok,
             f"SNR dB " + "/".join(f"{a}={snr[a]:.2f}" for a in SCENARIO_PARAMS)
             + f"; {detail}; |full-split gap| {gap_admm:.2f} (limit 1.5); "
             f"{elapsed:.0f}s (limit 300s)")


def test_acceptance_6_stopping_rule(capsys, guided_scenario):
    """Every iterative run on the scenario terminates by tolerance, not cap."""
    iterative = [a for a in SCENARIO_PARAMS if a != "linear"]
    rows = []
    ok = True
    for algo in iterative:
        rep = guided_scenario["runs"][algo][1]
        final = rep.trace[-1].rel_change
        good = (rep.stop_reason == "tolerance" and rep.iterations < 100
                and final <= 1e-4)
        ok = ok and good
        rows.append(f"{algo} {rep.iterations}it/{final:.1e}")
    _verdict(capsys, "acceptance 6 stopping rule", ok,
             "; ".join(rows) + " (all need <100 iterations and <=1e-4)")


def test_acceptance_7_sparse_validation_gain(capsys):
    """On 4% random sampling the guided solver beats nearest-fill on held-out
    voxels by at least 1.5 dB, with disjoint reproducible masks."""
    dims = FrameDims(64, 64, 16)
    depth, guide = synth_scene(default_scene(dims, seed=0))
    rec, val = sparse_split(depth, 0.04, seed=0, split=0.5)
    rec2, val2 = sparse_split(depth, 0.04, seed=0, split=0.5)
    masks_ok = (rec.operator == rec2.operator and val.operator == val2.operator
                and not np.any(rec.operator.mask & val.operator.mask))

    val_idx = val.operator.indices
    base = mask_fill(rec)
    base_snr = snr_db(val.values, base.values[val_idx])
    est, _ = run_pipeline(rec, guide, SolverConfig(algo="gds3d", lam=6.0))
    est_snr = snr_db(val.values, est.values[val_idx])

    gain = est_snr - base_snr
    ok = masks_ok and gain >= 1.5
    _verdict(capsys, "acceptance 7 sparse validation gain", ok,
             f"held-out SNR {est_snr:.2f} vs nearest-fill {base_snr:.2f} dB, "
             f"gain {gain:.2f} (need 1.5); masks disjoint+reproducible: {masks_ok}")


def test_acceptance_8_bench_reruns_identical(capsys, tmp_path):
    """The experiment harness is byte-for-byte reproducible."""
    scene = default_scene(FrameDims(24, 24, 4), seed=0)
    grid = ExperimentGrid(factors=(2, 3), algorithms=("linear", "gds3d"),
                          lambdas=(2.0,), seeds=(0,))
    solver = {"max_iter": 8, "patch": 3, "stride": 2, "window": (7, 7, 3),
              "group_size": 6}
    run_bench(scene, grid, solver, tmp_path / "a")
    run_bench(scene, grid, solver, tmp_path / "b")

    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    same = [n for n in names
            if (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()]
    table = (tmp_path / "a" / "table.csv").read_text().splitlines()
    ok = (len(same) == len(names) and names and table[0] == "algo,2x,3x")
    _verdict(capsys, "acceptance 8 bench reproducibility", ok,
             f"{len(same)}/{len(names)} artifacts byte-identical "
             f"({', '.join(names)})")
