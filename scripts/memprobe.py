#!/usr/bin/env python3
"""Peak resident memory and minor page faults at each stage of one solve.

    PYTHONPATH=src python3 scripts/memprobe.py --size 24 24 8 --algo gds3d

Renders ``default_scene``, decimates it at 30 dB input SNR and runs the
stages of ``run_pipeline`` one at a time, as it runs them: the
initialization, block matching and a solve of a fixed number of iterations
(tolerance 0). ds3d makes the initialization first, matches on it and
hands it to the solve; a guided solve gets none and makes its own, so its
init line reads the state before matching and says so. After each stage it
prints the process's peak resident set (``ru_maxrss``) and the minor page
faults (``ru_minflt``) the stage took; the match line adds the bytes the
group table stores per member, and the solve's faults are also given per
iteration. The solve also reports its ``tracemalloc`` peak in volumes (8
bytes per voxel): the working set that the solve allocates, its own
iterate and reference counts included.
BLAS runs on one thread unless the environment says otherwise, as in
``perfbench``.
"""

import argparse
import os
import resource
import sys
import tracemalloc

import numpy as np

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from dsr.patches import CHUNK_GROUPS, build_groups  # noqa: E402  (after the BLAS pin)
from dsr.scenes import default_scene, synth_scene  # noqa: E402
from dsr.solvers import (GUIDED_ALGORITHMS, SolverConfig, default_initialization,  # noqa: E402
                         solve_admm, solve_simplified)
from dsr.volumes import FrameDims, SamplingOperator, add_noise, apply_sampling  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--size", type=int, nargs=3, default=(24, 24, 8), metavar=("W", "H", "T"))
    ap.add_argument("--algo", choices=("gds3d", "gds2d", "ds3d", "admm3d"), default="gds3d")
    ap.add_argument("--lambda", dest="lam", type=float, default=12.0)
    ap.add_argument("--factor", type=int, default=3)
    ap.add_argument("--iterations", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    depth, guide = synth_scene(default_scene(FrameDims(*args.size), seed=args.seed))
    psi = add_noise(apply_sampling(SamplingOperator.decimation(depth.dims, args.factor), depth),
                    30.0, args.seed)
    cfg = SolverConfig(algo=args.algo, lam=args.lam, max_iter=args.iterations, tol=0.0)
    solve = solve_admm if args.algo == "admm3d" else solve_simplified

    print(f"{args.algo} at {'x'.join(map(str, args.size))}, decimation x{args.factor}, "
          f"{args.iterations} iterations")
    print(f"{'stage':<8} {'maxrss_mb':>10} {'minflt':>9}")
    last = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def report(stage: str, note: str = "") -> int:
        nonlocal last
        usage = resource.getrusage(resource.RUSAGE_SELF)
        faults, last = usage.ru_minflt - last, usage.ru_minflt
        print(f"{stage:<8} {usage.ru_maxrss * 1024 / 1e6:>10.1f} {faults:>9}{note}")
        return faults

    if args.algo in GUIDED_ALGORITHMS:
        init, match_on = None, guide
        report("init", "  made in the solve")
    else:
        init = match_on = default_initialization(psi)
        report("init")
    table = build_groups(match_on, cfg.geometry)
    stored = sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))
    report("match", f"  table {stored / table.top_left.size:.1f} bytes per member")
    tracemalloc.start()
    try:
        _, rep = solve(psi, table, cfg, init=init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    faults = report("solve")
    volume = 8 * depth.dims.total_voxels
    geom = table.geometry
    dual = (table.n_groups * geom.group_size * geom.patch_side ** 2 * 8
            if args.algo == "admm3d" else 0)
    print(f"solve: {rep.iterations} iterations, {faults / rep.iterations:.1f} minor "
          f"page faults per iteration, {-(-table.n_groups // CHUNK_GROUPS)} chunks of "
          f"at most {CHUNK_GROUPS} groups, traced peak {peak / volume:.2f} volumes "
          f"({peak / 1e6:.1f} MB" + (f", {dual / volume:.2f} of them the dual)" if dual else ")"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
