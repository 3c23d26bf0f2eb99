#!/usr/bin/env python3
"""Peak resident memory and minor page faults at each stage of one solve.

    PYTHONPATH=src python3 scripts/memprobe.py --size 24 24 8 --algo gds3d

Renders ``default_scene``, decimates it at 30 dB input SNR and runs the
stages of ``run_pipeline`` one at a time, as it runs them: the
initialization, block matching and a solve of a fixed number of iterations
(tolerance 0). ds3d makes the initialization first, matches on it and
hands it to the solve; a guided solve gets none and makes its own, so its
init line reads the state before matching and says so. After each stage it
prints the process's peak resident set (``ru_maxrss``), the largest peak
of the child processes it has waited for (``ru_maxrss`` of
``RUSAGE_CHILDREN``: the solve's block-pass helpers, which share the
parent's pages until they write them, so the two peaks overlap) and the
minor page faults (``ru_minflt``) the stage took; the match line adds the
bytes the group table stores per member and the ``tracemalloc`` peak of
``build_groups`` (the table and each matching thread's buffers), in bytes
and in volumes (8 bytes per voxel), and the solve's faults are also given
per iteration. The solve also reports its peak working set in
volumes (8 bytes per voxel): the ``tracemalloc`` peak plus every byte of
the shared mappings that the solve allocates and ``tracemalloc`` does not
see (the iterate, the helpers' index and result slots and admm3d's
dual), its own reference counts included.
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

from dsr import solvers  # noqa: E402  (after the BLAS pin)
from dsr.patches import build_groups  # noqa: E402
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
    print(f"{'stage':<8} {'maxrss_mb':>10} {'child_mb':>9} {'minflt':>9}")
    last = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def report(stage: str, note: str = "") -> int:
        nonlocal last
        usage = resource.getrusage(resource.RUSAGE_SELF)
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
        faults, last = usage.ru_minflt - last, usage.ru_minflt
        print(f"{stage:<8} {usage.ru_maxrss * 1024 / 1e6:>10.1f} {child:>9.1f} "
              f"{faults:>9}{note}")
        return faults

    if args.algo in GUIDED_ALGORITHMS:
        init, match_on = None, guide
        report("init", "  made in the solve")
    else:
        init = match_on = default_initialization(psi)
        report("init")
    volume = 8 * depth.dims.total_voxels
    tracemalloc.start()
    try:
        table = build_groups(match_on, cfg.geometry)
        match_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))
    report("match", f"  table {stored / table.top_left.size:.1f} bytes per member, traced "
                    f"peak {match_peak} bytes ({match_peak / volume:.2f} volumes)")
    shared, allocate = [], solvers._shared

    def recorded(shape):
        arr = allocate(shape)
        shared.append(arr.nbytes)
        return arr

    solvers._shared = recorded
    tracemalloc.start()
    try:
        _, rep = solve(psi, table, cfg, init=init)
        peak = tracemalloc.get_traced_memory()[1] + sum(shared)
    finally:
        tracemalloc.stop()
        solvers._shared = allocate
    faults = report("solve", f"  workers {rep.workers}")
    geom = table.geometry
    dual = (table.n_groups * geom.group_size * geom.patch_side ** 2 * 8
            if args.algo == "admm3d" else 0)
    print(f"solve: {rep.iterations} iterations, {faults / rep.iterations:.1f} minor "
          f"page faults per iteration, {table.n_chunks} chunks of "
          f"at most {table.chunk_shape()[0]} groups, traced peak {peak / volume:.2f} volumes "
          f"({peak / 1e6:.1f} MB, {sum(shared) / volume:.2f} volumes of them shared"
          + (f", {dual / volume:.2f} the dual)" if dual else ")"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
