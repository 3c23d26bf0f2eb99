#!/usr/bin/env python3
"""Run the decimation benchmark grid on the synthetic scene and print the table.

Each cell decimates the depth sequence, adds noise at the input SNR, runs one
algorithm and reports reconstruction SNR in dB. Without --lambdas the
iterative algorithms sweep a noise-scaled candidate list and keep the best
against the ground truth, which multiplies the runtime accordingly; the full
default grid takes on the order of half an hour on a laptop.
"""

import argparse
import sys
from pathlib import Path

from dsr.bench import DEFAULT_SOLVER, ExperimentGrid, run_bench
from dsr.scenes import default_scene
from dsr.solvers import ALGORITHMS
from dsr.volumes import FrameDims


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("bench_out"))
    ap.add_argument("--size", type=int, nargs=3, default=(64, 64, 16),
                    metavar=("W", "H", "T"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--factors", type=int, nargs="+", default=[2, 3, 4, 5])
    ap.add_argument("--algos", nargs="+", default=list(ALGORITHMS))
    ap.add_argument("--snr", type=float, default=30.0,
                    help="input SNR of the measurements in dB")
    ap.add_argument("--lambdas", type=float, nargs="*", default=[],
                    help="explicit candidate weights (default: noise-scaled sweep)")
    ap.add_argument("--max-iter", type=int, default=DEFAULT_SOLVER["max_iter"])
    args = ap.parse_args(argv)

    w, h, t = args.size
    scene = default_scene(FrameDims(w, h, t), seed=args.seed)
    grid = ExperimentGrid(factors=tuple(args.factors),
                          input_snr_db=args.snr,
                          algorithms=tuple(args.algos),
                          lambdas=tuple(args.lambdas),
                          seeds=(args.seed,))
    summary = run_bench(scene, grid, {"max_iter": args.max_iter}, args.out)

    print((args.out / "table.csv").read_text(), end="")
    best = max(summary, key=lambda a: max(
        v for v in summary[a].values() if v == v))
    print(f"# best algorithm on this grid: {best}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
