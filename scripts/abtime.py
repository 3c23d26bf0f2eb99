#!/usr/bin/env python3
"""In-process A/B timing of two checkouts on the perfbench workloads.

    python3 scripts/abtime.py --base ../parent --workload dec3-gds3d --seeds 0 1 2

Loads ``src/dsr`` of the checkout at ``--base`` and of this working tree
into one process, under the package names ``dsr_base`` and ``dsr_head``,
and loads this tree's ``perfbench/workloads.py`` once against each, so both
sides run perfbench's own workload objects: their ``build`` makes the
inputs, their ``run`` times the call and checks the results. Per seed it
runs ``--rounds`` rounds of four runs, base-head-head-base or its mirror,
switching between the two every round. Each side's value for a round is
the mean of its two runs there, so a drift in the machine's speed that is
linear over the round cancels from the pair. It prints, per side, the
median and quartiles over rounds of ``s_per_iter`` (as
``perfbench/run.py`` computes it: runs without solver iterations are left
out) and ``wall_s``, the ratio of the medians and the rounds the working
tree won. It also says whether the two sides gave equal
iterations, SNR, ``failed`` (reconstructions that raised, came out
malformed or fell below the workload's SNR floor, whose share perfbench
reports as ``failed_share``) and, where one is written, ``table.csv``.

Separate benchmark processes differ by up to a fifth in speed on a shared
machine; in one process the two trees run under the same conditions, so a
change of a few percent can show. ``--size W H T`` replaces each workload's
``dims`` for a quick check; a size the scene does not fit is a usage error
(exit 2) before any timing. At such sizes the SNR floors fail on both
sides, so compare the two ``failed`` counts rather than expect zero. BLAS
runs on one thread unless the environment says otherwise, as in
``perfbench``.
"""

import argparse
import importlib.util
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS pin)

HEAD = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path, package: Path = None):
    """Run the file at ``path`` as module ``name``, registered in sys.modules
    first (``@dataclass`` looks a class's module up there)."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package is None else [str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _keys(package: str) -> list:
    return [k for k in sys.modules if k == package or k.startswith(package + ".")]


class Tree:
    """One checkout's ``dsr`` package under its own name, with perfbench's
    workloads loaded against it."""

    def __init__(self, root: Path, name: str):
        package = Path(root).resolve() / "src" / "dsr"
        for k in _keys(name):  # a stale module of that name would be reused
            del sys.modules[k]
        _load(name, package / "__init__.py", package)
        self.name = name
        # While the workloads load, every dsr key names this tree's module or
        # is absent, so no import can reach another tree's copy.
        own = {"dsr" + k[len(name):]: sys.modules[k] for k in _keys(name)}
        saved = {k: sys.modules.pop(k) for k in _keys("dsr")}
        sys.modules.update(own)
        try:
            self.workloads = _load(f"{name}_workloads", HEAD / "perfbench" / "workloads.py")
        finally:
            for k in _keys("dsr"):
                del sys.modules[k]
            sys.modules.update(saved)


def _timing(key: str, base: list, head: list) -> str:
    """One timing line from per-round values; ``None`` marks a round without
    solver iterations."""
    va, vb = [x for x in base if x is not None], [y for y in head if y is not None]
    if not (va and vb):
        return f"  {key:<10} no solver iterations"
    pairs = [(x, y) for x, y in zip(base, head) if x is not None and y is not None]
    won = sum(y < x for x, y in pairs)
    stats = [f"{m:.5f} [{q1:.5f}, {q3:.5f}]"
             for q1, m, q3 in (np.percentile(v, [25, 50, 75]) for v in (va, vb))]
    return (f"  {key:<10} base {stats[0]}  head {stats[1]}  "
            f"head/base {np.median(vb) / np.median(va):.3f}  head won {won}/{len(pairs)}")


def _per_round(values: list) -> list:
    """The mean of each round's two runs, in run order; ``None`` where a run
    has no solver iterations."""
    return [None if None in pair else sum(pair) / 2 for pair in zip(values[::2], values[1::2])]


def _verdict(va: list, vb: list) -> str:
    # repr tells any two distinct floats apart and counts NaN, a failed call's SNR, as equal
    if len(set(map(repr, va))) > 1 or len(set(map(repr, vb))) > 1:
        return "DIFFERENT between rounds"
    return "equal" if repr(va[0]) == repr(vb[0]) else f"differ by {abs(vb[0] - va[0]):.3g}"


def compare(name: str, seed: int, trees, rounds: int, scratch: Path) -> None:
    workloads = [t.workloads.WORKLOADS[name] for t in trees]
    inputs = [w.build(seed) for w in workloads]
    runs, tables = ([], []), ([], [])
    for r in range(rounds):
        for i in ((0, 1, 1, 0) if r % 2 == 0 else (1, 0, 0, 1)):
            out_dir = trees[i].workloads.fresh_dir(scratch / trees[i].name)
            runs[i].append(workloads[i].run(inputs[i], out_dir))
            table = out_dir / "table.csv"
            tables[i].append(table.read_bytes() if table.exists() else None)
    dims = workloads[0].dims
    print(f"{name} seed {seed}, {dims.width}x{dims.height}x{dims.frames}, {rounds} rounds")
    per_iter = lambda r: r.solve_s / r.iterations if r.iterations > 0 else None  # noqa: E731
    for key, value in (("s_per_iter", per_iter), ("wall_s", lambda r: r.wall_s)):
        print(_timing(key, *[_per_round([value(r) for r in side]) for side in runs]))
    for key in ("iterations", "snr_db", "failed"):
        va, vb = [[getattr(r, key) for r in side] for side in runs]
        print(f"  {key:<10} base {va[0]}  head {vb[0]}  {_verdict(va, vb)}")
    written = set(tables[0] + tables[1])
    if written != {None}:
        print(f"  table.csv  {'equal' if len(written) == 1 else 'DIFFERENT'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", type=Path, required=True,
                    help="root of the checkout to compare against (holds src/dsr)")
    ap.add_argument("--workload", nargs="+",
                    help="names from perfbench's WORKLOADS (default: the first of them)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--size", type=int, nargs=3, metavar=("W", "H", "T"),
                    help="replaces each workload's dims")
    args = ap.parse_args(argv)
    if not (args.base / "src" / "dsr" / "__init__.py").exists():
        ap.error(f"{args.base} holds no src/dsr package")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if min(args.seeds) < 0:
        ap.error("--seeds must not be negative")
    if args.size and min(args.size) < 1:
        ap.error("--size values must be at least 1")

    trees = (Tree(args.base, "dsr_base"), Tree(HEAD, "dsr_head"))
    names = list(trees[1].workloads.WORKLOADS)
    chosen = args.workload or names[:1]
    unknown = [w for w in chosen if w not in names]
    if unknown:
        ap.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(names)}")
    if args.size:
        for tree in trees:
            for w in tree.workloads.WORKLOADS.values():
                w.dims = tree.workloads.FrameDims(*args.size)
            for name in chosen:  # a scene that does not fit the size fails here
                try:
                    tree.workloads.WORKLOADS[name].build(args.seeds[0])
                except sys.modules[f"{tree.name}.errors"].DataError as exc:
                    ap.error(f"--size {' '.join(map(str, args.size))} does not fit "
                             f"{name}: {exc}")
    with tempfile.TemporaryDirectory(prefix="abtime_") as scratch:
        for name in chosen:
            for seed in args.seeds:
                compare(name, seed, trees, args.rounds, Path(scratch))
    return 0


if __name__ == "__main__":
    sys.exit(main())
