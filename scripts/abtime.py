#!/usr/bin/env python3
"""In-process A/B timing of two checkouts on the perfbench workloads.

    python3 scripts/abtime.py --base ../parent --workload dec3-gds3d --seeds 0 1 2

Loads ``src/dsr`` of the checkout at ``--base`` and of this working tree
into one process, under the package names ``dsr_base`` and ``dsr_head``.
For each seed it rebuilds a workload's inputs through each tree's own
public API, as ``perfbench/workloads.py`` builds them, and then times the
workload's call on the two trees in turn for ``--rounds`` pairs, switching
which tree goes first every round. Per seed it prints, for each tree, the
median and quartiles of ``s_per_iter`` (solve-loop time over iterations)
and ``wall_s`` (the call, with the estimate written as ``dsr solve`` writes
it), the ratio of the medians and the pairs the working tree won. It also
says whether the two trees gave equal iterations and SNR and, on
``grid-sweep``, equal ``table.csv`` bytes.

Separate benchmark processes differ by up to a fifth in speed on a shared
machine; in one process the two trees run under the same conditions, so a
change of a few percent can show. ``--size W H T`` replaces the workload's
volume size, for a quick check. BLAS runs on one thread unless the
environment says otherwise, as in ``perfbench``.
"""

import argparse
import importlib
import importlib.util
import os
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS pin)

HEAD = Path(__file__).resolve().parents[1]
WORKLOADS = ("dec3-gds3d", "sparse-preview", "grid-sweep")
#: Each workload's volume size, as ``perfbench/workloads.py`` sets it.
SIZES = {"dec3-gds3d": (64, 64, 16), "sparse-preview": (320, 240, 8), "grid-sweep": (24, 24, 8)}


class Tree:
    """One checkout's ``dsr`` package, loaded under its own name."""

    def __init__(self, root: Path, name: str):
        package = Path(root).resolve() / "src" / "dsr"
        spec = importlib.util.spec_from_file_location(
            name, package / "__init__.py", submodule_search_locations=[str(package)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        self.name = name
        self.dsr = module
        self.solvers = importlib.import_module(f"{name}.solvers")
        self.bench = importlib.import_module(f"{name}.bench")

    def build(self, workload: str, size, seed: int):
        """The workload's inputs for a seed, made with this tree's API."""
        d = self.dsr
        dims = d.FrameDims(*size)
        if workload == "grid-sweep":
            spec = d.default_scene(dims, seed=seed)
            return spec, d.ExperimentGrid(factors=(2, 4), seeds=(seed,))
        depth, guide = d.synth_scene(d.default_scene(dims, seed=seed))
        if workload == "dec3-gds3d":
            op = d.SamplingOperator.decimation(depth.dims, 3)
            psi = d.add_noise(d.apply_sampling(op, depth), 30.0, seed)
            cfg = d.SolverConfig(algo="gds3d", lam=12.0)
            return psi, guide, cfg, lambda est: d.snr_db(depth.values, est.values)
        rec, val = d.sparse_split(depth, rate=0.05, seed=seed, split=0.5)
        cfg = d.SolverConfig(algo="gds3d", lam=6.0, max_iter=5)
        held_out = val.operator.indices
        return rec, guide, cfg, lambda est: d.snr_db(val.values, est.values[held_out])

    def run(self, workload: str, inputs, out_dir: Path) -> dict:
        """Time the workload's call once. ``run_pipeline`` is rebound in both
        modules that call it, so every solve's report gives ``s_per_iter``."""
        reports = []
        modules = (self.solvers, self.bench)
        original = self.solvers.run_pipeline

        def collecting(*args, **kwargs):
            est, report = original(*args, **kwargs)
            reports.append(report)
            return est, report

        for m in modules:
            m.run_pipeline = collecting
        try:
            t0 = time.perf_counter()
            if workload == "grid-sweep":
                self.bench.run_bench(*inputs, None, out_dir)
            else:
                psi, guide, cfg, score = inputs
                est, _ = self.solvers.run_pipeline(psi, guide, cfg)
                self.dsr.write_dsrv(out_dir / "est.dsrv", est)
            wall = time.perf_counter() - t0
        finally:
            for m in modules:
                m.run_pipeline = original
        iterations = sum(r.iterations for r in reports)
        result = {"wall_s": wall, "iterations": iterations,
                  "s_per_iter": sum(r.wall_time for r in reports) / max(iterations, 1)}
        if workload == "grid-sweep":
            table = (out_dir / "table.csv").read_bytes()
            cells = [float(c) for line in table.decode().splitlines()[1:]
                     for c in line.split(",")[1:]]
            result.update(snr_db=float(np.mean(cells)), table=table)
        else:
            result["snr_db"] = score(est)
        return result


def _stats(values) -> str:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return f"{med:.5f} [{q1:.5f}, {q3:.5f}]"


def _same(runs, key) -> bool:
    return all(r[key] == runs[0][key] for r in runs)


def compare(workload: str, seed: int, trees, size, rounds: int, scratch: Path) -> None:
    base, head = trees
    inputs = {t.name: t.build(workload, size, seed) for t in trees}
    runs = {t.name: [] for t in trees}
    for r in range(rounds):
        for tree in (trees if r % 2 == 0 else trees[::-1]):
            out_dir = scratch / tree.name
            out_dir.mkdir(parents=True, exist_ok=True)
            runs[tree.name].append(tree.run(workload, inputs[tree.name], out_dir))
    a, b = runs[base.name], runs[head.name]
    print(f"{workload} seed {seed}, {'x'.join(map(str, size))}, {rounds} rounds")
    for key in ("s_per_iter", "wall_s"):
        va, vb = [r[key] for r in a], [r[key] for r in b]
        won = sum(y < x for x, y in zip(va, vb))
        print(f"  {key:<10} base {_stats(va)}  head {_stats(vb)}  "
              f"head/base {np.median(vb) / np.median(va):.3f}  head won {won}/{rounds}")
    for key in ("iterations", "snr_db"):
        fa, fb = a[0][key], b[0][key]
        if not (_same(a, key) and _same(b, key)):
            verdict = "DIFFERENT between rounds"
        else:
            verdict = "equal" if fa == fb else f"differ by {abs(fb - fa):.3g}"
        print(f"  {key:<10} base {fa}  head {fb}  {verdict}")
    if workload == "grid-sweep":
        equal = a[0]["table"] == b[0]["table"] and _same(a, "table") and _same(b, "table")
        print(f"  table.csv  {'equal' if equal else 'DIFFERENT'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", type=Path, required=True,
                    help="root of the checkout to compare against (holds src/dsr)")
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=["dec3-gds3d"])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--size", type=int, nargs=3, metavar=("W", "H", "T"))
    args = ap.parse_args(argv)
    if not (args.base / "src" / "dsr" / "__init__.py").exists():
        ap.error(f"{args.base} holds no src/dsr package")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    trees = (Tree(args.base, "dsr_base"), Tree(HEAD, "dsr_head"))
    with tempfile.TemporaryDirectory(prefix="abtime_") as scratch:
        for workload in args.workload:
            for seed in args.seeds:
                compare(workload, seed, trees, args.size or SIZES[workload], args.rounds,
                        Path(scratch))
    return 0


if __name__ == "__main__":
    sys.exit(main())
