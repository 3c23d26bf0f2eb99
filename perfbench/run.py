#!/usr/bin/env python3
"""Benchmark of the dsr reconstructor: one workload, one seed, one run.

    python3 perfbench/run.py --workload dec3-gds3d --seed 0 --seconds 30 --trace 0

Run it from the repository root; it needs no install, only ``src/``. Every
process it starts is a fresh ``perfbench/worker.py`` with BLAS and OpenMP
pinned to one thread, started and awaited one at a time.

``--trace 0`` measures the end-to-end metrics: five processes set up the
inputs (the median is ``setup_s``), and the last of them times the
workload's call while another one still fits in ``--seconds``. ``--trace 1``
makes one such timed process and then a traced one, and reports the
per-layer metrics, the tracing overhead and the checks that compare the two.

Every metric is printed with its unit, together with every check; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Details go to ``.perfbench_out/results/``. README.md in this
directory says why each workload exists and which layer moves which metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_COUNTS, LAYER_UNITS

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 5


class BenchError(Exception):
    """The benchmark could not produce a result (not a failed reconstruction)."""


class Workers:
    """Starts worker processes one at a time, all within one deadline."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.args = [workload, str(seed), str(seconds)]
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(Path("src").resolve())] + ([self.env["PYTHONPATH"]]
                                            if self.env.get("PYTHONPATH") else []))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, role: str) -> dict:
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), role, *self.args, repr(spawned_at)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=self.env)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - spawned_at))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} worker still running after {TIME_LIMIT_S:.0f} s")
        finally:
            # also on an interrupt: no worker outlives this process
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"{role} worker exited with {proc.returncode}:\n"
                             + stderr.strip()[-2000:])
        return json.loads(stdout.strip().splitlines()[-1])


def code_fingerprint() -> str:
    """Hash of the program and the benchmark, so stored counts match only the same code."""
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def spread(values) -> str:
    """Median, maximum and sample count of one metric's samples."""
    return (f"median {statistics.median(values):.6g}, max {max(values):.6g}, "
            f"n={len(values)}")


def problems(ops, shown: int = 5) -> str:
    """The distinct failure reasons of some calls, the first few of them."""
    distinct = list(dict.fromkeys(p for op in ops for p in op["problems"]))
    more = f"\n      - ... {len(distinct) - shown} more" if len(distinct) > shown else ""
    return "".join(f"\n      - {p}" for p in distinct[:shown]) + more


def end_to_end(setups: list[float], measured: dict) -> tuple[dict, list, list]:
    """Metrics, printable rows and checks of the untraced runs."""
    ops = measured["ops"]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    walls = [op["wall_s"] for op in ops]
    per_iter = [op["solve_s"] / op["iterations"] for op in ops if op["iterations"] > 0]
    metrics = {
        "wall_s": (statistics.median(walls), "s", spread(walls)),
        "s_per_iter": (statistics.median(per_iter) if per_iter else 0.0, "s",
                       spread(per_iter) if per_iter else "no solver iterations"),
        "setup_s": (statistics.median(setups), "s", spread(setups)),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB", "ru_maxrss of the timed process"),
        "iterations": (ops[0]["iterations"], "count", "summed over the call's solves"),
        "snr_db": (ops[0]["snr_db"], "dB", "of the first call"),
    }
    rows = [(name, value, unit, note) for name, (value, unit, note) in metrics.items()]
    rows.append(("failed_share", failed / attempted, "ratio",
                 f"{failed} of {attempted} reconstructions"))
    checks = [
        ("reconstructions", failed == 0,
         f"{attempted} attempted, {failed} failed" + problems(ops)),
        ("calls repeat", all(op["iterations"] == ops[0]["iterations"]
                             and op["snr_db"] == ops[0]["snr_db"] for op in ops),
         f"iterations and SNR identical over {len(ops)} call(s)"),
    ]
    return metrics, rows, checks


def traced(workload: str, seed: int, measured: dict, tracing: dict) -> tuple[dict, list, list]:
    """Per-layer metrics, printable rows and checks of the traced run."""
    op = tracing["ops"][0]
    base = measured["ops"][0]
    layers = tracing["layers"]
    untraced = statistics.median(o["wall_s"] for o in measured["ops"])
    overhead = op["wall_s"] - untraced
    rows = [(name, value, LAYER_UNITS[name], "") for name, value in layers.items()]
    estimate = tracing["op_spans"] * tracing["span_cost_s"]
    rows.append(("tracing overhead", overhead, "s",
                 f"traced minus untraced wall, {overhead / untraced:+.1%} of "
                 f"{untraced:.6g} s"))
    rows.append(("tracing overhead estimate", estimate, "s",
                 f"{tracing['op_spans']} spans x {tracing['span_cost_s'] * 1e6:.2f} us "
                 "per wrapped call"))

    counts = {k: layers[k] for k in EXACT_COUNTS}
    store = OUT / "counts" / f"{workload}-seed{seed}-{code_fingerprint()}.json"
    if store.exists():
        before = json.loads(store.read_text())
        same = before == counts
        repeat = ("identical to the stored run of this code and seed" if same else
                  "differ: " + ", ".join(f"{k} {before.get(k)} -> {v}"
                                         for k, v in counts.items() if before.get(k) != v))
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counts))
        same, repeat = True, "stored; a rerun of this code and seed compares against them"

    root = tracing["root_s"]
    checks = [
        ("untraced reconstructions", all(o["failed"] == 0 for o in measured["ops"]),
         f"{sum(o['failed'] for o in measured['ops'])} of "
         f"{sum(o['attempted'] for o in measured['ops'])} failed"),
        ("traced reconstructions", op["failed"] == 0,
         f"{op['attempted']} attempted, {op['failed']} failed" + problems([op])),
        ("trace matches untraced", op["iterations"] == base["iterations"]
         and op["snr_db"] == base["snr_db"]
         and layers["solvers.iterations"] == base["iterations"],
         f"iterations {op['iterations']} / {base['iterations']}, "
         f"SNR {op['snr_db']!r} / {base['snr_db']!r} dB"),
        ("self times cover the traced wall",
         abs(tracing["self_sum_s"] - root) <= 1e-6 * root
         and abs(root - op["wall_s"]) <= 0.01 * root + 1e-3,
         f"sum of self {tracing['self_sum_s']:.6g} s, root span {root:.6g} s, "
         f"timed call {op['wall_s']:.6g} s"),
        ("exact counts repeat", same, repeat),
    ]
    return layers, rows, checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/dsr/__init__.py").is_file():
        print("perfbench: src/dsr not found; run from the root of a dsr checkout",
              file=sys.stderr)
        return 2

    workers = Workers(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            measured = workers.run("measure")
            tracing = workers.run("trace")
            values, rows, checks = traced(args.workload, args.seed, measured, tracing)
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
            ops = tracing["ops"]
            spans = tracing["spans"]
        else:
            setups = [workers.run("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            measured = workers.run("measure")
            setups.append(measured["setup_s"])
            values, rows, checks = end_to_end(setups, measured)
            metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
            ops = measured["ops"]
            spans = {}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    correct = all(ok for _, ok, _ in checks)
    print(f"perfbench {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} timed call(s)")
    if "env" in measured:
        print("  environment: " + json.dumps(measured["env"]))
    for name, value, unit, note in rows:
        print(f"  {name:26s} {value:>14.6g} {unit:6s} {note}")
    if spans:
        print(f"  {'span':32s} {'calls':>7s} {'total s':>10s} {'self s':>10s}")
        for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:32s} {row['calls']:7d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f}")
    for name, ok, note in checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'} ({note})")

    # a failed reconstruction has no SNR; the JSON line must stay valid JSON
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            metric["value"] = 0.0
    result = {"correct": correct,
              "attempted": sum(op["attempted"] for op in ops),
              "failed": sum(op["failed"] for op in ops),
              "metrics": metrics}
    details = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details.parent.mkdir(parents=True, exist_ok=True)
    details.write_text(json.dumps({"result": result, "env": measured.get("env"),
                                   "ops": ops, "spans": spans,
                                   "checks": [{"name": n, "ok": ok, "note": note}
                                              for n, ok, note in checks]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
