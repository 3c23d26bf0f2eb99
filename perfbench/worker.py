"""One benchmark process: make a workload's inputs, then time or trace its calls.

    PYTHONPATH=src python3 perfbench/worker.py ROLE WORKLOAD SEED SECONDS SPAWNED_AT

``run.py`` starts these one at a time, with BLAS and OpenMP pinned to one
thread. ROLE is ``setup`` (stop once the inputs are ready), ``measure``
(repeat the timed call while another one still fits in SECONDS; at least
one) or ``trace`` (one call under the tracer). SPAWNED_AT is the parent's
``time.monotonic()`` just before it started this process, so set-up time
runs from process start, imports included. The last line printed is one
JSON object.
"""

import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

OUT = Path(".perfbench_out")


def environment() -> dict:
    """What the timings depend on besides the code: cores, libraries, caches."""
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without mode="dicts"
        env["blas"] = "unknown"
    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            got = subprocess.run(["getconf", key], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            got = ""
        caches[key] = int(got) if got.isdigit() else None
    env["cache_bytes"] = caches
    return env


def main(argv) -> int:
    role, name, seed, seconds, spawned_at = argv[1:6]
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)

    tracer = None
    if role == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS, fresh_dir

    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    inputs = workload.build(seed)
    out = {"setup_s": time.monotonic() - spawned_at}
    if role == "setup":
        print(json.dumps(out))
        return 0

    work_dir = OUT / "work" / name
    timed = tracer.op if tracer else contextlib.nullcontext
    ops = []
    start = time.monotonic()
    while True:
        res = workload.run(inputs, fresh_dir(work_dir), timed=timed)
        ops.append(asdict(res))
        if tracer or time.monotonic() - start + res.wall_s > seconds:
            break
    out["ops"] = ops
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer is None:
        out["env"] = environment()
    else:
        runs = tracer.op_runs()
        own = tracer.self_times()
        out["layers"] = tracer.layer_metrics(runs)
        out["spans"] = tracer.summary(runs)
        out["root_s"] = sum(s.duration for s in tracer.spans if s.name == "op")
        out["self_sum_s"] = sum(own[s.id] for s in tracer.spans if s.run in runs)
        out["op_spans"] = sum(s.run in runs for s in tracer.spans)
        out["span_cost_s"] = tracer.wrapper_cost()
        spans_path = OUT / "spans" / f"{name}-seed{seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        out["spans_file"] = str(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
