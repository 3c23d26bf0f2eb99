"""Spans and counters around the library's layers, recorded from outside it.

``Tracer.install`` rebinds module attributes of ``dsr`` (for instance
``dsr.solvers.prox_low_rank``, which is what the solver loop calls) to
wrappers that open a span, call the original and count what the call did.
Nothing inside ``src/`` changes. Spans are kept in memory as (id, name,
start, end, parent, run id) and written out once at the end.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (module, attribute, span name); a wrapper rebound in several modules keeps
# one span name. Attributes missing from the program are skipped, so the
# metrics of a layer that no longer exists read 0.
WRAPPED = (
    ("dsr.scenes", "synth_scene", "scenes.synth_scene"),
    ("dsr.solvers", "run_pipeline", "solvers.run_pipeline"),
    ("dsr.bench", "run_pipeline", "solvers.run_pipeline"),
    ("dsr.solvers", "default_initialization", "volumes.default_initialization"),
    ("dsr.solvers", "build_groups", "patches.build_groups"),
    ("dsr.solvers", "solve_simplified", "solvers.solve_simplified"),
    ("dsr.solvers", "solve_admm", "solvers.solve_admm"),
    ("dsr.solvers", "prox_low_rank", "shrinkage.prox_low_rank"),
    ("dsr.solvers", "scatter_sum", "patches.scatter_sum"),
    ("dsr.solvers", "simplified_phi_step", "solvers.simplified_phi_step"),
    ("dsr.solvers", "admm_phi_step", "solvers.admm_phi_step"),
    ("dsr.solvers", "stop_check", "solvers.stop_check"),
    ("dsr.patches", "compute_counts", "patches.compute_counts"),
    ("dsr.patches.PatchGroupTable", "gather_indices", "patches.gather_indices"),
    ("dsr.bench", "run_bench", "bench.run_bench"),
    ("dsr.bench", "select_lambda", "bench.select_lambda"),
    ("dsr.bench", "write_dsrv", "io.write_dsrv"),
    ("dsr.io", "write_dsrv", "io.write_dsrv"),
)

SOLVE_SPANS = ("solvers.solve_simplified", "solvers.solve_admm")
DATA_SPANS = ("solvers.simplified_phi_step", "solvers.admm_phi_step")

#: per-layer metric -> unit; the names BENCHMARK.json lists under per_layer
LAYER_UNITS = {
    "volumes.init_s": "s",
    "volumes.init_calls": "count",
    "patches.match_s": "s",
    "patches.match_calls": "count",
    "patches.groups": "count",
    "patches.candidates": "count",
    "patches.gather_index_mb": "MB",
    "patches.scatter_s": "s",
    "shrinkage.prox_s": "s",
    "shrinkage.prox_calls": "count",
    "shrinkage.blocks": "count",
    "shrinkage.prox_mb": "MB",
    "solvers.solve_s": "s",
    "solvers.self_s": "s",
    "solvers.data_s": "s",
    "solvers.stop_s": "s",
    "solvers.iterations": "count",
    "bench.select_s": "s",
    "bench.pipeline_calls": "count",
    "bench.tables_built": "count",
    "bench.table_reuse_ratio": "ratio",
    "io.write_s": "s",
    "io.bytes_written": "count",
    "scenes.synth_s": "s",
}

#: counts that must repeat bit for bit between runs of the same code and seed
EXACT_COUNTS = ("patches.groups", "patches.candidates", "shrinkage.blocks",
                "patches.gather_index_mb", "bench.tables_built",
                "bench.pipeline_calls", "solvers.iterations")


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    run: str
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(dotted: str):
    """Import ``a.b`` and return it, or ``a.b.C`` and return the class C (None if gone)."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        owner, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(owner), attr, None)


def _candidates(table) -> int:
    """Candidates scored when matching: window positions per reference, less itself."""
    g, d = table.geometry, table.dims
    ps = g.patch_side
    wx, wy, wt = g.window
    refs = table.references.astype(np.int64)

    def extent(pos, half, last):
        return np.minimum(last, pos + half) - np.maximum(0, pos - half) + 1

    per_ref = (extent(refs[:, 0], wx // 2, d.width - ps)
               * extent(refs[:, 1], wy // 2, d.height - ps)
               * extent(refs[:, 2], (wt - 1) // 2, d.frames - 1))
    return int(per_ref.sum() - len(refs))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(int)
        self.run = "setup"
        self._stack: list[Span] = []
        self._tables: set[str] = set()

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self):
        """Root span of one timed call; its spans share the run id ``op<k>``."""
        self.run = f"op{sum(s.name == 'op' for s in self.spans)}"
        span = self.open("op")
        try:
            yield
        finally:
            self.close(span)
            self.run = "checks"

    def op_runs(self) -> set[str]:
        return {s.run for s in self.spans if s.name == "op"}

    # -- wrappers ---------------------------------------------------------
    def install(self) -> None:
        wrappers = {}
        for owner_name, attr, span_name in WRAPPED:
            owner = _resolve(owner_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            key = (id(original), span_name)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, span_name)
            setattr(owner, attr, wrappers[key])

    def _wrap(self, original, name: str):
        after = getattr(self, "_after_" + name.split(".")[1], None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # counting hooks, named after the wrapped function; they run after the
    # span closed, so their cost is tracing overhead in the caller's self time
    def _after_build_groups(self, args, table) -> None:
        self.counts["patches.groups"] += table.n_groups
        self.counts["patches.candidates"] += _candidates(table)
        key = hashlib.sha256(repr((table.dims, table.geometry)).encode()
                             + np.ascontiguousarray(table.members).tobytes()).hexdigest()
        self._tables.add(key)

    def _after_gather_indices(self, args, idx) -> None:
        mb = idx.nbytes / 1e6
        self.counts["patches.gather_index_mb"] = max(self.counts["patches.gather_index_mb"], mb)

    def _after_prox_low_rank(self, args, out) -> None:
        mat = np.asarray(args[0])
        self.counts["shrinkage.blocks"] += int(np.prod(mat.shape[:-2], dtype=np.int64))
        self.counts["shrinkage.prox_mb"] += (mat.nbytes + np.asarray(out).nbytes) / 1e6

    def _after_solve_simplified(self, args, result) -> None:
        self.counts["solvers.iterations"] += result[1].iterations

    _after_solve_admm = _after_solve_simplified

    def _after_write_dsrv(self, args, result) -> None:
        self.counts["io.bytes_written"] += Path(args[0]).stat().st_size

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def summary(self, runs) -> dict[str, dict]:
        """Calls, total and self seconds per span name, over the given run ids."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for s in self.spans:
            if s.run in runs:
                row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["total_s"] += s.duration
                row["self_s"] += own[s.id]
        return out

    def layer_metrics(self, op_runs) -> dict[str, float]:
        """The per-layer metrics: op spans, plus scene rendering from set-up."""
        ops = self.summary(op_runs)
        setup = self.summary({"setup"})

        def total(*names, rows=ops, key="total_s"):
            return sum(rows.get(n, {}).get(key, 0.0) for n in names)

        def calls(*names):
            return sum(ops.get(n, {}).get("calls", 0) for n in names)

        built = calls("patches.build_groups")
        m = {
            "volumes.init_s": total("volumes.default_initialization"),
            "volumes.init_calls": calls("volumes.default_initialization"),
            "patches.match_s": total("patches.build_groups"),
            "patches.match_calls": built,
            "patches.scatter_s": total("patches.scatter_sum"),
            "shrinkage.prox_s": total("shrinkage.prox_low_rank"),
            "shrinkage.prox_calls": calls("shrinkage.prox_low_rank"),
            "solvers.solve_s": total(*SOLVE_SPANS),
            "solvers.self_s": total(*SOLVE_SPANS, key="self_s"),
            "solvers.data_s": total(*DATA_SPANS),
            "solvers.stop_s": total("solvers.stop_check"),
            "bench.select_s": total("bench.select_lambda"),
            "bench.pipeline_calls": calls("solvers.run_pipeline"),
            "bench.tables_built": built,
            "bench.table_reuse_ratio": len(self._tables) / built if built else 0.0,
            "io.write_s": total("io.write_dsrv"),
            "scenes.synth_s": total("scenes.synth_scene", rows=setup),
        }
        for name in ("patches.groups", "patches.candidates", "patches.gather_index_mb",
                     "shrinkage.blocks", "shrinkage.prox_mb", "solvers.iterations",
                     "io.bytes_written"):
            m[name] = self.counts[name]
        return {name: m[name] for name in LAYER_UNITS}

    @staticmethod
    def wrapper_cost(n: int = 20000) -> float:
        """Seconds one wrapped call adds, timed on an empty function n times."""
        def noop():
            return None
        wrapped = Tracer()._wrap(noop, "probe.noop")
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        return max(0.0, (t1 - t0) - (time.perf_counter() - t1)) / n

    def write(self, path) -> None:
        """One JSON line per span, with its self time."""
        own = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "run": s.run,
                                     "parent": s.parent, "start": s.start, "end": s.end,
                                     "self_s": own[s.id]}) + "\n")
