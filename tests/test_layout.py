"""The package's public names and the benchmark tracer's hooks still resolve,
and no module translates exceptions that its input checks should prevent.

``perfbench/tracing.py`` rebinds ``dsr`` attributes by name and skips any
that are gone, so a deleted or renamed function would silently zero its
per-layer metrics. These tests read the tracer's table and change nothing.
"""

import ast
import importlib
import importlib.util
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dsr
import dsr.patches
import dsr.solvers
from dsr.patches import PatchGeometry, PatchGroupTable, build_groups
from dsr.solvers import SolverConfig
from dsr.volumes import (DepthVolume, FrameDims, IntensityVolume, SamplingOperator,
                         apply_sampling)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SOURCES = sorted(Path(dsr.__file__).parent.glob("*.py"))

#: hooks the tracer still lists although the program no longer has them
#: (the stop test became inline in the solver loop, and every solver's data
#: step is ``admm_phi_step``)
EXPECTED_MISSING = {("dsr.solvers", "stop_check"), ("dsr.solvers", "simplified_phi_step")}

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(dsr.__path__, "dsr.")
                 if name != "dsr.__main__")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_tracer_hooks_resolve(tracing):
    missing = set()
    for owner_name, attr, _ in tracing.WRAPPED:
        owner = tracing._resolve(owner_name)
        if owner is None or not hasattr(owner, attr):
            missing.add((owner_name, attr))
    assert missing == EXPECTED_MISSING


@pytest.mark.parametrize("algo", ["gds3d", "admm3d"])
def test_solver_loop_calls_tracer_hooks_every_iteration(monkeypatch, algo):
    """The loop reaches the prox, the scatter and the gather index through
    the attributes the tracer rebinds, and the solve makes its reference
    counts once through ``dsr.patches.compute_counts``, so an inlined one
    would fail here rather than zero its per-layer metric."""
    rng = np.random.default_rng(0)
    dims = FrameDims(12, 12, 3)
    vol = DepthVolume(dims, rng.uniform(4.0, 8.0, dims.total_voxels))
    guide = IntensityVolume(dims, rng.uniform(0.0, 1.0, dims.total_voxels))
    psi = apply_sampling(SamplingOperator.decimation(dims, 2), vol)
    geom = PatchGeometry(patch_side=3, stride=2, window=(5, 5, 3), group_size=4)
    table = build_groups(guide, geom)
    monkeypatch.setattr(dsr.patches, "CHUNK_GROUPS", 50)
    n_chunks = math.ceil(table.n_groups / 50)

    log = []

    def logged(name, original):
        def wrapper(*args, **kwargs):
            log.append(name)
            return original(*args, **kwargs)
        return wrapper

    for owner, attr in ((dsr.solvers, "prox_low_rank"), (dsr.solvers, "scatter_sum"),
                        (PatchGroupTable, "gather_indices"), (dsr.solvers, "admm_phi_step"),
                        (dsr.patches, "compute_counts")):
        monkeypatch.setattr(owner, attr, logged(attr, getattr(owner, attr)))
    cfg = SolverConfig(algo=algo, lam=0.5, max_iter=2, tol=0.0, geometry=geom)
    _, report = dsr.solvers._iterate(psi, table, cfg, None)
    assert report.iterations == 2
    assert log.count("compute_counts") == 1

    # split the calls at each volume update; admm3d updates its blocks after
    # it, the simplified solvers before it
    segments = [[]]
    for name in log:
        if name.endswith("phi_step"):
            segments.append([])
        else:
            segments[-1].append(name)
    if algo == "admm3d":
        # the initial feedback: the extracted blocks, added back unshrunk
        assert segments[0].count("scatter_sum") == n_chunks
        assert "prox_low_rank" not in segments[0]
    passes = segments[1:] if algo == "admm3d" else segments[:-1]
    assert len(passes) == report.iterations
    for calls in passes:
        assert calls.count("prox_low_rank") == n_chunks
        assert calls.count("scatter_sum") == n_chunks
        assert calls.count("gather_indices") >= n_chunks


def test_solvers_call_scatter_sum_from_one_place():
    """Every block pass of the solvers runs through one chunk loop: one
    call site in ``dsr/solvers.py`` reaches ``scatter_sum``."""
    tree = ast.parse(Path(dsr.solvers.__file__).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "scatter_sum"]
    assert len(lines) == 1, f"scatter_sum is called on lines {lines}"


def _blas_vector_sums(path):
    """Lines of a source file that sum a whole vector by BLAS: an ``@``, a
    ``dot`` or ``vdot`` call, or ``np.linalg.norm`` without ``axis=``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name.split(".")[-1] in ("dot", "vdot") or (
                    name == "np.linalg.norm"
                    and "axis" not in [k.arg for k in node.keywords]):
                found.append(f"{node.lineno}: {name}")
    return found


@pytest.mark.parametrize("name", ["volumes.py", "solvers.py"])
def test_norms_and_snr_sum_without_blas(name):
    """Every norm, SNR and misfit of the volumes and the solvers goes
    through ``volumes._sum_squares``, whose order does not follow the BLAS
    thread count, so a BLAS vector sum cannot come back unnoticed."""
    assert _blas_vector_sums(Path(dsr.__file__).parent / name) == []


def test_blas_sum_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("a = x @ x\nb = np.dot(x, x)\nc = x.vdot(x)\n"
                    "d = np.linalg.norm(x)\ne = np.linalg.norm(x, axis=-1)\n")
    assert _blas_vector_sums(path) == ["1: @", "2: np.dot", "3: x.vdot", "4: np.linalg.norm"]


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_exist(module_name):
    module = importlib.import_module(module_name)
    stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale, f"{module_name}.__all__ lists missing names {stale}"


def test_every_exported_name_is_used_by_the_package():
    """Each name in a module's ``__all__`` is loaded by code in ``src/dsr``
    (a name, an attribute or a ``from`` import), besides ``__init__.py``,
    which only re-exports: a public operator that no pipeline path runs is
    deleted, not kept for the tests. Its own definition or a docstring does
    not count."""
    used = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [f"{module_name}.{name}" for module_name in MODULES
              for name in getattr(importlib.import_module(module_name), "__all__", ())
              if name not in used]
    assert not unused, f"exported but used by no code in the package: {unused}"


def test_each_public_name_has_one_home():
    homes = {}
    for module_name in MODULES:
        for name in getattr(importlib.import_module(module_name), "__all__", ()):
            homes.setdefault(name, []).append(module_name)
    shared = {name: mods for name, mods in homes.items() if len(mods) > 1}
    assert not shared, f"names exported by several modules: {shared}"


def _caught(path):
    """The exception names of each ``except`` clause in a source file."""
    clauses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            clauses.append(tuple(ast.unparse(t) for t in types))
    return clauses


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_type_or_overflow_error_is_translated(path):
    """Settings are checked by the readers in ``dsr.errors`` before use, so
    no module catches a TypeError or an OverflowError to turn it into a
    DataError after the fact."""
    caught = {name for clause in _caught(path) for name in clause}
    assert not caught & {"TypeError", "OverflowError"}


def test_bench_catches_only_failed_cells():
    path = Path(dsr.__file__).parent / "bench.py"
    assert set(_caught(path)) == {("DataError", "NumericError")}


def test_import_starts_no_pool_machinery():
    """``import dsr`` in a fresh interpreter loads neither
    ``concurrent.futures`` nor ``multiprocessing``: matching runs on plain
    threads, and the CLI's start-up time does not pay for a pool module."""
    code = ("import sys, dsr, dsr.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    path = [str(Path(dsr.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"
