"""The package's public names and the benchmark tracer's hooks still resolve.

``perfbench/tracing.py`` rebinds ``dsr`` attributes by name and skips any
that are gone, so a deleted or renamed function would silently zero its
per-layer metrics. These tests read the tracer's table and change nothing.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import dsr

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: hooks the tracer still lists although the program no longer has them
#: (the stop test became inline in the solver loop)
EXPECTED_MISSING = {("dsr.solvers", "stop_check")}

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


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_exist(module_name):
    module = importlib.import_module(module_name)
    stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale, f"{module_name}.__all__ lists missing names {stale}"


def test_each_public_name_has_one_home():
    homes = {}
    for module_name in MODULES:
        for name in getattr(importlib.import_module(module_name), "__all__", ()):
            homes.setdefault(name, []).append(module_name)
    shared = {name: mods for name, mods in homes.items() if len(mods) > 1}
    assert not shared, f"names exported by several modules: {shared}"
