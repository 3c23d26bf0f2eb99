"""Every output byte of a fixed set of solves, against a committed record.

``byte_record.json`` holds, per environment, the sha256 of each run's
estimate and of its ``rel_change``, ``primal_residual`` and (for the runs
of a fixed length) ``objective`` traces, plus its iterations, stop reason
and SNR. The
runs are on ``default_scene`` at 32x32x6, seed 0:

- each iterative algorithm, on decimation x3 at 30 dB and on the 10 %
  reconstruction mask of ``sparse_split(depth, 0.2, 0, 0.5)``, at
  (lam, rho) = (0.5, 1) and (12, 0.7), for 25 iterations with tol 0 and
  the objective tracked;
- ``gds3d`` at lam 12 and ``admm3d`` at lam 0.15, rho 0.015, on the
  decimation, run to the default tolerance;
- ``gds3d`` at (12, 0.7) for 2 iterations on a noiseless decimation x3 of
  the scene with the left half of every frame's depth scaled by 1e-321.
  That depth is subnormal, and in the second data step ``rho * feedback``
  underflows to -0.0 at unsampled voxels, which the step's ``out += 0.0``
  turns into the dense formula's +0.0; without that line the estimate's
  bytes differ.

The bytes depend on the numpy and BLAS kernels, not on the BLAS thread or
core count, so they are compared only when the record holds an entry for
this numpy and BLAS. Otherwise each run must give the recorded iterations
and stop reason, and an SNR within ``SNR_TOL_DB`` of the recorded one, and
the test says that bytes were not compared.

A change that moves results on purpose rewrites the entry of the
environment it is run in:

    PYTHONPATH=src python3 tests/test_byte_record.py
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from dsr.bench import sparse_split
from dsr.scenes import default_scene, synth_scene
from dsr.solvers import SolverConfig, run_pipeline
from dsr.volumes import (
    DepthVolume,
    FrameDims,
    SamplingOperator,
    add_noise,
    apply_sampling,
    snr_db,
)

RECORD = Path(__file__).with_name("byte_record.json")

#: SNR agreement required where bytes are not compared: far above the
#: round-off a different summation order leaves after 25 iterations, far
#: below any change of the method.
SNR_TOL_DB = 1e-6


def environment() -> dict:
    """The facts the bytes depend on, read as ``perfbench/worker.py`` reads them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without mode="dicts"
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


ENVIRONMENT = environment()


@dataclass(frozen=True)
class Run:
    algo: str
    sampling: str  # "dec3" | "mask10" | "dec3-subnormal"
    lam: float
    rho: float
    #: with tol 0 and the objective tracked, or None: to the default tolerance
    max_iter: int | None

    @property
    def name(self) -> str:
        stop = "tol" if self.max_iter is None else f"{self.max_iter}it"
        return f"{self.algo}-{self.sampling}-lam{self.lam:g}-rho{self.rho:g}-{stop}"

    def config(self) -> SolverConfig:
        if self.max_iter is None:
            return SolverConfig(algo=self.algo, lam=self.lam, rho=self.rho)
        return SolverConfig(algo=self.algo, lam=self.lam, rho=self.rho,
                            max_iter=self.max_iter, tol=0.0, track_objective=True)


RUNS = [Run(algo, sampling, lam, rho, 25)
        for algo in ("gds3d", "gds2d", "ds3d", "admm3d")
        for sampling in ("dec3", "mask10")
        for lam, rho in ((0.5, 1.0), (12.0, 0.7))]
RUNS += [Run("gds3d", "dec3", 12.0, 1.0, None), Run("admm3d", "dec3", 0.15, 0.015, None),
         Run("gds3d", "dec3-subnormal", 12.0, 0.7, 2)]


def scene():
    """(depth, guide, {sampling: measurements}) of the record's runs; the
    SNRs of the subnormal run are taken against ``depth`` too."""
    dims = FrameDims(32, 32, 6)
    depth, guide = synth_scene(default_scene(dims, seed=0))
    dec3 = SamplingOperator.decimation(dims, 3)
    mask10, _ = sparse_split(depth, 0.2, seed=0, split=0.5)
    subnormal = depth.values.copy()
    subnormal.reshape(dims.frames, dims.height, dims.width)[:, :, :dims.width // 2] *= 1e-321
    return depth, guide, {"dec3": add_noise(apply_sampling(dec3, depth), 30.0, 0),
                          "mask10": mask10,
                          "dec3-subnormal": apply_sampling(dec3, DepthVolume(dims, subnormal))}


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def measure(run: Run, depth, guide, psi) -> dict:
    est, rep = run_pipeline(psi[run.sampling], guide, run.config())
    entry = {"iterations": rep.iterations, "stop_reason": rep.stop_reason,
             "snr_db": snr_db(depth.values, est.values), "estimate": _sha(est.values),
             "rel_change": _sha([e.rel_change for e in rep.trace])}
    if run.algo == "admm3d":
        entry["primal_residual"] = _sha([e.primal_residual for e in rep.trace])
    if run.max_iter is not None:
        entry["objective"] = _sha([e.objective for e in rep.trace])
    return entry


@pytest.fixture(scope="module")
def inputs():
    return scene()


@pytest.fixture(scope="module")
def record():
    entries = json.loads(RECORD.read_text())
    same = [e["runs"] for e in entries if e["environment"] == ENVIRONMENT]
    return (same[0] if same else None), entries[0]["runs"]


def test_record_covers_every_run():
    for entry in json.loads(RECORD.read_text()):
        assert sorted(entry["runs"]) == sorted(run.name for run in RUNS)


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.name)
def test_run_matches_record(run, inputs, record, capsys):
    got = measure(run, *inputs)
    same_env, any_env = record
    if same_env is not None:
        assert got == same_env[run.name]
        return
    want = any_env[run.name]
    with capsys.disabled():
        print(f"\n{run.name}: no record for this environment ({ENVIRONMENT}); "
              f"bytes not compared, iterations and SNR within {SNR_TOL_DB} dB checked")
    assert (got["iterations"], got["stop_reason"]) == (want["iterations"], want["stop_reason"])
    assert abs(got["snr_db"] - want["snr_db"]) <= SNR_TOL_DB


def write_record() -> None:
    """Replace the entry of this environment with the runs of this tree."""
    inputs = scene()
    runs = {run.name: measure(run, *inputs) for run in RUNS}
    entries = json.loads(RECORD.read_text()) if RECORD.exists() else []
    entries = [e for e in entries if e["environment"] != ENVIRONMENT]
    entries.append({"environment": ENVIRONMENT, "runs": runs})
    RECORD.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(runs)} runs for {ENVIRONMENT} to {RECORD}")


if __name__ == "__main__":
    write_record()
