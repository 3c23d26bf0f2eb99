"""Outputs do not follow the BLAS thread count.

OpenBLAS fixes its thread count when it loads, so each setting runs in a
fresh interpreter with ``OPENBLAS_NUM_THREADS`` (and ``OMP_NUM_THREADS``)
set. With one usable core OpenBLAS runs one thread whatever it is asked,
so these tests compare nothing there and are skipped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dsr

SRC = str(Path(dsr.__file__).parents[1])

pytestmark = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="one usable core: OpenBLAS runs one thread under any setting")


def _run(threads: str, args: list, cwd=None) -> str:
    """Stdout of ``python args`` with ``threads`` BLAS threads; a failure raises."""
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, check=True).stdout


def test_norm_bytes_do_not_follow_the_blas_thread_count():
    """On a 614,400-voxel vector the BLAS dot of ``np.linalg.norm`` gives
    different bytes with one OpenBLAS thread and with two; ``_norm`` must
    not."""
    code = ("import numpy as np; from dsr.volumes import _norm; "
            "print(repr(_norm(np.random.default_rng(0).standard_normal(614400) * 3)))")
    assert len({_run(threads, ["-c", code]) for threads in ("1", "2")}) == 1


BENCH_CONFIG = {
    "scene": {"w": 64, "h": 64, "t": 16, "seed": 0},
    "grid": {"factors": [2], "input_snr_db": 30.0, "algorithms": ["linear", "gds3d"],
             "lambdas": [12.0], "seeds": [0]},
    "solver": {"max_iter": 3},
}

COMMANDS = [
    ["simulate", "--out", "scene", "--w", "64", "--h", "64", "--t", "16", "--seed", "0"],
    ["degrade", "--depth", "scene/depth.dsrv", "--factor", "2", "--snr", "30", "--seed", "0",
     "--out", "meas"],
    ["solve", "--algo", "linear", "--meas", "meas", "--out", "est"],
    ["eval", "--ref", "scene/depth.dsrv", "--est", "est/est.dsrv",
     "--per-frame", "eval/frames.csv"],
    ["bench", "--config", "bench.json", "--out", "bench"],
]


#: the float64 values behind those files, which the files round: ``.dsrv``
#: holds float32, and the CSVs and ``dsr eval`` print 2 or 4 decimals
LIBRARY = """
import hashlib, json
from dsr.bench import bench_from_config
from dsr.scenes import default_scene, synth_scene
from dsr.solvers import default_lambda_grid
from dsr.volumes import (FrameDims, SamplingOperator, add_noise, apply_sampling,
                         linear_interpolate, snr_db)
dims = FrameDims(64, 64, 16)
depth, _ = synth_scene(default_scene(dims, seed=0))
psi = add_noise(apply_sampling(SamplingOperator.decimation(dims, 2), depth), 30.0, 0)
print(hashlib.sha256(psi.values.tobytes()).hexdigest())
print(repr(snr_db(depth.values, linear_interpolate(psi).values)))
print(default_lambda_grid(psi, 30.0))
print(bench_from_config(json.load(open("bench.json")), "library-bench"))
"""


def _outputs(root: Path, threads: str) -> dict:
    """Every command's stdout and every file it wrote, by name, run in ``root``."""
    root.mkdir()
    (root / "bench.json").write_text(json.dumps(BENCH_CONFIG))
    got = {" ".join(args): _run(threads, ["-m", "dsr", *args], cwd=root) for args in COMMANDS}
    got["library"] = _run(threads, ["-c", LIBRARY], cwd=root)
    got.update({str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()})
    return got


def test_commands_write_the_same_bytes_under_1_and_2_blas_threads(tmp_path):
    """``degrade`` at 30 dB x2 on 64x64x16 scales its noise by the norm of
    16,384 measurements, and ``eval`` and the bench cells take SNRs over
    65,536 voxels. A BLAS dot sums these in an order that follows the
    thread count, so the measurements, SNRs, default weights and bench
    summary differed in their last bits with one thread and with two."""
    one, two = (_outputs(tmp_path / threads, threads) for threads in ("1", "2"))
    assert sorted(one) == sorted(two)
    assert "bench/table.csv" in one and "meas/values.dsrv" in one
    assert [name for name in one if one[name] != two[name]] == []
