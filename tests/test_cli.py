import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dsr
from dsr.cli import main
from dsr.errors import NumericError
from dsr.io import (read_dsrv, read_json, read_measurements, write_dsrv,
                    write_measurements)
from dsr.scenes import SceneSpec
from dsr.volumes import DepthVolume, FrameDims, SamplingOperator, apply_sampling


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scene plus factor-2 measurements shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["simulate", "--out", str(root / "scene"),
                 "--w", "24", "--h", "24", "--t", "4", "--seed", "0"]) == 0
    assert main(["degrade", "--depth", str(root / "scene" / "depth.dsrv"),
                 "--factor", "2", "--snr", "30", "--seed", "0",
                 "--out", str(root / "meas")]) == 0
    return root


SOLVE_GEOM = ["--patch", "3", "--stride", "2", "--window", "7x7x3",
              "--group-size", "6", "--max-iter", "6"]


class TestSimulate:
    def test_outputs(self, workspace):
        scene = workspace / "scene"
        assert (scene / "depth.dsrv").exists()
        assert (scene / "guide.dsrv").exists()
        depth = read_dsrv(scene / "depth.dsrv")
        assert depth.dims == FrameDims(24, 24, 4)
        meta = read_json(scene / "scene.json")
        assert meta["seed"] == 0
        assert meta["dims"] == {"width": 24, "height": 24, "frames": 4}
        # the scene look is fixed, so only the size, seed and objects are echoed
        assert set(meta) == {"dims", "seed", "objects"}

    def test_defaults_come_from_scene_spec(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path)]) == 0
        meta = read_json(tmp_path / "scene.json")
        dims = SceneSpec().dims
        assert meta["dims"] == {"width": dims.width, "height": dims.height,
                                "frames": dims.frames}
        assert meta["seed"] == SceneSpec().seed
        assert read_dsrv(tmp_path / "depth.dsrv").dims == dims

    def test_objects_flag(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path),
                     "--w", "20", "--h", "20", "--t", "3",
                     "--objects", "2,2,5,5,1.5,0.3,1,0"]) == 0
        meta = read_json(tmp_path / "scene.json")
        assert len(meta["objects"]) == 1
        assert meta["objects"][0]["depth"] == 1.5

    @pytest.mark.parametrize("objects", ["2,2,5,5,1,0.3,nan,0", "2,2,5,5,inf,0.3,1,0",
                                         "2,2,5,5,1,0.3,1", "2,nan,5,5,1,0.3,1,0",
                                         "2,2,five,5,1,0.3,1,0",
                                         "2.7,2,5.9,5,1,0.3,1,0"])
    def test_bad_objects_exit_2(self, tmp_path, capsys, objects):
        out = tmp_path / "s"
        assert main(["simulate", "--out", str(out), "--w", "12", "--h", "12",
                     "--t", "2", "--objects", objects]) == 2
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_corners_accepted(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--w", "12", "--h", "12",
                     "--t", "2", "--objects", "2.0,2,5.0,5,1,0.3,1,0"]) == 0
        obj = read_json(tmp_path / "scene.json")["objects"][0]
        assert (obj["x0"], obj["width"]) == (2, 5)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["simulate", "--out", str(out), "--w", "12", "--h", "12",
                     "--t", "2", "--seed", "-1"]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        for d in ("a", "b"):
            assert main(["simulate", "--out", str(tmp_path / d),
                         "--w", "16", "--h", "16", "--t", "2"]) == 0
        assert (tmp_path / "a" / "depth.dsrv").read_bytes() == \
               (tmp_path / "b" / "depth.dsrv").read_bytes()


class TestDegrade:
    def test_measurement_metadata(self, workspace):
        psi, info = read_measurements(workspace / "meas")
        assert info["kind"] == "decimation"
        assert info["factor"] == 2
        assert info["snr_db"] == 30.0
        assert info["seed"] == 0
        assert psi.operator.n_measurements == 12 * 12 * 4

    def test_noise_free_records_inf_string(self, workspace, tmp_path):
        assert main(["degrade", "--depth", str(workspace / "scene" / "depth.dsrv"),
                     "--factor", "3", "--out", str(tmp_path / "m")]) == 0
        _, info = read_measurements(tmp_path / "m")
        assert info["snr_db"] == "inf"

    def test_missing_input_exits_2(self, tmp_path):
        code = main(["degrade", "--depth", str(tmp_path / "absent.dsrv"),
                     "--factor", "2", "--out", str(tmp_path / "m")])
        assert code == 2

    @pytest.mark.parametrize("snr", [["--snr", "30"], []])
    def test_negative_seed_exits_2(self, workspace, tmp_path, capsys, snr):
        """Also without --snr, where no noise is drawn."""
        assert main(["degrade", "--depth", str(workspace / "scene" / "depth.dsrv"),
                     "--factor", "2", *snr, "--seed", "-3",
                     "--out", str(tmp_path / "m")]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


class TestSparse:
    def test_writes_both_roles(self, workspace, tmp_path):
        assert main(["sparse", "--depth", str(workspace / "scene" / "depth.dsrv"),
                     "--rate", "0.1", "--seed", "0",
                     "--out", str(tmp_path / "sp")]) == 0
        rec, rec_info = read_measurements(tmp_path / "sp")
        val, val_info = read_measurements(tmp_path / "sp" / "val")
        assert rec_info["role"] == "reconstruction"
        assert val_info["role"] == "validation"
        n = rec.operator.n_measurements + val.operator.n_measurements
        assert n == int(0.1 * 24 * 24 * 4)
        assert not np.any(rec.operator.mask & val.operator.mask)

    def test_negative_seed_exits_2(self, workspace, tmp_path, capsys):
        assert main(["sparse", "--depth", str(workspace / "scene" / "depth.dsrv"),
                     "--rate", "0.1", "--seed", "-1",
                     "--out", str(tmp_path / "sp")]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "sp").exists()


class TestSolve:
    def test_linear(self, workspace, tmp_path):
        out = tmp_path / "lin"
        assert main(["solve", "--algo", "linear", "--meas",
                     str(workspace / "meas"), "--out", str(out)]) == 0
        est = read_dsrv(out / "est.dsrv")
        assert est.dims == FrameDims(24, 24, 4)
        run = read_json(out / "run.json")
        assert run["algo"] == "linear"
        assert run["iterations"] == 0

    def test_guided_single_lambda(self, workspace, tmp_path):
        out = tmp_path / "g"
        assert main(["solve", "--algo", "gds3d", "--meas", str(workspace / "meas"),
                     "--guide", str(workspace / "scene" / "guide.dsrv"),
                     "--lambda", "2.0", *SOLVE_GEOM, "--out", str(out)]) == 0
        run = read_json(out / "run.json")
        assert run["lambda"] == 2.0
        assert run["lambda_candidates"] == [2.0]
        assert run["stop_reason"] in ("tolerance", "max_iter")
        assert run["iterations"] >= 2
        assert "seed" not in run  # the solve path draws no random numbers

    def test_all_zero_depth_exits_0(self, workspace, tmp_path):
        write_dsrv(tmp_path / "zero.dsrv",
                   DepthVolume(FrameDims(24, 24, 4), np.zeros(24 * 24 * 4)))
        assert main(["degrade", "--depth", str(tmp_path / "zero.dsrv"),
                     "--factor", "2", "--out", str(tmp_path / "meas")]) == 0
        out = tmp_path / "solved"
        assert main(["solve", "--algo", "gds3d", "--meas", str(tmp_path / "meas"),
                     "--guide", str(workspace / "scene" / "guide.dsrv"),
                     "--lambda", "1", *SOLVE_GEOM, "--out", str(out)]) == 0
        assert not np.any(read_dsrv(out / "est.dsrv").values)
        run = read_json(out / "run.json")
        assert (run["stop_reason"], run["iterations"]) == ("tolerance", 2)

    def test_lambda_selection_with_ref(self, workspace, tmp_path):
        out = tmp_path / "sel"
        assert main(["solve", "--algo", "gds3d", "--meas", str(workspace / "meas"),
                     "--guide", str(workspace / "scene" / "guide.dsrv"),
                     "--lambda", "0.5,2.0", *SOLVE_GEOM,
                     "--ref", str(workspace / "scene" / "depth.dsrv"),
                     "--out", str(out)]) == 0
        run = read_json(out / "run.json")
        assert run["lambda"] in (0.5, 2.0)
        assert run["lambda_candidates"] == [0.5, 2.0]

    @pytest.mark.parametrize("extra", [
        ["--algo", "linear"],
        ["--algo", "gds3d", "--lambda", "0.5,2.0", *SOLVE_GEOM]])
    def test_run_json_keys(self, workspace, tmp_path, extra):
        out = tmp_path / "keys"
        assert main(["solve", *extra, "--meas", str(workspace / "meas"),
                     "--guide", str(workspace / "scene" / "guide.dsrv"),
                     "--ref", str(workspace / "scene" / "depth.dsrv"),
                     "--out", str(out)]) == 0
        assert set(read_json(out / "run.json")) == {
            "algo", "lambda", "lambda_candidates", "rho", "nu", "patch", "window",
            "stride", "group_size", "max_iter", "tol", "meas", "guide",
            "iterations", "stop_reason", "final_rel_change", "workers", "wait_s"}

    def test_reruns_are_byte_identical(self, workspace, tmp_path):
        args = ["solve", "--algo", "gds3d", "--meas", str(workspace / "meas"),
                "--guide", str(workspace / "scene" / "guide.dsrv"),
                "--lambda", "2.0", *SOLVE_GEOM]
        assert main([*args, "--out", str(tmp_path / "r1")]) == 0
        assert main([*args, "--out", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1" / "est.dsrv").read_bytes() == \
               (tmp_path / "r2" / "est.dsrv").read_bytes()
        # everything but the parent's time spent waiting for its helpers
        runs = [read_json(tmp_path / r / "run.json") for r in ("r1", "r2")]
        assert [run.pop("wait_s") >= 0 for run in runs] == [True, True]
        assert runs[0] == runs[1]

    def test_missing_lambda_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--algo", "gds3d", "--meas", str(workspace / "meas"),
                  "--guide", str(workspace / "scene" / "guide.dsrv"),
                  "--out", "/tmp/x"])
        assert err.value.code == 1

    @pytest.mark.parametrize("lam", ["1,2,3", "-5", "2.0"])
    def test_lambda_with_linear_is_usage_error(self, workspace, tmp_path, capsys, lam):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["solve", "--algo", "linear", "--meas", str(workspace / "meas"),
                  "--lambda", lam, "--ref", str(workspace / "scene" / "depth.dsrv"),
                  "--out", str(out)])
        assert err.value.code == 1
        assert "--lambda does not apply to --algo linear" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_guide_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--algo", "admm3d", "--meas", str(workspace / "meas"),
                  "--lambda", "1.0", "--out", "/tmp/x"])
        assert err.value.code == 1

    def test_multi_lambda_without_ref_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--algo", "gds3d", "--meas", str(workspace / "meas"),
                  "--guide", str(workspace / "scene" / "guide.dsrv"),
                  "--lambda", "1.0,2.0", "--out", "/tmp/x"])
        assert err.value.code == 1

    @pytest.mark.parametrize("text", [
        "{broken",
        '{"kind": "mask", "width": "wide", "height": 4, "frames": 2}',
        '{"kind": "decimation", "width": 4, "height": 4, "frames": 2}',
        '[{"kind": "decimation"}]'],
        ids=["broken_json", "non_numeric_width", "decimation_without_factor",
             "list_not_object"])
    def test_corrupt_measurements_exit_2(self, tmp_path, capsys, text):
        meas = tmp_path / "meas"
        meas.mkdir()
        (meas / "meas.json").write_text(text)
        code = main(["solve", "--algo", "linear", "--meas", str(meas),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_helper_that_dies_exits_3(self, workspace, tmp_path, monkeypatch):
        """A block-pass helper that ends mid-pass is a numeric failure: exit
        3, no output, and no child process left behind."""
        monkeypatch.setattr(dsr.patches, "_worker_count", lambda: 2)
        parent, prox = os.getpid(), dsr.solvers.prox_low_rank

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return prox(*args, **kwargs)

        monkeypatch.setattr(dsr.solvers, "prox_low_rank", dying)
        out = tmp_path / "out"
        code = main(["solve", "--algo", "gds3d", "--meas", str(workspace / "meas"),
                     "--guide", str(workspace / "scene" / "guide.dsrv"),
                     "--lambda", "2.0", *SOLVE_GEOM, "--out", str(out)])
        assert code == 3
        assert not (out / "run.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_numeric_failure_exit_3(self, workspace, tmp_path, monkeypatch):
        def explode(*a, **kw):
            raise NumericError("synthetic blowup")

        # every solve of ``dsr solve`` goes through select_lambda's run_pipeline
        monkeypatch.setattr(dsr.solvers, "run_pipeline", explode)
        code = main(["solve", "--algo", "linear", "--meas",
                     str(workspace / "meas"), "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("flag,value", [("--tol", "nan"), ("--tol", "inf"),
                                            ("--rho", "inf"), ("--lambda", "inf")])
    def test_non_finite_setting_exits_2(self, workspace, tmp_path, capsys,
                                        flag, value):
        settings = {"--lambda": "2.0", "--rho": "1.0", "--tol": "1e-4", flag: value}
        out = tmp_path / "out"
        code = main(["solve", "--algo", "gds3d", "--meas", str(workspace / "meas"),
                     "--guide", str(workspace / "scene" / "guide.dsrv"),
                     *SOLVE_GEOM, *[a for kv in settings.items() for a in kv],
                     "--out", str(out)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "run.json").exists()

    def test_non_finite_nu_exits_2_for_linear(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--algo", "linear", "--meas", str(workspace / "meas"),
                     "--nu", "nan", "--out", str(out)])
        assert code == 2
        assert "nu must be finite" in capsys.readouterr().err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--rho", "-1", "rho must be positive"), ("--nu", "3", "nu must lie in [0, 1]"),
        ("--tol", "-1", "tol must be nonnegative")])
    def test_out_of_range_setting_exits_2_for_linear(self, workspace, tmp_path, capsys,
                                                      flag, value, message):
        out = tmp_path / "out"
        code = main(["solve", "--algo", "linear", "--meas", str(workspace / "meas"),
                     flag, value, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("algo", ["linear", "ds3d"])
    def test_empty_mask_frame_exits_2(self, workspace, tmp_path, capsys, algo):
        depth = read_dsrv(workspace / "scene" / "depth.dsrv")
        mask = np.random.default_rng(0).uniform(size=depth.dims.total_voxels) < 0.2
        n = depth.dims.width * depth.dims.height
        mask[n:2 * n] = False  # frame 1 has no samples
        op = SamplingOperator.from_mask(depth.dims, mask)
        write_measurements(tmp_path / "meas", apply_sampling(op, depth))
        weight = [] if algo == "linear" else ["--lambda", "2.0"]
        code = main(["solve", "--algo", algo, "--meas", str(tmp_path / "meas"),
                     *weight, *SOLVE_GEOM, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "frame 1 has no measurements to fill from" in capsys.readouterr().err

    @staticmethod
    def _write_pgm_guide(workspace, directory):
        """The scene's guide as 16-bit PGM frames listed in directory/frames.txt."""
        frames = read_dsrv(workspace / "scene" / "guide.dsrv").frames()
        t, h, w = frames.shape
        header = f"P5\n{w} {h}\n65535\n".encode()
        names = [f"g_t{k:04d}.pgm" for k in range(t)]
        directory.mkdir(parents=True, exist_ok=True)
        for name, frame in zip(names, np.rint(frames * 65535).astype(">u2")):
            (directory / name).write_bytes(header + frame.tobytes())
        manifest = directory / "frames.txt"
        manifest.write_text("\n".join(names) + "\n")
        return manifest

    def test_pgm_manifest_guide(self, workspace, tmp_path):
        manifest = self._write_pgm_guide(workspace, tmp_path)
        out = tmp_path / "solved"
        assert main(["solve", "--algo", "gds3d", "--meas", str(workspace / "meas"),
                     "--guide", str(manifest), "--lambda", "2.0", *SOLVE_GEOM,
                     "--max-iter", "3", "--out", str(out)]) == 0
        assert (out / "est.dsrv").exists()

    def test_relative_pgm_manifest_guide(self, workspace, tmp_path, monkeypatch):
        # frame paths resolve against the manifest's own directory, once
        self._write_pgm_guide(workspace, tmp_path / "sub")
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--algo", "gds3d", "--meas", str(workspace / "meas"),
                     "--guide", "sub/frames.txt", "--lambda", "2.0", *SOLVE_GEOM,
                     "--max-iter", "3", "--out", "solved"]) == 0
        assert (tmp_path / "solved" / "est.dsrv").exists()


class TestEval:
    def test_prints_snr(self, workspace, tmp_path, capsys):
        out = tmp_path / "lin"
        main(["solve", "--algo", "linear", "--meas", str(workspace / "meas"),
              "--out", str(out)])
        capsys.readouterr()
        assert main(["eval", "--ref", str(workspace / "scene" / "depth.dsrv"),
                     "--est", str(out / "est.dsrv")]) == 0
        printed = capsys.readouterr().out.strip()
        float(printed)  # bare number with four decimals
        assert len(printed.split(".")[1]) == 4

    def test_per_frame_csv(self, workspace, tmp_path):
        out = tmp_path / "lin"
        main(["solve", "--algo", "linear", "--meas", str(workspace / "meas"),
              "--out", str(out)])
        csv = tmp_path / "curve.csv"
        assert main(["eval", "--ref", str(workspace / "scene" / "depth.dsrv"),
                     "--est", str(out / "est.dsrv"),
                     "--per-frame", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "frame,snr_db"
        assert len(lines) == 1 + 4
        assert lines[1].startswith("0,")

    def test_dims_mismatch_exit_2(self, workspace, tmp_path):
        main(["simulate", "--out", str(tmp_path / "other"),
              "--w", "16", "--h", "16", "--t", "2"])
        code = main(["eval", "--ref", str(workspace / "scene" / "depth.dsrv"),
                     "--est", str(tmp_path / "other" / "depth.dsrv")])
        assert code == 2


class TestBenchCommand:
    def test_runs_config(self, workspace, tmp_path):
        config = tmp_path / "bench.json"
        config.write_text(
            '{"scene": {"w": 20, "h": 20, "t": 3},\n'
            ' "grid": {"factors": [2], "algorithms": ["linear"]}}\n')
        assert main(["bench", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "table.csv").exists()

    @pytest.mark.parametrize("body", [
        '{"scene": {"w": 12, "h": 12, "t": 2, "seed": -1}}',
        '{"scene": {"w": 12, "h": 12, "t": 2, "objects": '
        '[["2", "2", "5", "5", "1", "0.3", "1", "0"]]}}',
        '{"scene": {"w": 12, "h": 12, "t": 2}, "grid": {"input_snr_db": "30"}}',
        # each section and the config itself are objects with known keys
        '{"solver": [1, 2]}', '{"solver": "x"}', '{"grid": null}', '{"scene": []}',
        '{"solvers": {"max_iter": 2}}', '[]',
        # list settings are arrays, not strings
        '{"grid": {"algorithms": "gds3d"}}', '{"solver": {"window": "551"}}',
        '{"scene": {"objects": "1,2,3"}}',
        # numbers out of range
        pytest.param('{"solver": {"rho": 1%s}}' % ("0" * 400), id="rho-400-digits"),
        pytest.param('{"grid": {"lambdas": [1%s]}}' % ("0" * 400), id="lambdas-400-digits"),
        pytest.param('{"grid": {"input_snr_db": 1%s}}' % ("0" * 400), id="snr-400-digits"),
        pytest.param('{"scene": {"w": 12, "h": 12, "t": 2}, "grid": {"factors": [1%s]}}'
                     % ("0" * 400), id="factors-400-digits"),
        '{"scene": {"w": 12, "h": 12, "t": 2, "seed": 9223372036854775808}}',
        pytest.param('{"solver": {"rho": 1%s}}' % ("0" * 5000), id="rho-5000-digits"),
        '{"solver": {"window": [11, 11]}}'])
    def test_invalid_config_exits_2_without_output(self, tmp_path, capsys, body):
        config = tmp_path / "bench.json"
        config.write_text(body)
        assert main(["bench", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dsr: data error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 1

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--out", "/tmp/x", "--bogus", "1"])
        assert err.value.code == 1

    def test_bad_window_format(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--algo", "linear", "--meas", "/tmp/m",
                  "--window", "11x11", "--out", "/tmp/x"])
        assert err.value.code == 1


# The `[project.scripts]` target; pip's launcher runs it as `sys.exit(main())`.
ENTRY_POINT = "dsr.cli:main"
_MODULE, _FUNC = ENTRY_POINT.split(":")
ENTRY_POINT_CMD = [sys.executable, "-c",
                   f"import sys; from {_MODULE} import {_FUNC}; sys.exit({_FUNC}())"]
MODULE_CMD = [sys.executable, "-m", "dsr"]
LAUNCHER = shutil.which("dsr")
needs_launcher = pytest.mark.skipif(LAUNCHER is None,
                                    reason="dsr console script not on PATH")


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    """Run `cmd` with the directory holding this process's `dsr` first on
    PYTHONPATH, so the child runs the same code from a source tree or an install."""
    path = [str(Path(dsr.__file__).parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


class TestScripts:
    def test_sparse_demo_prints_one_row_per_rate(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "sparse_demo.py"
        proc = _run([sys.executable, str(script), "--size", "24", "24", "4",
                     "--rates", "0.1"])
        assert proc.returncode == 0, proc.stderr
        header, *rows = proc.stdout.splitlines()
        assert header == "rate,n_rec,n_val,fill_snr_db,guided_snr_db,gain_db"
        assert len(rows) == 1
        rate, n_rec, n_val, *snrs = rows[0].split(",")
        assert rate == "0.1"
        assert int(n_rec) + int(n_val) == int(0.1 * 24 * 24 * 4)
        assert np.all(np.isfinite([float(v) for v in snrs]))

    @pytest.mark.parametrize("algo", ["gds3d", "admm3d"])
    def test_memprobe_reports_every_stage(self, algo):
        script = Path(__file__).resolve().parents[1] / "scripts" / "memprobe.py"
        proc = _run([sys.executable, str(script), "--size", "12", "12", "3",
                     "--algo", algo, "--iterations", "3"])
        assert proc.returncode == 0, proc.stderr
        _, header, *stages, summary = proc.stdout.splitlines()
        assert header.split() == ["stage", "maxrss_mb", "child_mb", "minflt"]
        assert [line.split()[0] for line in stages] == ["init", "match", "solve"]
        assert all(float(line.split()[1]) > 0 and float(line.split()[2]) >= 0
                   and int(line.split()[3]) >= 0 for line in stages)
        assert re.search(r"  table 4\.0 bytes per member, traced peak [1-9]\d* bytes "
                         r"\(\d+\.\d\d volumes\)$", stages[1])
        # 12x12x3 makes 48 groups, one chunk, so the solve runs on one process
        assert stages[2].endswith("  workers 1")
        assert summary.startswith("solve: 3 iterations, ")
        assert re.search(r", traced peak \d+\.\d\d volumes \(\d+\.\d MB, "
                         r"[1-9]\d*\.\d\d volumes of them shared", summary)

    def test_abtime_compares_a_tree_with_itself(self):
        """The working tree against itself: both sides time every round and
        give equal iterations, SNR and failed counts."""
        root = Path(__file__).resolve().parents[1]
        proc = _run([sys.executable, str(root / "scripts" / "abtime.py"), "--base", str(root),
                     "--workload", "dec3-gds3d", "sparse-preview", "--seeds", "3",
                     "--size", "12", "12", "3", "--rounds", "2"])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line for line in lines if not line.startswith("  ")] == [
            "dec3-gds3d seed 3, 12x12x3, 2 rounds", "sparse-preview seed 3, 12x12x3, 2 rounds"]
        keys = [line.split()[0] for line in lines if line.startswith("  ")]
        assert keys == 2 * ["s_per_iter", "wall_s", "iterations", "snr_db", "failed"]
        for line in lines:
            if line.startswith(("  s_per_iter", "  wall_s")):
                assert re.search(r"head/base \d+\.\d{3}  head won [0-2]/2$", line)
            elif line.startswith(("  iterations", "  snr_db", "  failed")):
                assert line.endswith("  equal")

    def test_abtime_compares_grid_sweep_tables(self):
        """One grid-sweep round at a tiny size: the two sides wrote equal
        table.csv bytes, and the SNR floors fail equally on both."""
        root = Path(__file__).resolve().parents[1]
        proc = _run([sys.executable, str(root / "scripts" / "abtime.py"), "--base", str(root),
                     "--workload", "grid-sweep", "--seeds", "0",
                     "--size", "8", "8", "2", "--rounds", "1"])
        assert proc.returncode == 0, proc.stderr
        head, *lines = proc.stdout.splitlines()
        assert head == "grid-sweep seed 0, 8x8x2, 1 rounds"
        assert [line.split()[0] for line in lines] == [
            "s_per_iter", "wall_s", "iterations", "snr_db", "failed", "table.csv"]
        assert all(line.endswith("  equal") for line in lines[2:])

    @pytest.fixture
    def abtime(self, monkeypatch):
        """scripts/abtime.py as a module; the BLAS pin it sets goes to a copy
        of the environment, so later child processes do not inherit it."""
        monkeypatch.setattr(os, "environ", dict(os.environ))
        path = Path(__file__).resolve().parents[1] / "scripts" / "abtime.py"
        spec = importlib.util.spec_from_file_location("abtime", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_abtime_loads_each_tree_against_its_own_package(self, abtime):
        """Each tree's workloads reach that tree's modules and no other's, and
        the dsr entries of sys.modules are the same objects afterwards. A leak
        would run one tree on both sides, and every line would read equal."""
        def dsr_entries():
            return {k: m for k, m in sys.modules.items() if k == "dsr" or k.startswith("dsr.")}

        before = dsr_entries()
        assert "dsr" in before and "dsr.solvers" in before
        trees = [abtime.Tree(abtime.HEAD, name) for name in ("dsr_alias_a", "dsr_alias_b")]
        after = dsr_entries()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        attrs = {"solvers": "solvers", "bench": "bench", "scenes": "scenes", "dsr_io": "io"}
        for tree in trees:
            for attr, module in attrs.items():
                assert getattr(tree.workloads, attr) is sys.modules[f"{tree.name}.{module}"]
            assert tree.workloads.FrameDims is sys.modules[f"{tree.name}.volumes"].FrameDims
        a, b = (tree.workloads for tree in trees)
        for attr in attrs:
            assert getattr(a, attr) is not getattr(b, attr)
            assert getattr(a, attr) is not before[f"dsr.{attrs[attr]}"]

    @pytest.mark.parametrize("args, message", [
        (["--seeds", "0", "-1"], "--seeds must not be negative"),
        (["--size", "0", "12", "3"], "--size values must be at least 1"),
        (["--size", "12", "12", "-3"], "--size values must be at least 1"),
        (["--rounds", "0"], "--rounds must be at least 1"),
    ])
    def test_abtime_rejects_bad_values_before_loading(self, abtime, monkeypatch, capsys,
                                                      args, message):
        monkeypatch.setattr(abtime, "Tree", None)  # loading a tree would raise TypeError
        with pytest.raises(SystemExit) as err:
            abtime.main(["--base", str(abtime.HEAD), *args])
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    def test_abtime_rejects_a_size_the_scene_does_not_fit(self, abtime, monkeypatch, capsys):
        """A scene that leaves a 1x1x1 frame is a usage error before any timing."""
        monkeypatch.setattr(abtime, "compare", None)  # timing would raise TypeError
        with pytest.raises(SystemExit) as err:
            abtime.main(["--base", str(abtime.HEAD), "--size", "1", "1", "1"])
        assert err.value.code == 2
        assert ("--size 1 1 1 does not fit dec3-gds3d: object 0 leaves the frame"
                in capsys.readouterr().err)

    def test_abtime_lists_the_workloads_on_an_unknown_name(self, abtime, capsys):
        with pytest.raises(SystemExit) as err:
            abtime.main(["--base", str(abtime.HEAD), "--workload", "dec3-gds3d", "nope"])
        assert err.value.code == 2
        assert "unknown workload nope; choose from dec3-gds3d, " in capsys.readouterr().err

    def test_abtime_leaves_runs_without_iterations_out_of_s_per_iter(self, abtime):
        """As perfbench/run.py does: a run with no solver iteration is not a 0 s
        iteration; with none iterated on a side the line says so."""
        line = abtime._timing("s_per_iter", [2.0, None, 4.0], [1.0, 3.0, None])
        assert line == ("  s_per_iter base 3.00000 [2.50000, 3.50000]  "
                        "head 2.00000 [1.50000, 2.50000]  head/base 0.667  head won 1/1")
        assert abtime._timing("s_per_iter", [None], [None]) == "  s_per_iter no solver iterations"


class TestConsoleScript:
    """The exit-code contract through a real process: the entry point run as
    pip's launcher runs it, ``python -m dsr``, and the installed launcher
    wherever there is one."""

    @staticmethod
    def _check_help(cmd):
        proc = _run([*cmd, "--help"])
        assert proc.returncode == 0, proc.stderr
        assert "simulate" in proc.stdout

    @staticmethod
    def _check_usage_error(cmd):
        proc = _run([*cmd, "solve", "--algo", "gds3d"])
        assert proc.returncode == 1
        # An import failure in the child also exits 1; the message shows that
        # the usage contract itself ran.
        assert "dsr solve: error:" in proc.stderr

    def test_help_exits_zero(self):
        self._check_help(ENTRY_POINT_CMD)

    def test_usage_error_exits_one(self):
        self._check_usage_error(ENTRY_POINT_CMD)

    def test_module_help_exits_zero(self):
        self._check_help(MODULE_CMD)

    def test_module_usage_error_exits_one(self):
        self._check_usage_error(MODULE_CMD)

    @needs_launcher
    def test_launcher_help_exits_zero(self):
        self._check_help([LAUNCHER])

    @needs_launcher
    def test_launcher_usage_error_exits_one(self):
        self._check_usage_error([LAUNCHER])

    def test_script_declaration_matches_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["dsr"] == ENTRY_POINT
