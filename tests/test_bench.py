import json

import numpy as np
import pytest

import dsr.bench as bench_mod
from dsr.bench import (
    ExperimentGrid,
    bench_from_config,
    objects_from_config,
    run_bench,
    scene_from_config,
    sparse_split,
)
from dsr.errors import DataError
from dsr.io import read_dsrv, read_json
from dsr.scenes import default_scene
from dsr.solvers import DEFAULT_SOLVER
from dsr.volumes import DepthVolume, FrameDims


class TestSparseSplit:
    def test_sample_count_formula(self):
        """floor(rate * W*H*T) voxels total, split across the two masks."""
        vol = DepthVolume(FrameDims(192, 512, 64),
                          np.ones(192 * 512 * 64))
        rec, val = sparse_split(vol, 0.0394, seed=0, split=0.5)
        total = rec.operator.n_measurements + val.operator.n_measurements
        assert total == 247883
        assert rec.operator.n_measurements == 123942  # floor(0.5*n + 0.5)

    def test_masks_disjoint(self, random_volume):
        rec, val = sparse_split(random_volume, 0.3, seed=1, split=0.4)
        assert not np.any(rec.operator.mask & val.operator.mask)

    def test_values_come_from_volume(self, random_volume):
        rec, val = sparse_split(random_volume, 0.2, seed=2, split=0.5)
        np.testing.assert_array_equal(
            rec.values, random_volume.values[rec.operator.indices])
        np.testing.assert_array_equal(
            val.values, random_volume.values[val.operator.indices])

    def test_reproducible_by_seed(self, random_volume):
        a_rec, a_val = sparse_split(random_volume, 0.25, seed=9, split=0.5)
        b_rec, b_val = sparse_split(random_volume, 0.25, seed=9, split=0.5)
        assert a_rec.operator == b_rec.operator
        assert a_val.operator == b_val.operator
        c_rec, _ = sparse_split(random_volume, 0.25, seed=10, split=0.5)
        assert a_rec.operator != c_rec.operator

    def test_full_rate_covers_everything(self, random_volume):
        rec, val = sparse_split(random_volume, 1.0, seed=0, split=0.5)
        union = rec.operator.mask | val.operator.mask
        assert np.all(union)
        n = random_volume.dims.total_voxels
        assert rec.operator.n_measurements == int(np.floor(0.5 * n + 0.5))

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5])
    def test_rate_bounds(self, random_volume, rate):
        with pytest.raises(DataError):
            sparse_split(random_volume, rate, seed=0, split=0.5)

    @pytest.mark.parametrize("split", [0.0, 1.0, -0.2])
    def test_split_bounds(self, random_volume, split):
        with pytest.raises(DataError):
            sparse_split(random_volume, 0.5, seed=0, split=split)

    def test_negative_seed_rejected(self, random_volume):
        with pytest.raises(DataError, match="seed"):
            sparse_split(random_volume, 0.5, seed=-1, split=0.5)

    def test_too_few_samples_rejected(self):
        vol = DepthVolume(FrameDims(2, 2, 1), np.ones(4))
        with pytest.raises(DataError):
            sparse_split(vol, 0.26, seed=0, split=0.5)  # floor -> 1 sample


class TestExperimentGrid:
    def test_defaults(self):
        g = ExperimentGrid()
        assert g.factors == (2, 3, 4, 5)
        assert g.input_snr_db == 30.0
        assert set(g.algorithms) == {"linear", "gds2d", "ds3d", "admm3d", "gds3d"}

    def test_normalizes_lists_to_tuples(self):
        g = ExperimentGrid(factors=[2], algorithms=["linear"], lambdas=[1.5],
                           seeds=[0, 1])
        assert g.factors == (2,)
        assert g.lambdas == (1.5,)
        assert g.seeds == (0, 1)

    def test_inf_string_means_noise_free(self):
        assert ExperimentGrid(input_snr_db="inf").input_snr_db == float("inf")

    def test_factor_one_allowed(self):
        assert ExperimentGrid(factors=(1,)).factors == (1,)

    @pytest.mark.parametrize("kw", [dict(factors=(0,)), dict(factors=()),
                                    dict(algorithms=("magic",)),
                                    dict(lambdas=(-1.0,)), dict(seeds=()),
                                    dict(input_snr_db=float("nan")),
                                    dict(input_snr_db=float("-inf")),
                                    dict(input_snr_db="30"), dict(input_snr_db="Infinity"),
                                    dict(seeds=(-1,))])
    def test_validation(self, kw):
        with pytest.raises(DataError):
            ExperimentGrid(**kw)


SMALL_SCENE = default_scene(FrameDims(24, 24, 4), seed=0)
SMALL_GRID = ExperimentGrid(factors=(2, 3), algorithms=("linear", "gds3d"),
                            lambdas=(2.0,), seeds=(0,))
SMALL_SOLVER = {"max_iter": 8, "patch": 3, "stride": 2, "window": (7, 7, 3),
                "group_size": 6}


class TestRunBench:
    def test_outputs(self, tmp_path):
        summary = run_bench(SMALL_SCENE, SMALL_GRID, SMALL_SOLVER, tmp_path)
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert table[0] == "algo,2x,3x"
        assert table[1].startswith("linear,")
        assert table[2].startswith("gds3d,")
        # cells render with two decimals and match the returned summary
        for line, algo in zip(table[1:], ("linear", "gds3d")):
            cells = line.split(",")[1:]
            assert cells == [f"{summary[algo][f]:.2f}" for f in (2, 3)]
        for algo in ("linear", "gds3d"):
            for factor in (2, 3):
                frames = (tmp_path / f"frames_{algo}_{factor}.csv").read_text()
                lines = frames.splitlines()
                assert lines[0] == "frame,snr_db"
                assert len(lines) == 1 + 4
                recon = read_dsrv(tmp_path / f"recon_{algo}_{factor}x.dsrv")
                assert recon.dims == FrameDims(24, 24, 4)
        run = read_json(tmp_path / "run.json")
        assert set(run) == {"scene", "grid", "solver"}
        assert run["grid"]["factors"] == [2, 3]
        assert run["solver"]["max_iter"] == 8

    def test_guided_beats_linear_on_the_grid(self, tmp_path):
        summary = run_bench(SMALL_SCENE, SMALL_GRID, SMALL_SOLVER, tmp_path)
        assert summary["gds3d"][3] > summary["linear"][3]

    def test_byte_identical_reruns(self, tmp_path):
        run_bench(SMALL_SCENE, SMALL_GRID, SMALL_SOLVER, tmp_path / "a")
        run_bench(SMALL_SCENE, SMALL_GRID, SMALL_SOLVER, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between reruns"

    def test_noise_free_identity_cell_prints_inf(self, tmp_path):
        grid = ExperimentGrid(factors=(1,), algorithms=("linear",),
                              input_snr_db=float("inf"))
        run_bench(SMALL_SCENE, grid, SMALL_SOLVER, tmp_path)
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert table[1] == "linear,inf"

    def test_noise_free_run_json_is_strict_json(self, tmp_path):
        bench_from_config({"scene": {"w": 12, "h": 12, "t": 2},
                           "grid": {"factors": [2], "algorithms": ["linear"],
                                    "input_snr_db": float("inf")}},
                          tmp_path)

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        run = json.loads((tmp_path / "run.json").read_text(), parse_constant=reject)
        assert run["grid"]["input_snr_db"] == "inf"

    def test_failed_cell_prints_nan_and_run_continues(self, tmp_path):
        # no candidate weights can be derived for noiseless data, so the
        # guided cell fails while the linear cell still succeeds
        grid = ExperimentGrid(factors=(2,), algorithms=("linear", "gds3d"),
                              lambdas=(), input_snr_db=float("inf"))
        summary = run_bench(SMALL_SCENE, grid, SMALL_SOLVER, tmp_path)
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert np.isfinite(float(table[1].split(",")[1]))  # linear succeeded
        assert table[2] == "gds3d,nan"
        assert np.isnan(summary["gds3d"][2])
        assert not (tmp_path / "frames_gds3d_2.csv").exists()

    def test_unknown_solver_key_rejected(self, tmp_path):
        with pytest.raises(DataError):
            run_bench(SMALL_SCENE, SMALL_GRID, {"patch_size": 5}, tmp_path)

    def test_no_solver_settings_mean_the_defaults(self, tmp_path):
        grid = ExperimentGrid(factors=(2,), algorithms=("linear",))
        run_bench(default_scene(FrameDims(12, 12, 2)), grid, None, tmp_path)
        assert read_json(tmp_path / "run.json")["solver"] == {
            **DEFAULT_SOLVER, "window": list(DEFAULT_SOLVER["window"])}

    def test_cells_derive_from_one_solver_config(self, tmp_path, monkeypatch):
        # a gds2d cell collapses the temporal window for itself only
        seen, original = [], bench_mod.select_lambda

        def recording_select(psi, guide, cfg, candidates, ref=None):
            seen.append(cfg)
            return original(psi, guide, cfg, candidates, ref)

        monkeypatch.setattr(bench_mod, "select_lambda", recording_select)
        grid = ExperimentGrid(factors=(2,), algorithms=("gds2d", "gds3d"),
                              lambdas=(2.0,))
        run_bench(SMALL_SCENE, grid, {**SMALL_SOLVER, "max_iter": 2}, tmp_path)
        assert [(c.algo, c.lam, c.geometry.window, c.max_iter) for c in seen] == [
            ("gds2d", 2.0, (7, 7, 1), 2), ("gds3d", 2.0, (7, 7, 3), 2)]

    def test_default_solver_settings_are_complete(self):
        assert set(DEFAULT_SOLVER) == {"patch", "stride", "window", "group_size",
                                       "nu", "rho", "max_iter", "tol"}


class TestConfig:
    def test_objects_from_config(self):
        objs = objects_from_config([[2, 3, 4, 5, 1.5, 0.3, 1.0, 0.0]])
        assert objs[0].x0 == 2 and objs[0].depth == 1.5 and objs[0].vx == 1.0

    def test_scene_from_config_defaults(self):
        assert scene_from_config({}) == default_scene(FrameDims(64, 64, 16), 0)
        assert scene_from_config({"w": 20, "h": 16, "t": 3, "seed": 4}) == \
            default_scene(FrameDims(20, 16, 3), 4)

    def test_objects_need_eight_numbers(self):
        with pytest.raises(DataError):
            objects_from_config([[1, 2, 3]])

    def test_bench_from_config(self, tmp_path):
        config = {
            "scene": {"w": 24, "h": 24, "t": 4, "seed": 0},
            "grid": {"factors": [2], "algorithms": ["linear", "gds3d"],
                     "lambdas": [2.0], "input_snr_db": 30.0},
            "solver": {"max_iter": 6, "patch": 3, "stride": 2,
                       "window": [7, 7, 3], "group_size": 6},
        }
        summary = bench_from_config(config, tmp_path)
        assert set(summary) == {"linear", "gds3d"}
        assert (tmp_path / "table.csv").exists()

    def test_bench_config_with_objects(self, tmp_path):
        config = {
            "scene": {"w": 20, "h": 20, "t": 3,
                      "objects": [[2, 2, 5, 5, 1.0, 0.3, 1.0, 0.0]]},
            "grid": {"factors": [2], "algorithms": ["linear"]},
        }
        summary = bench_from_config(config, tmp_path)
        assert "linear" in summary

    @pytest.mark.parametrize("grid", [{"factor": [2], "algorithms": ["linear"]},
                                      {"factors": 2, "algorithms": ["linear"]},
                                      None,
                                      # no silent coercion of a string or a fraction
                                      {"factors": "23", "algorithms": ["linear"]},
                                      {"factors": [2.5], "algorithms": ["linear"]},
                                      {"factors": [True], "algorithms": ["linear"]},
                                      {"factors": [2], "algorithms": ["linear"],
                                       "seeds": [0.5]},
                                      {"factors": [2], "algorithms": ["linear"],
                                       "seeds": "0"},
                                      [], "", {"algorithms": "linear"},
                                      {"factors": [2], "algorithms": ["linear"],
                                       "seeds": [2 ** 63]}])
    def test_bad_grid_rejected(self, tmp_path, grid):
        with pytest.raises(DataError):
            bench_from_config({"scene": {"w": 12, "h": 12, "t": 2}, "grid": grid},
                              tmp_path)
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("lambdas", [[float("nan")], [float("inf")], [2.0, -1.0],
                                         "12", ["2"]])
    def test_bad_lambdas_rejected(self, tmp_path, lambdas):
        with pytest.raises(DataError):
            bench_from_config({"scene": {"w": 12, "h": 12, "t": 2},
                               "grid": {"factors": [2], "algorithms": ["gds3d"],
                                        "lambdas": lambdas}},
                              tmp_path)
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("scene", [{"width": 12, "height": 12, "frames": 2},
                                       {"w": 12, "h": 12, "t": 2, "seeds": [1]},
                                       [["w", 12]],
                                       "w=12",
                                       {"w": 12, "h": 12, "t": 2,
                                        "objects": [[2, 2, 5, 5, 1, 0.3, float("nan"), 0]]},
                                       {"w": 12, "h": 12, "t": 2, "objects": 5},
                                       {"w": 12, "h": "a", "t": 2},
                                       {"w": 12, "h": 12, "t": 2,
                                        "objects": [[2.7, 2, 5, 5, 1, 0.3, 1, 0]]},
                                       {"w": 12, "h": 12, "t": 2,
                                        "objects": [[2, 2, 5.9, 5, 1, 0.3, 1, 0]]},
                                       {"w": 12, "h": 12, "t": 2, "objects":
                                        [["2", "2", "5", "5", "1", "0.3", "1", "0"]]},
                                       {"w": 12, "h": 12, "t": 2,
                                        "objects": [[2, 2, 5, 5, "1", 0.3, 1, 0]]},
                                       {"w": 12, "h": 12, "t": 2, "seed": -1},
                                       {"w": 12.9, "h": 12, "t": 2},
                                       {"w": 12, "h": 12, "t": "2"},
                                       {"w": 12, "h": 12, "t": 2, "seed": 1.5}])
    def test_bad_scene_rejected(self, tmp_path, scene):
        with pytest.raises(DataError):
            bench_from_config({"scene": scene,
                               "grid": {"factors": [2], "algorithms": ["linear"]}},
                              tmp_path)
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("solver", [{"nu": float("nan")}, {"rho": float("inf")},
                                        {"patch": "five"}, {"nu": 2}, {"rho": -1},
                                        {"max_iter": 0}, {"tol": -1},
                                        {"max_iter": 2.9}, {"window": "551"},
                                        {"stride": True}, {"group_size": "6"},
                                        {"rho": "1"}, {"window": [7, 7]},
                                        {"window": 7}, {"max_iter": 2 ** 63},
                                        {"rho": 10 ** 400}])
    @pytest.mark.parametrize("algo", ["linear", "gds3d"])
    def test_bad_solver_setting_rejected(self, tmp_path, algo, solver):
        # checked once before any cell runs, whichever algorithms the grid holds
        with pytest.raises(DataError):
            bench_from_config({"scene": {"w": 12, "h": 12, "t": 2},
                               "grid": {"factors": [2], "algorithms": [algo],
                                        "lambdas": [1.0]},
                               "solver": solver},
                              tmp_path)
        assert not (tmp_path / "table.csv").exists()

    def test_integral_floats_accepted(self, tmp_path):
        bench_from_config({"scene": {"w": 12.0, "h": 12, "t": 2.0, "seed": 1.0},
                           "grid": {"factors": [2.0], "algorithms": ["gds3d"],
                                    "lambdas": [1], "seeds": [0.0]},
                           "solver": {"max_iter": 2.0, "patch": 3.0, "stride": 2,
                                      "window": [5.0, 5, 3], "group_size": 4.0}},
                          tmp_path)
        run = read_json(tmp_path / "run.json")
        assert run["scene"]["dims"] == {"width": 12, "height": 12, "frames": 2}
        assert run["scene"]["seed"] == 1
        assert (run["grid"]["factors"], run["grid"]["seeds"]) == ([2], [0])
        # the solver section is echoed as read: counts as ints, the window as ints
        solver = run["solver"]
        assert (solver["max_iter"], solver["patch"], solver["window"], solver["group_size"]) \
            == (2, 3, [5, 5, 3], 4)
        assert all(type(solver[k]) is int for k in ("max_iter", "patch", "stride", "group_size"))
        assert all(type(v) is int for v in solver["window"])
        assert set(solver) == set(DEFAULT_SOLVER)
        assert np.isfinite(float((tmp_path / "table.csv").read_text()
                                 .splitlines()[1].split(",")[1]))

    def test_non_mapping_rejected(self, tmp_path):
        with pytest.raises(DataError):
            bench_from_config(["not", "a", "dict"], tmp_path)
