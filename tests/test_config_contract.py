"""Contract fuzzers for the JSON the CLI reads: whatever JSON value fills a
slot of a ``dsr bench --config`` file or of a ``dsr solve`` measurement
directory's ``meas.json``, the command exits 0 or 2 without raising, and an
exit 2 leaves no ``--out`` directory behind.

Each bench example starts from a small valid config on a 12x12x2 scene and
replaces one thing: a scene, grid, solver or object value, a whole section,
or the whole config. Each solve example starts from the ``meas.json`` of a
12x12x2 decimation or mask directory and replaces or drops some of its
``width``, ``height``, ``frames``, ``kind`` and ``factor``. Whole numbers
from 17 up to int64 are never generated for the size-like keys (w, h, t,
window, group_size, patch, stride, max_iter, width, height, frames, factor):
those pass validation and then allocate or iterate at that scale, so they
stay out of these tests. Window and group sizes that numpy cannot address
at all are tried one by one: they exit 2 before anything is allocated.

The ``.dsrv`` fuzzer changes the bytes of the ``--guide`` of ``dsr solve``
or of the ``--ref`` or ``--est`` of ``dsr eval``: one header field, the
payload length, or some payload values. Sizes up to the u32 limit appear
only in headers over a 12x12x2 payload, which the reader rejects by length
before it allocates anything.
"""

import copy
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dsr.bench import ExperimentGrid, run_bench, scene_from_config
from dsr.cli import main
from dsr.errors import DataError
from dsr.solvers import ALGORITHMS, DEFAULT_SOLVER

BASE = {
    "scene": {"w": 12, "h": 12, "t": 2, "seed": 0,
              "objects": [[2, 3, 4, 4, 2.0, 0.35, 1.0, 0.0]]},
    "grid": {"factors": [2], "input_snr_db": 30.0, "algorithms": ["linear", "gds3d"],
             "lambdas": [1.0], "seeds": [0]},
    "solver": {"patch": 3, "stride": 2, "window": [5, 5, 3], "group_size": 4,
               "max_iter": 2},
}
KEYS = {"scene": ("w", "h", "t", "seed", "objects"),
        "grid": ("factors", "input_snr_db", "algorithms", "lambdas", "seeds"),
        "solver": tuple(DEFAULT_SOLVER)}
SIZE_KEYS = {"w", "h", "t", "window", "group_size", "patch", "stride", "max_iter"}

numbers = (st.integers(-2, 16) | st.floats(-20, 20) | st.floats() | st.integers()
           | st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 400, -10 ** 400]))
scalars = (numbers | st.none() | st.booleans() | st.text(max_size=6)
           | st.sampled_from(["inf", *ALGORITHMS]))
values = (numbers | st.lists(numbers | st.sampled_from(ALGORITHMS), max_size=4)
          | st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                         | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                         max_leaves=8))


def _small(value) -> bool:
    """False if ``value`` holds a whole number that could pass as a size above 16."""
    if isinstance(value, (list, tuple)):
        return all(map(_small, value))
    if isinstance(value, dict):
        return all(map(_small, value.values()))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    whole = isinstance(value, int) or (math.isfinite(value) and value.is_integer())
    return not (whole and 16 < value < 2 ** 63)


def _over_base(section, value):
    """A generated section merged over the base one, or the value itself if
    it is not an object: left out, the scene would be 64x64x16 and the grid
    all of its defaults."""
    return {**BASE[section], **value} if isinstance(value, dict) else value


@st.composite
def configs(draw):
    config = copy.deepcopy(BASE)
    kind = draw(st.sampled_from(["key", "object", "section", "top"]))
    if kind == "key":
        section = draw(st.sampled_from(sorted(KEYS)))
        key = draw(st.sampled_from(KEYS[section]))
        config[section][key] = draw(values.filter(_small) if key in SIZE_KEYS else values)
    elif kind == "object":
        config["scene"]["objects"][0][draw(st.integers(0, 7))] = draw(values)
    elif kind == "section":
        section = draw(st.sampled_from(sorted(KEYS)))
        config[section] = _over_base(section, draw(values.filter(_small) | st.dictionaries(
            st.sampled_from(KEYS[section]), values.filter(_small), max_size=4)))
    else:
        top = draw(values.filter(_small) | st.dictionaries(
            st.sampled_from([*KEYS, "solvers"]), values.filter(_small), max_size=3))
        config = ({**BASE, **{key: _over_base(key, v) if key in KEYS else v
                              for key, v in top.items()}}
                  if isinstance(top, dict) else top)
    return config


@settings(max_examples=300, deadline=None, derandomize=True)
@given(configs())
def test_bench_config_exits_0_or_2(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        code = main(["bench", "--config", str(path), "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
        else:
            assert (out / "table.csv").exists()


@pytest.mark.parametrize("solver", [[], 0, "", False], ids=repr)
def test_run_bench_rejects_a_falsy_solver_section(tmp_path, solver):
    """``run_bench`` reads its solver section once, as the config reader
    hands it on: only ``None`` stands for the defaults, and any other
    non-object is a DataError before ``out_dir`` is made."""
    out = tmp_path / "out"
    with pytest.raises(DataError, match="solver config must be a JSON object"):
        run_bench(scene_from_config(BASE["scene"]), ExperimentGrid(**BASE["grid"]), solver, out)
    assert not out.exists()


MEAS_KEYS = ("width", "height", "frames", "kind", "factor")
DROP = object()
SOLVE_ARGS = ["--algo", "gds3d", "--lambda", "1", "--patch", "3", "--stride", "2",
              "--window", "5x5x3", "--group-size", "4", "--max-iter", "2"]


@pytest.fixture(scope="module")
def measurement_dirs(tmp_path_factory):
    """A 12x12x2 scene and its decimation (x2) and mask measurement directories."""
    root = tmp_path_factory.mktemp("meas")
    scene = root / "scene"
    assert main(["simulate", "--out", str(scene), "--w", "12", "--h", "12", "--t", "2"]) == 0
    depth = str(scene / "depth.dsrv")
    assert main(["degrade", "--depth", depth, "--factor", "2", "--snr", "30",
                 "--out", str(root / "decimation")]) == 0
    assert main(["sparse", "--depth", depth, "--rate", "0.5", "--out", str(root / "mask")]) == 0
    return {"guide": scene / "guide.dsrv", "depth": scene / "depth.dsrv",
            "decimation": root / "decimation", "mask": root / "mask"}


meas_values = st.dictionaries(
    st.sampled_from(MEAS_KEYS),
    values.filter(_small) | st.sampled_from(["decimation", "mask", DROP]),
    min_size=1, max_size=len(MEAS_KEYS))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(["decimation", "mask"]), changes=meas_values)
def test_solve_meas_json_exits_0_or_2(measurement_dirs, base, changes):
    source = measurement_dirs[base]
    info = json.loads((source / "meas.json").read_text())
    for key, value in changes.items():
        if value is DROP:
            info.pop(key, None)
        else:
            info[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        meas, out = Path(tmp) / "meas", Path(tmp) / "out"
        meas.mkdir()
        for name in ("values.dsrv", "mask.dsrv"):
            if (source / name).exists():
                (meas / name).write_bytes((source / name).read_bytes())
        (meas / "meas.json").write_text(json.dumps(info))
        code = main(["solve", *SOLVE_ARGS, "--meas", str(meas),
                     "--guide", str(measurement_dirs["guide"]), "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
        else:
            assert (out / "est.dsrv").exists()


#: the DSRV header: magic, version u16, dtype u8, reserved u8, then w, h, t as u32
HEADER = struct.Struct("<4sHBBIII")
HEADER_FIELDS = ("magic", "version", "dtype", "reserved", "w", "h", "t")
U32 = st.integers(0, 2 ** 32 - 1) | st.sampled_from([2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1])
FIELD_VALUES = {
    "magic": st.binary(min_size=4, max_size=4) | st.sampled_from([b"DSRV", b"dsrv"]),
    "version": st.integers(0, 2 ** 16 - 1) | st.just(1),
    "dtype": st.integers(0, 255) | st.just(0),
    "reserved": st.integers(0, 255) | st.just(0),
    "w": st.integers(0, 32) | U32,
    "h": st.integers(0, 32) | U32,
    "t": st.integers(0, 4) | U32,
}
#: float32 payload values: out of the guide's [0, 1], non-finite, tiny and huge
PAYLOAD_VALUES = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1e-3, 1.0 + 1e-6, 7.0, 1e-45,
                                  3.4e38, -3.4e38, np.inf, -np.inf, np.nan])


@st.composite
def dsrv_mutations(draw, raw: bytes):
    """The bytes of a valid DSRV file with one part of it changed."""
    fields = dict(zip(HEADER_FIELDS, HEADER.unpack_from(raw)))
    payload = np.frombuffer(raw, dtype="<f4", offset=HEADER.size).copy()
    kind = draw(st.sampled_from(["field", "dims", "length", "values"]))
    if kind == "field":
        name = draw(st.sampled_from(HEADER_FIELDS))
        fields[name] = draw(FIELD_VALUES[name])
    elif kind == "dims":
        # another shape for the same payload, read without a length error
        n = payload.size
        w = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        h = draw(st.sampled_from([d for d in range(1, n // w + 1) if n // w % d == 0]))
        fields.update(w=w, h=h, t=n // (w * h))
    elif kind == "values":
        spots = draw(st.lists(st.integers(0, payload.size - 1), min_size=1, max_size=5))
        payload[spots] = draw(st.lists(PAYLOAD_VALUES, min_size=len(spots),
                                       max_size=len(spots)))
    body = payload.astype("<f4").tobytes()
    if kind == "length":
        change = draw(st.integers(-len(body), 64).filter(bool))
        body = body[:change] if change < 0 else body + bytes(change)
    return HEADER.pack(*fields.values()) + body


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), target=st.sampled_from(["guide", "ref", "est"]))
def test_dsrv_files_exit_0_or_2(measurement_dirs, data, target):
    """``dsr solve`` with a changed ``--guide`` and ``dsr eval`` with a
    changed ``--ref`` or ``--est`` exit 0 or 2, and write no output on 2."""
    files = {"guide": measurement_dirs["guide"], "ref": measurement_dirs["depth"],
             "est": measurement_dirs["depth"]}
    raw = data.draw(dsrv_mutations(files[target].read_bytes()), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        changed, out = Path(tmp) / "changed.dsrv", Path(tmp) / "out"
        changed.write_bytes(raw)
        files[target] = changed
        if target == "guide":
            argv = ["solve", *SOLVE_ARGS, "--meas", str(measurement_dirs["decimation"]),
                    "--guide", str(changed), "--out", str(out)]
            written = out / "est.dsrv"
        else:
            written = out / "snr.csv"
            argv = ["eval", "--ref", str(files["ref"]), "--est", str(files["est"]),
                    "--per-frame", str(written)]
        code = main(argv)
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
        else:
            assert written.exists()


#: (flag, solver key, value) for window and group sizes whose group table,
#: bordered guide or band workspace numpy cannot address on the 12x12x2
#: scene; sizes numpy can address but memory cannot hold are not tried
OVERSIZE = [("--group-size", "group_size", 2 ** 62),
            ("--window", "window", [2 ** 62 - 1, 11, 3]),
            ("--window", "window", [11, 11, 2 ** 62 - 1])]


@pytest.mark.parametrize("flag,key,value", OVERSIZE, ids=["group_size", "window_x", "window_t"])
def test_oversize_geometry_exits_2(measurement_dirs, tmp_path, capsys, flag, key, value):
    """``dsr solve`` and a ``dsr bench`` solver section with such a size
    exit 2 with a data error and write no ``--out``."""
    text = "x".join(map(str, value)) if isinstance(value, list) else str(value)
    out = tmp_path / "solve"
    assert main(["solve", *SOLVE_ARGS, flag, text, "--meas",
                 str(measurement_dirs["decimation"]), "--guide",
                 str(measurement_dirs["guide"]), "--out", str(out)]) == 2
    assert not out.exists()

    config = copy.deepcopy(BASE)
    config["solver"][key] = value
    path, out = tmp_path / "config.json", tmp_path / "bench"
    path.write_text(json.dumps(config))
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("more than numpy can address") == 2
