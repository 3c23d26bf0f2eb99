import json
import struct

import numpy as np
import pytest

from dsr.errors import DataError
from dsr.io import (
    import_pgm_sequence,
    load_pgm,
    read_dsrv,
    read_json,
    read_measurements,
    write_dsrv,
    write_frame_snr,
    write_json,
    write_measurements,
)
from dsr.volumes import (
    DepthVolume,
    FrameDims,
    Measurements,
    SamplingOperator,
    apply_sampling,
)


class TestDsrv:
    def test_round_trip(self, tmp_path, random_volume):
        path = tmp_path / "vol.dsrv"
        write_dsrv(path, random_volume)
        back = read_dsrv(path)
        assert back.dims == random_volume.dims
        np.testing.assert_array_equal(
            back.values, random_volume.values.astype(np.float32).astype(np.float64))

    def test_header_layout(self, tmp_path):
        """magic, u16 version, u8 dtype, u8 reserved, three u32 dims: 20 bytes."""
        vol = DepthVolume(FrameDims(3, 2, 4), np.arange(24.0))
        path = tmp_path / "vol.dsrv"
        write_dsrv(path, vol)
        raw = path.read_bytes()
        assert len(raw) == 20 + 4 * 24
        magic, version, dtype, reserved, w, h, t = struct.unpack_from(
            "<4sHBBIII", raw)
        assert magic == b"DSRV"
        assert version == 1
        assert dtype == 0  # float32 payload
        assert reserved == 0
        assert (w, h, t) == (3, 2, 4)
        payload = np.frombuffer(raw, dtype="<f4", offset=20)
        np.testing.assert_array_equal(payload, np.arange(24.0, dtype=np.float32))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_dsrv(tmp_path / "nope.dsrv")

    def _valid_bytes(self):
        vol = DepthVolume(FrameDims(2, 2, 1), [1.0, 2.0, 3.0, 4.0])
        header = struct.pack("<4sHBBIII", b"DSRV", 1, 0, 0, 2, 2, 1)
        return header + vol.values.astype("<f4").tobytes()

    def _expect_reject(self, tmp_path, raw):
        path = tmp_path / "bad.dsrv"
        path.write_bytes(raw)
        with pytest.raises(DataError):
            read_dsrv(path)

    def test_bad_magic(self, tmp_path):
        raw = bytearray(self._valid_bytes())
        raw[0:4] = b"JUNK"
        self._expect_reject(tmp_path, bytes(raw))

    def test_bad_version(self, tmp_path):
        raw = bytearray(self._valid_bytes())
        raw[4] = 9
        self._expect_reject(tmp_path, bytes(raw))

    def test_bad_dtype_code(self, tmp_path):
        raw = bytearray(self._valid_bytes())
        raw[6] = 7
        self._expect_reject(tmp_path, bytes(raw))

    def test_nonzero_reserved(self, tmp_path):
        raw = bytearray(self._valid_bytes())
        raw[7] = 1
        self._expect_reject(tmp_path, bytes(raw))

    def test_zero_dimension(self, tmp_path):
        raw = bytearray(self._valid_bytes())
        raw[8:12] = struct.pack("<I", 0)
        self._expect_reject(tmp_path, bytes(raw))

    def test_truncated_payload(self, tmp_path):
        self._expect_reject(tmp_path, self._valid_bytes()[:-3])

    def test_trailing_garbage(self, tmp_path):
        self._expect_reject(tmp_path, self._valid_bytes() + b"\x00")

    def test_header_only(self, tmp_path):
        self._expect_reject(tmp_path, self._valid_bytes()[:10])


class TestLoadPgm:
    def test_eight_bit(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 255, 128, 64, 1, 2]))
        img = load_pgm(path)
        assert img.shape == (2, 3)
        np.testing.assert_allclose(
            img, np.array([[0, 255, 128], [64, 1, 2]]) / 255.0)

    def test_sixteen_bit_big_endian(self, tmp_path):
        path = tmp_path / "b.pgm"
        raster = np.array([[0, 65535], [32768, 1]], dtype=">u2")
        path.write_bytes(b"P5\n2 2\n65535\n" + raster.tobytes())
        img = load_pgm(path)
        np.testing.assert_allclose(img, raster.astype(float) / 65535.0)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # magic\n# a full comment line\n  2\t1 # w\n255\n"
                         + bytes([7, 9]))
        img = load_pgm(path)
        np.testing.assert_allclose(img, [[7 / 255.0, 9 / 255.0]])

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(DataError):
            load_pgm(path)

    def test_rejects_short_raster(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(DataError):
            load_pgm(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n2 2")
        with pytest.raises(DataError):
            load_pgm(path)

    def test_rejects_bad_maxval(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n1 1\n70000\n" + bytes([0, 0]))
        with pytest.raises(DataError):
            load_pgm(path)


class TestImportPgmSequence:
    def _write_frame(self, path, values):
        arr = np.asarray(values, dtype=np.uint8)
        h, w = arr.shape
        path.write_bytes(f"P5\n{w} {h}\n255\n".encode() + arr.tobytes())

    def test_stacks_listed_frames(self, tmp_path):
        self._write_frame(tmp_path / "f0.pgm", [[10, 20]])
        self._write_frame(tmp_path / "f1.pgm", [[30, 40]])
        (tmp_path / "frames.txt").write_text(
            "# guide frames\nf0.pgm\n\nf1.pgm\n")
        vol = import_pgm_sequence(tmp_path / "frames.txt")
        assert vol.dims == FrameDims(2, 1, 2)
        np.testing.assert_allclose(vol.frames()[:, 0, 0], [10 / 255, 30 / 255])

    def test_size_mismatch_rejected(self, tmp_path):
        self._write_frame(tmp_path / "f0.pgm", [[10, 20]])
        self._write_frame(tmp_path / "f1.pgm", [[30]])
        (tmp_path / "frames.txt").write_text("f0.pgm\nf1.pgm\n")
        with pytest.raises(DataError):
            import_pgm_sequence(tmp_path / "frames.txt")

    def test_empty_manifest_rejected(self, tmp_path):
        (tmp_path / "frames.txt").write_text("# nothing here\n")
        with pytest.raises(DataError):
            import_pgm_sequence(tmp_path / "frames.txt")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            import_pgm_sequence(tmp_path / "absent.txt")


class TestJson:
    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, {"z": 1, "a": [1, 2]})
        write_json(b, {"a": [1, 2], "z": 1})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.json"
        obj = {"name": "run", "values": [1.5, 2.5], "nested": {"k": None}}
        write_json(path, obj)
        assert read_json(path) == obj

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_refused(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "x.json", {"v": value})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            read_json(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_json(tmp_path / "absent.json")


def test_frame_snr_csv_bytes(tmp_path):
    path = tmp_path / "frames.csv"
    write_frame_snr(path, np.array([12.34567, float("inf"), -0.5]))
    assert path.read_bytes() == b"frame,snr_db\n0,12.3457\n1,inf\n2,-0.5000\n"


class TestMeasurementDir:
    def test_decimation_round_trip(self, tmp_path, random_volume):
        op = SamplingOperator.decimation(random_volume.dims, 2)
        m = apply_sampling(op, random_volume)
        write_measurements(tmp_path / "meas", m, {"note": "unit"})
        back, info = read_measurements(tmp_path / "meas")
        assert back.operator == op
        np.testing.assert_allclose(back.values, m.values, atol=1e-6)
        assert info["kind"] == "decimation"
        assert info["factor"] == 2
        assert info["note"] == "unit"
        assert info["n_measurements"] == op.n_measurements
        assert not (tmp_path / "meas" / "mask.dsrv").exists()

    def test_mask_round_trip(self, tmp_path, rng, random_volume):
        mask = rng.uniform(size=random_volume.dims.total_voxels) < 0.3
        mask[:2] = True
        op = SamplingOperator.from_mask(random_volume.dims, mask)
        m = apply_sampling(op, random_volume)
        write_measurements(tmp_path / "meas", m)
        back, info = read_measurements(tmp_path / "meas")
        assert back.operator == op
        np.testing.assert_allclose(back.values, m.values, atol=1e-6)
        assert (tmp_path / "meas" / "mask.dsrv").exists()

    def test_mask_dims_consistency_checked(self, tmp_path, rng, random_volume):
        mask = rng.uniform(size=random_volume.dims.total_voxels) < 0.5
        op = SamplingOperator.from_mask(random_volume.dims, mask)
        m = apply_sampling(op, random_volume)
        write_measurements(tmp_path / "meas", m)
        meta = read_json(tmp_path / "meas" / "meas.json")
        meta["width"] = meta["width"] + 1
        write_json(tmp_path / "meas" / "meas.json", meta)
        with pytest.raises(DataError):
            read_measurements(tmp_path / "meas")

    def test_missing_field_rejected(self, tmp_path):
        (tmp_path / "meas").mkdir()
        write_json(tmp_path / "meas" / "meas.json", {"kind": "decimation"})
        with pytest.raises(DataError):
            read_measurements(tmp_path / "meas")

    def test_unknown_kind_rejected(self, tmp_path):
        (tmp_path / "meas").mkdir()
        write_json(tmp_path / "meas" / "meas.json",
                   {"kind": "fourier", "width": 2, "height": 2, "frames": 1})
        with pytest.raises(DataError):
            read_measurements(tmp_path / "meas")
