"""File formats: the DSRV volume container, binary PGM, and measurement dirs.

DSRV is a little-endian container with a 20-byte header (magic ``DSRV``,
version u16, dtype u8 where 0 means float32, one reserved zero byte, then
width/height/frames as u32) followed by the float32 payload in flat scan
order. Round trips preserve the float32 payload bit for bit.

Measurements live in a directory: ``meas.json`` describing the operator,
``values.dsrv`` holding the measured values as an Mx1x1 volume, and for
mask operators a full-size 0/1 ``mask.dsrv``.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, as_number
from .volumes import DepthVolume, FrameDims, IntensityVolume, Measurements, SamplingOperator

__all__ = [
    "read_dsrv",
    "write_dsrv",
    "load_pgm",
    "import_pgm_sequence",
    "write_measurements",
    "read_measurements",
    "write_json",
    "read_json",
    "write_frame_snr",
]

_DSRV_HEADER = struct.Struct("<4sHBBIII")
_DSRV_MAGIC = b"DSRV"
_DSRV_VERSION = 1
_DTYPE_FLOAT32 = 0


def write_dsrv(path, volume) -> None:
    """Serialize a volume (anything with .dims and .values) to a DSRV file."""
    d = volume.dims
    header = _DSRV_HEADER.pack(_DSRV_MAGIC, _DSRV_VERSION, _DTYPE_FLOAT32, 0,
                               d.width, d.height, d.frames)
    payload = np.asarray(volume.values, dtype="<f4").tobytes()
    Path(path).write_bytes(header + payload)


def read_dsrv(path) -> DepthVolume:
    """Parse a DSRV file, validating header fields and the payload length."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(raw) < _DSRV_HEADER.size:
        raise DataError(f"{path}: file shorter than the {_DSRV_HEADER.size}-byte header")
    magic, version, dtype, reserved, w, h, t = _DSRV_HEADER.unpack_from(raw)
    if magic != _DSRV_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if version != _DSRV_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if dtype != _DTYPE_FLOAT32:
        raise DataError(f"{path}: unsupported dtype code {dtype}")
    if reserved != 0:
        raise DataError(f"{path}: reserved byte must be 0, got {reserved}")
    if w < 1 or h < 1 or t < 1:
        raise DataError(f"{path}: degenerate dimensions {w}x{h}x{t}")
    expected = _DSRV_HEADER.size + 4 * w * h * t
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes for {w}x{h}x{t}, "
                        f"got {len(raw)}")
    values = np.frombuffer(raw, dtype="<f4", offset=_DSRV_HEADER.size)
    return DepthVolume(FrameDims(w, h, t), values.astype(np.float64))


def _pgm_tokens(raw: bytes, count: int) -> tuple[list[bytes], int]:
    """First header tokens of a PGM, skipping whitespace and # comments.
    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last one."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(raw):
            raise DataError("truncated PGM header")
        c = raw[i:i + 1]
        if c == b"#":
            while i < len(raw) and raw[i:i + 1] != b"\n":
                i += 1
            i += 1
        elif c.isspace():
            i += 1
        else:
            start = i
            while i < len(raw) and not raw[i:i + 1].isspace() and raw[i:i + 1] != b"#":
                i += 1
            tokens.append(raw[start:i])
            if len(tokens) == count:
                if i >= len(raw) or not raw[i:i + 1].isspace():
                    raise DataError("malformed PGM header")
                i += 1  # exactly one whitespace byte separates header from raster
    return tokens, i


def load_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM into an (H, W) float array scaled to [0, 1]."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    tokens, offset = _pgm_tokens(raw, 4)
    if tokens[0] != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric PGM header field") from exc
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise DataError(f"{path}: invalid PGM geometry {width}x{height} maxval {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    expected = width * height * dtype.itemsize
    data = raw[offset:]
    if len(data) != expected:
        raise DataError(f"{path}: raster has {len(data)} bytes, expected {expected}")
    pixels = np.frombuffer(data, dtype=dtype).astype(np.float64).reshape(height, width)
    return pixels / float(maxval)


def import_pgm_sequence(manifest) -> IntensityVolume:
    """Stack the PGM frames listed (one per line) in a manifest text file.

    Frame paths are resolved relative to the manifest's directory; blank
    lines and ``#`` comment lines are ignored. All frames must share one size.
    """
    manifest = Path(manifest)
    try:
        lines = manifest.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read manifest {manifest}: {exc}") from exc
    names = [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not names:
        raise DataError(f"manifest {manifest} lists no frames")
    frames = [load_pgm(manifest.parent / name) for name in names]
    shape = frames[0].shape
    for name, fr in zip(names, frames):
        if fr.shape != shape:
            raise DataError(f"frame {name} has size {fr.shape[::-1]}, "
                            f"expected {shape[::-1]}")
    return IntensityVolume.from_frames(np.stack(frames))


def write_json(path, obj) -> None:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline.
    NaN and infinities raise ValueError: they are not valid JSON."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


def write_frame_snr(path, curve) -> None:
    """Per-frame SNR table: a ``frame,snr_db`` header, then one row per frame."""
    lines = ["frame,snr_db"] + [f"{k},{v:.4f}" for k, v in enumerate(curve)]
    Path(path).write_text("\n".join(lines) + "\n")


def _meas_volume(values: np.ndarray) -> DepthVolume:
    return DepthVolume(FrameDims(values.size, 1, 1), values)


def write_measurements(directory, meas: Measurements, extra: dict | None = None) -> None:
    """Persist measurements as meas.json + values.dsrv (+ mask.dsrv)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    op = meas.operator
    info = {
        "kind": op.kind,
        "width": op.dims.width,
        "height": op.dims.height,
        "frames": op.dims.frames,
        "n_measurements": op.n_measurements,
    }
    if op.kind == "decimation":
        info["factor"] = op.factor
    if extra:
        info.update(extra)
    write_json(directory / "meas.json", info)
    write_dsrv(directory / "values.dsrv", _meas_volume(meas.values))
    if op.kind == "mask":
        mask_vol = DepthVolume(op.dims, op.mask.astype(np.float64))
        write_dsrv(directory / "mask.dsrv", mask_vol)


def read_measurements(directory) -> tuple[Measurements, dict]:
    """Load a measurement directory back into a Measurements object."""
    directory = Path(directory)
    source = directory / "meas.json"
    info = read_json(source)
    if not isinstance(info, dict):
        raise DataError(f"{source} must hold a JSON object")
    try:
        dims = FrameDims(*(as_number(info[k], f"{source} {k}", whole=True)
                           for k in ("width", "height", "frames")))
        kind = info["kind"]
        factor = info["factor"] if kind == "decimation" else None
    except KeyError as exc:
        raise DataError(f"{source} is missing field {exc}") from exc
    if kind == "decimation":
        op = SamplingOperator.decimation(dims, as_number(factor, f"{source} factor",
                                                         whole=True))
    elif kind == "mask":
        mask_vol = read_dsrv(directory / "mask.dsrv")
        if mask_vol.dims != dims:
            raise DataError(f"{directory}: mask dims {mask_vol.dims} disagree "
                            f"with meas.json dims {dims}")
        op = SamplingOperator.from_mask(dims, mask_vol.values != 0.0)
    else:
        raise DataError(f"{directory}: unknown measurement kind {kind!r}")
    values = read_dsrv(directory / "values.dsrv").values
    return Measurements(values, op), info
