"""On-disk formats: recording directories and header+payload containers.

A recording is stored as a directory holding ``header.json`` plus
``signals.bin`` (and ``imu.bin`` when it has an IMU track): little-endian
float64 samples in channel-major order, which round-trip exactly.  The
header carries sampling rates, the ordered channel roles, patient id and
annotations.

A template bank is one container file: a magic tag, a JSON header, then a
raw little-endian float64 payload.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .signals import ChannelRole, Recording, SeizureAnnotation

HEADER_NAME = "header.json"
FORMAT_VERSION = 1
PAYLOAD = "bin"


class RecordingFormatError(ValueError):
    """Raised when a recording directory is missing pieces or inconsistent."""


def save_recording(rec: Recording, path: str | Path) -> Path:
    """Write ``rec`` under directory ``path``; returns the directory path."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    header = {
        "format_version": FORMAT_VERSION,
        "payload": PAYLOAD,
        "patient_id": rec.patient_id,
        "sample_rate": rec.sample_rate,
        "imu_rate": rec.imu_rate,
        "channels": [str(r) for r in rec.roles],
        "n_samples": rec.n_samples,
        "imu_n_samples": 0 if rec.imu is None else rec.imu.shape[1],
        "annotations": [
            {"onset_s": a.onset_s, "offset_s": a.offset_s, "label": a.label}
            for a in rec.annotations
        ],
    }
    (path / HEADER_NAME).write_text(json.dumps(header, indent=2, sort_keys=True))

    signals = rec.channel_matrix() if rec.channels else np.zeros((0, 0))
    (path / "signals.bin").write_bytes(np.ascontiguousarray(signals, dtype="<f8").tobytes())
    if rec.imu is not None:
        (path / "imu.bin").write_bytes(np.ascontiguousarray(rec.imu, dtype="<f8").tobytes())
    return path


def load_recording(path: str | Path) -> Recording:
    """Read a recording directory written by :func:`save_recording`.

    A damaged one raises :class:`RecordingFormatError`, its message starting
    with the directory's path.
    """
    path = Path(path)
    try:
        return _read_recording(path)
    except RecordingFormatError as exc:
        raise RecordingFormatError(f"{path}: {exc}") from exc


def _read_recording(path: Path) -> Recording:
    header_path = path / HEADER_NAME
    if not header_path.is_file():
        raise RecordingFormatError(f"no {HEADER_NAME}")
    try:
        header = json.loads(header_path.read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both are
        raise RecordingFormatError(f"malformed {HEADER_NAME}: {exc}") from exc

    for key in ("payload", "patient_id", "sample_rate", "channels", "n_samples"):
        if key not in header:
            raise RecordingFormatError(f"header missing required key {key!r}")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise RecordingFormatError(
            f"{HEADER_NAME}: format_version must be {FORMAT_VERSION}, got {version!r}"
        )
    if not isinstance(header["patient_id"], str):
        raise RecordingFormatError(
            f"{HEADER_NAME}: patient_id must be a string, got {header['patient_id']!r}"
        )
    if header["payload"] != PAYLOAD:
        raise RecordingFormatError(
            f"{HEADER_NAME}: unknown payload kind {header['payload']!r}"
        )

    if not isinstance(header["channels"], list):
        raise RecordingFormatError(
            f"{HEADER_NAME}: channels must be a list of role names, got {header['channels']!r}"
        )
    try:
        roles = [ChannelRole(name) for name in header["channels"]]
    except ValueError as exc:
        raise RecordingFormatError(str(exc)) from exc
    if len(set(roles)) < len(roles):
        raise RecordingFormatError(
            f"{HEADER_NAME}: channels must name each role once, got {header['channels']!r}"
        )

    try:
        n = int(header["n_samples"])
        n_imu = int(header.get("imu_n_samples", 0))
    except (TypeError, ValueError) as exc:
        raise RecordingFormatError(f"{HEADER_NAME}: sample counts must be integers: {exc}") from exc
    if min(n, n_imu) < 0:
        raise RecordingFormatError(
            f"{HEADER_NAME}: sample counts must not be negative, got n_samples {n}, "
            f"imu_n_samples {n_imu}"
        )

    signals = _read_bin(path / "signals.bin", len(roles), n)
    imu = _read_bin(path / "imu.bin", 3, n_imu) if n_imu else None

    try:
        annotations = [
            SeizureAnnotation(a["onset_s"], a["offset_s"], a.get("label", "seizure"))
            for a in header.get("annotations", [])
        ]
        return Recording(
            patient_id=header["patient_id"],
            sample_rate=float(header["sample_rate"]),
            channels={role: signals[i] for i, role in enumerate(roles)},
            imu=imu,
            imu_rate=float(header.get("imu_rate", 50.0)),
            annotations=annotations,
        )
    except KeyError as exc:
        raise RecordingFormatError(f"{HEADER_NAME}: annotation without {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise RecordingFormatError(f"{HEADER_NAME}: {exc}") from exc


def _read_bin(path: Path, n_rows: int, n_cols: int) -> np.ndarray:
    if not path.is_file():
        raise RecordingFormatError(f"missing payload file {path.name}")
    data = path.read_bytes()
    if len(data) != 8 * n_rows * n_cols:
        raise RecordingFormatError(
            f"{path.name}: expected {n_rows * n_cols} float64 values "
            f"({8 * n_rows * n_cols} bytes), got {len(data)} bytes"
        )
    return np.frombuffer(data, dtype="<f8").reshape(n_rows, n_cols).astype(np.float64)


_MAGIC = b"EARPIPE1\n"


def write_container(path: str | Path, header: dict, arrays: list[np.ndarray]) -> Path:
    """Store a JSON header plus named float64 arrays in one file.

    The header gains an ``"arrays"`` entry recording each array's shape so
    the payload can be sliced back out; arrays are flattened column-major.
    """
    path = Path(path)
    header = dict(header)
    header["arrays"] = [list(a.shape) for a in arrays]
    blob = b"".join(np.asfortranarray(a, dtype="<f8").tobytes(order="F") for a in arrays)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.uint64(len(head)).tobytes())
        fh.write(head)
        fh.write(blob)
    return path


def read_container(path: str | Path) -> tuple[dict, list[np.ndarray]]:
    """Read a file written by :func:`write_container`; a damaged one raises
    :class:`RecordingFormatError` naming the file."""
    path = Path(path)
    raw = path.read_bytes()
    if not raw.startswith(_MAGIC):
        raise RecordingFormatError(f"{path.name}: not a container file")
    off = len(_MAGIC) + 8
    head_len = int.from_bytes(raw[off - 8:off], "little")  # a cut length field still fails below
    if len(raw) < off + head_len:
        raise RecordingFormatError(f"{path.name}: truncated header")
    try:
        header = json.loads(raw[off:off + head_len].decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both are
        raise RecordingFormatError(f"{path.name}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise RecordingFormatError(f"{path.name}: malformed header: not a JSON object")
    off += head_len
    shapes = header.get("arrays", [])
    if not (isinstance(shapes, list) and all(_is_shape(shape) for shape in shapes)):
        raise RecordingFormatError(
            f"{path.name}: malformed header: arrays must be a list of shapes of "
            f"non-negative integers, got {shapes!r}"
        )
    counts = [math.prod(shape) for shape in shapes]
    if len(raw) - off != 8 * sum(counts):
        raise RecordingFormatError(
            f"{path.name}: payload of {len(raw) - off} bytes, header declares {8 * sum(counts)}"
        )
    arrays = []
    for shape, count in zip(shapes, counts):
        flat = np.frombuffer(raw[off:off + 8 * count], dtype="<f8")
        arrays.append(flat.reshape(shape, order="F").copy())
        off += 8 * count
    return header, arrays


def _is_shape(shape) -> bool:
    return isinstance(shape, list) and all(
        type(n) is int and n >= 0 for n in shape  # bool is an int subclass, not a size
    )
