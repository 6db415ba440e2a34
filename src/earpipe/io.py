"""On-disk format: a directory of ``header.json`` plus raw float64 payloads.

Recordings and NNMF template banks are both stored this way.  A payload
file holds little-endian float64 values, row-major, in the shape that the
header gives: ``signals.bin`` (channels x samples) and ``imu.bin``
(3 x samples) for a recording, ``w.bin`` (bins x columns) for a bank.
One reader checks every header against the fields its format declares,
each of one kind below; one reader checks every payload's size and refuses
NaN and infinite values.  A damaged directory raises
:class:`RecordingFormatError` starting with its path and naming the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import numpy as np

from .signals import ChannelRole, Recording, SeizureAnnotation, finite

HEADER_NAME = "header.json"
FORMAT_VERSION = 1


class RecordingFormatError(ValueError):
    """Raised when a saved directory is missing pieces or inconsistent."""


# Field kinds: a test of the decoded JSON value, and what an error says
# the field must be.  A dict of kinds is an object with exactly those
# keys, and a one-item list a list of such items.
def exactly(value) -> tuple:
    """The one value ``value``, of its own type (``true`` is not ``1``)."""
    return lambda v: type(v) is type(value) and v == value, repr(value)


def integer(least: int) -> tuple:
    """An integer of at least ``least``; a bool is not one."""
    return lambda v: type(v) is int and v >= least, f"an integer of at least {least}"


NUMBER = (finite, "a finite number")
RATE = (lambda v: finite(v) and v > 0, "a finite number above 0")
TEXT = (lambda v: isinstance(v, str), "a string")
_ROLES = [role.value for role in ChannelRole]
ROLES = (
    lambda v: isinstance(v, list) and all(n in _ROLES for n in v) and len(set(v)) == len(v),
    f"a list of distinct names out of {', '.join(_ROLES)}",
)

#: The fields of a recording's header.json.
RECORDING_FIELDS = {
    "payload": exactly("bin"),
    "patient_id": TEXT,
    "sample_rate": RATE,
    "imu_rate": RATE,
    "channels": ROLES,
    "n_samples": integer(0),
    "imu_n_samples": integer(0),
    "annotations": [{"onset_s": NUMBER, "offset_s": NUMBER, "label": TEXT}],
}


def save_directory(path: str | Path, header: dict, payloads: dict[str, np.ndarray]) -> Path:
    """Write ``header`` (plus ``format_version``) as ``header.json`` and each
    payload array as its raw bytes under directory ``path``; returns the path."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    header = {"format_version": FORMAT_VERSION, **header}
    (path / HEADER_NAME).write_text(json.dumps(header, indent=2, sort_keys=True))
    for name, array in payloads.items():
        (path / name).write_bytes(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return path


def load_directory(path: str | Path, fields: dict, build: Callable[[Path, dict], object]):
    """``build(path, header)`` for the header of directory ``path``, read
    against ``fields``.

    ``build`` reads its payloads with :func:`read_bin`.  A damaged directory,
    or a ``ValueError`` from ``build`` (header values that the kinds allow
    but that contradict each other), raises :class:`RecordingFormatError`
    starting with ``path``.
    """
    path = Path(path)
    try:
        return build(path, _read_header(path, fields))
    except RecordingFormatError as exc:
        raise RecordingFormatError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise RecordingFormatError(f"{path}: {HEADER_NAME}: {exc}") from exc


def _read_header(path: Path, fields: dict) -> dict:
    header_path = path / HEADER_NAME
    if not header_path.is_file():
        raise RecordingFormatError(f"no {HEADER_NAME}")
    try:
        header = json.loads(header_path.read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both are
        raise RecordingFormatError(f"malformed {HEADER_NAME}: {exc}") from exc
    _check(header, {"format_version": exactly(FORMAT_VERSION), **fields}, "")
    return header


def _check(value, kind, name: str) -> None:
    """Raise unless ``value``, found at ``name`` in the header, is of ``kind``."""
    if isinstance(kind, dict):
        where = name or "the header"
        if not isinstance(value, dict):
            raise _wrong(where, "a JSON object", value)
        for key, field_kind in kind.items():
            field = f"{name}.{key}" if name else key
            if key not in value:
                raise RecordingFormatError(f"{HEADER_NAME}: missing {field}")
            _check(value[key], field_kind, field)
        extra = sorted(set(value) - set(kind))
        if extra:
            raise RecordingFormatError(f"{HEADER_NAME}: unexpected keys {extra} in {where}")
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise _wrong(name, "a list", value)
        for i, item in enumerate(value):
            _check(item, kind[0], f"{name}[{i}]")
    elif not kind[0](value):
        raise _wrong(name, kind[1], value)


def _wrong(name: str, description: str, value) -> RecordingFormatError:
    return RecordingFormatError(f"{HEADER_NAME}: {name} must be {description}, got {value!r}")


def read_bin(path: Path, n_rows: int, n_cols: int) -> np.ndarray:
    """The ``n_rows x n_cols`` float64 payload at ``path``; a missing file, a
    wrong byte count or a NaN or infinite value raises
    :class:`RecordingFormatError` naming the file."""
    if not path.is_file():
        raise RecordingFormatError(f"missing payload file {path.name}")
    data = path.read_bytes()
    if len(data) != 8 * n_rows * n_cols:
        raise RecordingFormatError(
            f"{path.name}: expected {n_rows * n_cols} float64 values "
            f"({8 * n_rows * n_cols} bytes), got {len(data)} bytes"
        )
    values = np.frombuffer(data, dtype="<f8").reshape(n_rows, n_cols).astype(np.float64)
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise RecordingFormatError(
            f"{path.name}: {bad} of {values.size} values are NaN or infinite"
        )
    return values


def save_recording(rec: Recording, path: str | Path) -> Path:
    """Write ``rec`` under directory ``path``; returns the directory path."""
    header = {
        "payload": "bin",
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
    payloads = {"signals.bin": rec.channel_matrix() if rec.channels else np.zeros((0, 0))}
    if rec.imu is not None:
        payloads["imu.bin"] = rec.imu
    return save_directory(path, header, payloads)


def load_recording(path: str | Path) -> Recording:
    """Read a recording directory written by :func:`save_recording`.

    A damaged one raises :class:`RecordingFormatError`, its message starting
    with the directory's path.
    """
    return load_directory(path, RECORDING_FIELDS, _build_recording)


def _build_recording(path: Path, header: dict) -> Recording:
    roles = [ChannelRole(name) for name in header["channels"]]
    signals = read_bin(path / "signals.bin", len(roles), header["n_samples"])
    n_imu = header["imu_n_samples"]
    return Recording(
        patient_id=header["patient_id"],
        sample_rate=float(header["sample_rate"]),
        channels={role: signals[i] for i, role in enumerate(roles)},
        imu=read_bin(path / "imu.bin", 3, n_imu) if n_imu else None,
        imu_rate=float(header["imu_rate"]),
        annotations=[
            SeizureAnnotation(a["onset_s"], a["offset_s"], a["label"])
            for a in header["annotations"]
        ],
    )
