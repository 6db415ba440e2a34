"""Round-trip tests for recording directories and binary containers."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earpipe.io import (
    RecordingFormatError,
    load_recording,
    read_container,
    save_recording,
    write_container,
)
from earpipe.nnmf import MODALITIES, TemplateBank, load_templates, save_templates
from earpipe.signals import ChannelRole, Recording, SeizureAnnotation
from earpipe.stft import StftConfig


def _sample_recording(seed=0):
    rng = np.random.default_rng(seed)
    return Recording(
        patient_id="p07",
        sample_rate=250.0,
        channels={
            ChannelRole.MIXED_LEFT: rng.standard_normal(500),
            ChannelRole.MIXED_RIGHT: rng.standard_normal(500),
        },
        imu=rng.standard_normal((3, 100)),
        imu_rate=50.0,
        annotations=[SeizureAnnotation(0.4, 1.2, "synthetic")],
    )


def _after_path(path, message):
    """Pattern for an error message that starts with ``path`` and goes on with ``message``."""
    return rf"^{re.escape(str(path))}: {message}"


class TestRecordingRoundTrip:
    def test_bit_exact(self, tmp_path):
        rec = _sample_recording()
        save_recording(rec, tmp_path / "rec")
        back = load_recording(tmp_path / "rec")
        assert back.patient_id == rec.patient_id
        assert back.sample_rate == rec.sample_rate
        assert back.imu_rate == rec.imu_rate
        assert back.roles == rec.roles
        for role in rec.roles:
            np.testing.assert_array_equal(back.channels[role], rec.channels[role])
        np.testing.assert_array_equal(back.imu, rec.imu)
        assert back.annotations == rec.annotations

    def test_no_imu(self, tmp_path):
        rec = _sample_recording()
        rec.imu = None
        save_recording(rec, tmp_path / "rec")
        back = load_recording(tmp_path / "rec")
        assert back.imu is None

    def test_missing_header_raises(self, tmp_path):
        (tmp_path / "rec").mkdir()
        message = _after_path(tmp_path / "rec", r"no header\.json$")
        with pytest.raises(RecordingFormatError, match=message):
            load_recording(tmp_path / "rec")

    def test_corrupt_header_raises(self, tmp_path):
        d = tmp_path / "rec"
        d.mkdir()
        (d / "header.json").write_text("{not json")
        with pytest.raises(RecordingFormatError, match=_after_path(d, r"malformed header\.json")):
            load_recording(d)

    def test_header_not_utf8_names_the_directory(self, tmp_path):
        d = save_recording(_sample_recording(), tmp_path / "rec")
        raw = (d / "header.json").read_bytes()
        (d / "header.json").write_bytes(raw[:1] + b"\xff" + raw[2:])
        with pytest.raises(RecordingFormatError, match=_after_path(d, r"malformed header\.json")):
            load_recording(d)

    def test_truncated_payload_raises(self, tmp_path):
        rec = _sample_recording()
        path = save_recording(rec, tmp_path / "rec")
        data_file = path / "signals.bin"
        data_file.write_bytes(data_file.read_bytes()[:-16])
        with pytest.raises(RecordingFormatError, match=_after_path(path, r"signals\.bin: ")):
            load_recording(path)

    def test_payload_cut_inside_a_value_raises(self, tmp_path):
        path = save_recording(_sample_recording(), tmp_path / "rec")
        data_file = path / "signals.bin"
        data_file.write_bytes(data_file.read_bytes()[:-4])
        message = r"signals\.bin: expected 1000 float64"
        with pytest.raises(RecordingFormatError, match=_after_path(path, message)):
            load_recording(path)

    @staticmethod
    def _with_header(tmp_path, edit):
        path = save_recording(_sample_recording(), tmp_path / "rec")
        header = json.loads((path / "header.json").read_text())
        edit(header)
        (path / "header.json").write_text(json.dumps(header))
        return path

    def test_annotation_without_offset_names_the_file(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h["annotations"][0].pop("offset_s"))
        message = r"header\.json: annotation without 'offset_s'"
        with pytest.raises(RecordingFormatError, match=_after_path(path, message)):
            load_recording(path)

    def test_non_integer_sample_count_names_the_file(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h.update(n_samples="lots"))
        message = r"header\.json: sample counts must be integers"
        with pytest.raises(RecordingFormatError, match=_after_path(path, message)):
            load_recording(path)

    @pytest.mark.parametrize("key, value", [
        ("sample_rate", -5), ("sample_rate", float("nan")), ("imu_rate", 0),
    ])
    def test_bad_rate_names_the_file(self, tmp_path, key, value):
        path = self._with_header(tmp_path, lambda h: h.update({key: value}))
        message = rf"header\.json: {key} must be a finite number above 0"
        with pytest.raises(RecordingFormatError, match=_after_path(path, message)):
            load_recording(path)


    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.update(format_version=99), r"format_version must be 1, got 99"),
        (lambda h: h.pop("format_version"), r"format_version must be 1, got None"),
        (lambda h: h.update(patient_id=7), r"patient_id must be a string, got 7"),
        (lambda h: h.update(channels=5), r"channels must be a list of role names, got 5"),
        (lambda h: h.update(channels=["mixed_left", "mixed_left"]),
         r"channels must name each role once, got \['mixed_left', 'mixed_left'\]"),
        (lambda h: h.update(channels=[], n_samples=-5),
         r"sample counts must not be negative, got n_samples -5, imu_n_samples 100"),
        (lambda h: h.update(payload="csv"), r"unknown payload kind 'csv'"),
    ], ids=["version-99", "no-version", "integer-patient", "integer-channels",
            "duplicate-role", "negative-samples", "csv-payload"])
    def test_bad_header_field_names_the_file(self, tmp_path, edit, message):
        path = self._with_header(tmp_path, edit)
        with pytest.raises(RecordingFormatError, match=_after_path(path, rf"header\.json: {message}")):
            load_recording(path)


class TestContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal((4, 7)), rng.standard_normal(13)]
        header = {"kind": "test", "note": "x"}
        path = tmp_path / "blob.earpipe"
        write_container(path, header, arrays)
        back_header, back_arrays = read_container(path)
        assert back_header["kind"] == "test"
        assert back_header["note"] == "x"
        assert len(back_arrays) == 2
        for a, b in zip(arrays, back_arrays):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "blob.earpipe"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(RecordingFormatError):
            read_container(path)


class TestContainerDamage:
    """Every way a container can be cut or padded names the file."""

    @pytest.fixture
    def blob(self, tmp_path):
        path = tmp_path / "blob.earpipe"
        write_container(path, {"kind": "test"}, [np.arange(6.0).reshape(2, 3), np.ones(4)])
        return path

    @staticmethod
    def _head_end(raw):
        return 9 + 8 + int.from_bytes(raw[9:17], "little")  # magic, length, header

    @pytest.mark.parametrize("cut, message", [
        (lambda raw: raw[:9], "truncated header"),  # the magic bytes only
        (lambda raw: raw[:13], "truncated header"),
        (lambda raw: raw[:20], "truncated header"),
        (lambda raw: raw[:-4], "payload of 76 bytes, header declares 80"),
        (lambda raw: raw + b"\x00" * 8, "payload of 88 bytes, header declares 80"),
    ], ids=["magic-only", "cut-length", "cut-header", "cut-payload", "trailing-bytes"])
    def test_damaged_file_names_itself(self, blob, cut, message):
        blob.write_bytes(cut(blob.read_bytes()))
        with pytest.raises(RecordingFormatError, match=rf"^blob\.earpipe: {message}"):
            read_container(blob)

    @pytest.mark.parametrize("header", [b"{not json", b"\xff\xfe", b"[1, 2]"])
    def test_malformed_header_names_the_file(self, blob, header):
        raw = blob.read_bytes()
        blob.write_bytes(raw[:9] + len(header).to_bytes(8, "little") + header
                         + raw[self._head_end(raw):])
        with pytest.raises(RecordingFormatError, match=r"^blob\.earpipe: malformed header"):
            read_container(blob)

    @pytest.mark.parametrize("arrays", [
        "2x3", [[2, "3"]], [[2, -3]], [[2.0, 3]], [[True]], [6], {"a": [2, 3]},
    ])
    def test_bad_array_shapes_name_the_file(self, blob, arrays):
        raw = blob.read_bytes()
        header = json.dumps({"kind": "test", "arrays": arrays}).encode()
        blob.write_bytes(raw[:9] + len(header).to_bytes(8, "little") + header
                         + raw[self._head_end(raw):])
        message = r"^blob\.earpipe: malformed header: arrays must be a list of shapes"
        with pytest.raises(RecordingFormatError, match=message):
            read_container(blob)


def _saved(kind: str, root: Path):
    """Save one ``kind`` of file under ``root``.  Returns the file to damage,
    the path to load (the recording's directory, or the file itself) and
    the loader."""
    if kind == "bank":
        bank = TemplateBank(np.full((129, 3), 1 / 129), MODALITIES, 1, StftConfig(), 250.0)
        path = save_templates(bank, root / "bank.earpipe")
        return path, path, load_templates
    rec = save_recording(_sample_recording(), root / "rec")
    return rec / kind, rec, load_recording


class TestReaderFuzz:
    """A saved file cut short, or with one byte changed, either loads or
    raises RecordingFormatError naming the file (or the recording's
    directory); no other error escapes a reader."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["bank", "header.json", "signals.bin", "imu.bin"]),
        data=st.data(),
    )
    def test_damaged_file_loads_or_names_itself(self, kind, data):
        with tempfile.TemporaryDirectory() as tmp:
            damaged, loaded, load = _saved(kind, Path(tmp))
            raw = damaged.read_bytes()
            # every header lies within the first 600 bytes; past them, one
            # payload byte is like any other
            at = data.draw(st.integers(0, min(len(raw), 600) - 1), label="at")
            if data.draw(st.booleans(), label="truncate"):
                damaged.write_bytes(raw[:at])
            else:
                byte = data.draw(st.integers(0, 255), label="byte")
                damaged.write_bytes(raw[:at] + bytes([byte]) + raw[at + 1:])
            try:
                load(loaded)
            except RecordingFormatError as exc:
                assert (loaded.name if loaded.is_file() else str(loaded)) in str(exc)
