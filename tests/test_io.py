"""Round trips and damage for the on-disk format: recording and template bank directories."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earpipe.io import (
    TEXT,
    RecordingFormatError,
    load_directory,
    load_recording,
    read_bin,
    save_directory,
    save_recording,
)
from earpipe.nnmf import TemplateBank, load_templates, save_templates
from earpipe.signals import MODALITIES, ChannelRole, Recording, SeizureAnnotation
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


#: How an error describes the channel names a header may list.
_NAMES = r"a list of distinct names out of mixed_left, mixed_right, eeg_left, .*eog_right"


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
        message = r"header\.json: missing annotations\[0\]\.offset_s$"
        with pytest.raises(RecordingFormatError, match=_after_path(path, message)):
            load_recording(path)

    def test_non_integer_sample_count_names_the_file(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h.update(n_samples="lots"))
        message = r"header\.json: n_samples must be an integer of at least 0, got 'lots'$"
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
        (lambda h: h.pop("format_version"), r"missing format_version"),
        (lambda h: h.update(patient_id=7), r"patient_id must be a string, got 7"),
        (lambda h: h.update(channels=5), rf"channels must be {_NAMES}, got 5"),
        (lambda h: h.update(channels=["mixed_left", "mixed_left"]),
         rf"channels must be {_NAMES}, got \['mixed_left', 'mixed_left'\]"),
        (lambda h: h.update(channels=[], n_samples=-5),
         r"n_samples must be an integer of at least 0, got -5"),
        (lambda h: h.update(payload="csv"), r"payload must be 'bin', got 'csv'"),
        (lambda h: h.update(sample_rate=True),
         r"sample_rate must be a finite number above 0, got True"),
        (lambda h: h.update(imu_rate=True), r"imu_rate must be a finite number above 0, got True"),
        (lambda h: h.update(n_samples=4.9),
         r"n_samples must be an integer of at least 0, got 4\.9"),
        (lambda h: h.update(sample_rate="250"),
         r"sample_rate must be a finite number above 0, got '250'"),
        (lambda h: h.update(format_version=True), r"format_version must be 1, got True"),
        (lambda h: h["annotations"][0].update(onset_s="1"),
         r"annotations\[0\]\.onset_s must be a finite number, got '1'"),
        (lambda h: h.update(annotations={}), r"annotations must be a list, got \{\}"),
        (lambda h: h["annotations"][0].update(onset_s=2.0),
         r"annotation offset \(1\.2\) must exceed onset \(2\.0\)"),
        (lambda h: h.update(gain=2), r"unexpected keys \['gain'\] in the header"),
    ], ids=["version-99", "no-version", "integer-patient", "integer-channels",
            "duplicate-role", "negative-samples", "csv-payload", "true-rate", "true-imu-rate",
            "fractional-count", "text-rate", "true-version", "text-onset", "object-annotations",
            "onset-after-offset", "extra-key"])
    def test_bad_header_field_names_the_file(self, tmp_path, edit, message):
        path = self._with_header(tmp_path, edit)
        with pytest.raises(RecordingFormatError, match=_after_path(path, rf"header\.json: {message}")):
            load_recording(path)

    @pytest.mark.parametrize("name, at, value", [
        ("signals.bin", 17, float("nan")), ("imu.bin", 299, float("-inf")),
    ])
    def test_non_finite_payload_names_the_file(self, tmp_path, name, at, value):
        """A NaN or infinite sample is refused where it is read, naming the
        file, before conditioning, features or SNR could see it."""
        path = save_recording(_sample_recording(), tmp_path / "rec")
        values = np.frombuffer((path / name).read_bytes(), dtype="<f8").copy()
        values[at] = value
        (path / name).write_bytes(values.tobytes())
        message = rf"{re.escape(name)}: 1 of {values.size} values are NaN or infinite$"
        with pytest.raises(RecordingFormatError, match=_after_path(path, message)):
            load_recording(path)


class TestContainer:
    """The directory format itself: a header and named payloads."""

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {"a.bin": rng.standard_normal((4, 7)), "b.bin": rng.standard_normal((1, 13))}
        path = save_directory(tmp_path / "blob", {"note": "x"}, arrays)
        header, back = load_directory(path, {"note": TEXT}, lambda directory, header: (
            header, {name: read_bin(directory / name, *a.shape) for name, a in arrays.items()}
        ))
        assert header == {"format_version": 1, "note": "x"}
        for name, a in arrays.items():
            np.testing.assert_array_equal(back[name], a)


class TestContainerDamage:
    """Every way a saved bank's header or payload can be cut, padded or
    garbled names the directory and the file."""

    @pytest.fixture
    def bank(self, tmp_path):
        bank = TemplateBank(np.full((129, 3), 1 / 129), StftConfig(), 250.0)
        return save_templates(bank, tmp_path / "bank")

    @pytest.mark.parametrize("name, cut, message", [
        ("header.json", lambda raw: raw[:20], r"malformed header\.json"),
        ("w.bin", lambda raw: raw[:-4], r"w\.bin: expected 387 float64 values \(3096 bytes\), "
                                        r"got 3092 bytes$"),
        ("w.bin", lambda raw: raw + b"\x00" * 8, r"w\.bin: expected 387 float64 values "
                                                  r"\(3096 bytes\), got 3104 bytes$"),
    ], ids=["cut-header", "cut-payload", "trailing-bytes"])
    def test_damaged_file_names_itself(self, bank, name, cut, message):
        (bank / name).write_bytes(cut((bank / name).read_bytes()))
        with pytest.raises(RecordingFormatError, match=_after_path(bank, message)):
            load_templates(bank)

    @pytest.mark.parametrize("header, message", [
        (b"{not json", "malformed header\\.json"),
        (b"\xff\xfe", "malformed header\\.json"),
        (b"[1, 2]", r"header\.json: the header must be a JSON object, got \[1, 2\]"),
    ], ids=["{not json", "\xff\xfe", "[1, 2]"])
    def test_malformed_header_names_the_file(self, bank, header, message):
        (bank / "header.json").write_bytes(header)
        with pytest.raises(RecordingFormatError, match=_after_path(bank, message)):
            load_templates(bank)


def _saved(kind: str, root: Path):
    """Save a recording (``kind`` "recording") or a template bank ("bank")
    under ``root``.  Returns its directory and the loader."""
    if kind == "bank":
        bank = TemplateBank(np.full((129, 3), 1 / 129), StftConfig(), 250.0)
        return save_templates(bank, root / "bank"), load_templates
    return save_recording(_sample_recording(), root / "rec"), load_recording


class TestReaderFuzz:
    """A saved file cut short, or with one byte changed, either loads or
    raises RecordingFormatError naming its directory; no other error
    escapes a reader."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from([
            ("recording", "header.json"), ("recording", "signals.bin"), ("recording", "imu.bin"),
            ("bank", "header.json"), ("bank", "w.bin"),
        ]),
        data=st.data(),
    )
    def test_damaged_file_loads_or_names_itself(self, kind, data):
        with tempfile.TemporaryDirectory() as tmp:
            directory, load = _saved(kind[0], Path(tmp))
            damaged = directory / kind[1]
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
                load(directory)
            except RecordingFormatError as exc:
                assert str(directory) in str(exc)


#: Where each field of each header sits, as keys into the decoded JSON.
_FIELDS = {
    "recording": [
        ("format_version",), ("payload",), ("patient_id",), ("sample_rate",), ("imu_rate",),
        ("channels",), ("n_samples",), ("imu_n_samples",), ("annotations",),
        ("annotations", 0), ("annotations", 0, "onset_s"), ("annotations", 0, "offset_s"),
        ("annotations", 0, "label"),
    ],
    "bank": [
        ("format_version",), ("kind",), ("modalities",), ("rank",), ("stft",),
        ("stft", "window_len"), ("stft", "hop"), ("sample_rate",),
    ],
}

#: JSON values of the wrong type, sign or range for some field, and of the
#: right one for others.
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["bin", "nnmf_templates", "mixed_left", "eeg", "emg", "eog"]),
    st.lists(st.one_of(st.integers(-2, 2), st.sampled_from(["mixed_left", "eeg", "eoh"])),
             max_size=3),
    st.dictionaries(st.sampled_from(["onset_s", "offset_s", "label", "hop", "x"]),
                    st.one_of(st.integers(-2, 300), st.floats(), st.text(max_size=2)),
                    max_size=3),
)


class TestHeaderValues:
    """A header field given a value of the wrong type, sign or range, or
    dropped, either loads a valid object or raises RecordingFormatError
    naming the directory; no other error escapes a reader."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(_FIELDS)), data=st.data())
    def test_field_value_loads_or_names_the_directory(self, kind, data):
        keys = data.draw(st.sampled_from(_FIELDS[kind]), label="field")
        drop = data.draw(st.booleans(), label="drop")
        value = None if drop else data.draw(_VALUES, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            directory, load = _saved(kind, Path(tmp))
            header = json.loads((directory / "header.json").read_text())
            parent = header
            for key in keys[:-1]:
                parent = parent[key]
            if drop:
                del parent[keys[-1]]
            else:
                parent[keys[-1]] = value
            (directory / "header.json").write_text(json.dumps(header))
            try:
                loaded = load(directory)
            except RecordingFormatError as exc:
                assert str(exc).startswith(f"{directory}: ")
                return
        if kind == "bank":
            bins = loaded.stft_config.window_len // 2 + 1
            assert loaded.w.shape == (bins, loaded.rank * len(MODALITIES))
            assert np.all(loaded.w >= 0) and loaded.sample_rate > 0
        else:
            assert isinstance(loaded.sample_rate, float) and loaded.sample_rate > 0
            assert all(isinstance(a.label, str) for a in loaded.annotations)
            assert all(len(x) == loaded.n_samples for x in loaded.channels.values())
