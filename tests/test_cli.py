"""End-to-end command-line flows driven through main(argv)."""

import json
import shutil

import numpy as np
import pytest

from earpipe import evaluation
from earpipe.cli import build_parser, main
from earpipe.io import load_recording, save_recording
from earpipe.nnmf import load_templates
from earpipe.preprocess import PreprocessConfig, preprocess_recording
from earpipe.signals import MIXED_ROLES, SEPARATED_ROLES, Recording
from earpipe.vmd import remove_motion_artifacts


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One pass through the stagewise commands, shared by the tests below."""
    root = tmp_path_factory.mktemp("cli")
    spec = {
        "duration_s": 40.0,
        "patient_id": "cli00",
        "seed": 3,
        "components": [
            {"kind": "alpha_burst", "amplitude_mv": 0.1},
            {"kind": "blink", "amplitude_mv": 0.08, "freq_hz": 1.0},
            {"kind": "white_noise", "amplitude_mv": 0.005},
            {
                "kind": "spike_wave_seizure",
                "amplitude_mv": 0.3,
                "freq_hz": 3.0,
                "start_s": 15.0,
                "stop_s": 35.0,
            },
        ],
    }
    config = root / "spec.json"
    config.write_text(json.dumps(spec))
    paths = {
        "config": config,
        "raw": root / "raw",
        "pre": root / "pre",
        "den": root / "den",
        "sep": root / "sep",
        "bank": root / "bank",
        "features": root / "features.csv",
    }
    steps = [
        ["synth", "--config", str(config), "--out", str(paths["raw"])],
        ["preprocess", "--in", str(paths["raw"]), "--out", str(paths["pre"])],
        ["denoise", "--in", str(paths["pre"]), "--out", str(paths["den"])],
        ["train-templates", "--synthetic", "--out", str(paths["bank"])],
        [
            "separate", "--in", str(paths["den"]), "--method", "nnmf",
            "--templates", str(paths["bank"]), "--out", str(paths["sep"]),
        ],
        [
            "features", "--in", str(paths["sep"]), "--stride-s", "2",
            "--out", str(paths["features"]),
        ],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv[0]}"
    return paths


class TestStagewiseFlow:
    def test_synth_output_loads(self, artifacts):
        rec = load_recording(artifacts["raw"])
        assert rec.patient_id == "cli00"
        assert rec.duration_s == pytest.approx(40.0)
        assert len(rec.annotations) == 1
        assert rec.imu is not None

    def test_preprocess_keeps_layout(self, artifacts):
        raw = load_recording(artifacts["raw"])
        pre = load_recording(artifacts["pre"])
        assert tuple(pre.channels) == tuple(raw.channels)
        assert pre.n_samples == raw.n_samples

    def test_preprocess_defaults_are_the_config_defaults(self, artifacts, tmp_path):
        """With no setting flags, preprocess writes the bytes of the library
        chain run with ``PreprocessConfig()``."""
        rec = preprocess_recording(load_recording(artifacts["raw"]), PreprocessConfig())
        save_recording(rec, tmp_path / "lib")
        for name in ("header.json", "signals.bin", "imu.bin"):
            assert (tmp_path / "lib" / name).read_bytes() == (artifacts["pre"] / name).read_bytes()

    def test_denoise_output_loads(self, artifacts):
        den = load_recording(artifacts["den"])
        assert den.n_samples == load_recording(artifacts["pre"]).n_samples

    def test_denoise_reports_capped_blocks(self, artifacts, tmp_path, capsys):
        """denoise prints how many VMD blocks stopped at the iteration cap
        and how many it zeroed."""
        assert main(["denoise", "--in", str(artifacts["pre"]), "--out", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        pre = load_recording(artifacts["pre"])
        reports = [
            r
            for x in pre.channels.values()
            for r in remove_motion_artifacts(x, pre.sample_rate, pre.imu, pre.imu_rate)[1]
        ]
        capped = sum(not r.converged for r in reports)
        zeroed = sum(bool(r.excluded.all()) for r in reports)
        assert f"{capped} of {len(reports)} blocks hit the VMD iteration cap" in out
        assert f"{zeroed} of {len(reports)} blocks zeroed" in out
        assert len(reports) == len(pre.channels)  # 40 s -> one 40 s block

    def test_denoise_reports_zeroed_blocks(self, artifacts, tmp_path, capsys):
        """With every mode flagged (--motion-threshold -1), denoise zeroes
        every block and says so."""
        argv = ["denoise", "--in", str(artifacts["pre"]), "--out", str(tmp_path / "d"),
                "--motion-threshold", "-1"]
        with pytest.warns(UserWarning, match="every mode correlates with motion"):
            assert main(argv) == 0
        blocks = len(load_recording(artifacts["pre"]).channels)  # one 40 s block each
        assert f"{blocks} of {blocks} blocks zeroed" in capsys.readouterr().out
        for x in load_recording(tmp_path / "d").channels.values():
            np.testing.assert_array_equal(x, 0.0)

    def test_template_bank_loads(self, artifacts):
        bank = load_templates(artifacts["bank"])
        assert bank.w.shape[1] == 3 * bank.rank

    def test_separated_has_six_roles(self, artifacts):
        sep = load_recording(artifacts["sep"])
        assert tuple(sep.channels) == SEPARATED_ROLES

    def test_features_csv_shape(self, artifacts):
        lines = artifacts["features"].read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["patient", "start_s", "label"]
        assert len(header) == 3 + 348
        # 40 s at stride 2 -> 16 windows
        assert len(lines) == 1 + 16
        labels = {line.split(",")[2] for line in lines[1:]}
        assert labels == {"0", "1"}


class TestExperimentCommands:
    def test_evaluate_writes_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main([
            "evaluate", "--synthetic", "2", "--stride-s", "5", "--model", "rfc",
            "--motion", "off", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["tool"] == "earpipe"
        assert payload["config"]["model"] == "rfc"
        assert len(payload["folds"]) == 2
        assert "macro accuracy" in capsys.readouterr().out

    def test_evaluate_stdout_mode(self, capsys):
        code = main([
            "evaluate", "--synthetic", "2", "--stride-s", "9", "--model", "rfc",
            "--motion", "off",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["macro"]) == {
            "accuracy", "precision", "recall", "specificity", "f1",
        }

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--synthetic", "2", "--stride-s", "5", "--model", "rfc",
            "--motion", "off", "--axis", "ratio", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "axis,value,macro_accuracy,macro_recall,macro_f1,micro_accuracy"
        assert [l.split(",")[1] for l in lines[1:]] == ["1:1", "1:2", "1:3"]

    def test_axis_choices_are_the_sweep_axes(self):
        subcommands = next(a for a in build_parser()._actions if a.dest == "command")
        axis = next(a for a in subcommands.choices["sweep"]._actions if a.dest == "axis")
        assert axis.choices == sorted(evaluation.SWEEP_AXES)

    def test_corpus_source_required(self, capsys):
        assert main(["evaluate", "--model", "rfc"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "corpus" in err["message"]

    @pytest.mark.parametrize("command", [["evaluate"], ["sweep", "--axis", "stride"]],
                             ids=["evaluate", "sweep"])
    def test_two_corpus_sources_refused(self, capsys, tmp_path, monkeypatch, command):
        """``--synthetic`` and ``--corpus`` together are refused by name, not
        settled by dropping one of them."""
        def refuse(*args, **kwargs):
            raise AssertionError("a corpus was built")

        monkeypatch.setattr("earpipe.corpus.make_synthetic_corpus", refuse)
        monkeypatch.setattr("earpipe.cli._load_corpus", refuse)
        code = main([*command, "--synthetic", "2", "--corpus", str(tmp_path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "--corpus" in err["message"] and "--synthetic" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["evaluate"], ["sweep", "--axis", "stride"]],
                             ids=["evaluate", "sweep"])
    def test_templates_with_emd_refused(self, capsys, tmp_path, monkeypatch, command):
        """A template bank given to EMD separation is refused by name before
        a corpus is built, not dropped without a word."""
        def refuse(*args, **kwargs):
            raise AssertionError("a corpus or bank was built")

        monkeypatch.setattr("earpipe.corpus.make_synthetic_corpus", refuse)
        monkeypatch.setattr("earpipe.nnmf.load_templates", refuse)
        code = main([*command, "--synthetic", "2", "--separation", "emd", "--motion", "off",
                     "--templates", str(tmp_path / "no-bank"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "--templates" in err["message"] and "--separation emd" in err["message"]
        assert not (tmp_path / "o").exists()


class TestSnrCommand:
    def test_single_mode_default_bands(self, artifacts, capsys):
        code = main(["snr", "--in", str(artifacts["raw"])])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "single"
        assert "mixed_left" in payload["bands"]
        assert "alpha" in payload["bands"]["mixed_left"]

    def test_compare_mode_custom_band(self, artifacts, tmp_path):
        out = tmp_path / "snr.json"
        code = main([
            "snr", "--in", str(artifacts["raw"]), "--processed", str(artifacts["pre"]),
            "--band", "alpha=8:12", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "compare"
        entry = payload["bands"]["mixed_left"]["alpha"]
        assert set(entry) == {"raw_db", "processed_db", "delta_db"}

    @pytest.mark.parametrize("processed, message", [
        (lambda x: (125.0, x[::2]), "sample_rate 125, the raw one 250"),
        (lambda x: (250.0, x[:-250]), "n_samples 4750, the raw one 5000"),
    ], ids=["half-rate", "shorter"])
    def test_processed_of_another_rate_or_length_rejected(
        self, tmp_path, capsys, processed, message
    ):
        """A 125 Hz copy of a 250 Hz, 10 Hz tone, or one cut 1 s short, is
        refused, naming both values, instead of scoring a bogus delta."""
        tone = np.sin(2 * np.pi * 10.0 * np.arange(5000) / 250.0)
        save_recording(Recording("p01", 250.0, {MIXED_ROLES[0]: tone}), tmp_path / "raw")
        rate, x = processed(tone)
        save_recording(Recording("p01", rate, {MIXED_ROLES[0]: x}), tmp_path / "proc")
        code = main(["snr", "--in", str(tmp_path / "raw"), "--processed", str(tmp_path / "proc"),
                     "--out", str(tmp_path / "snr.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert f"processed recording has {message}" in err["message"]
        assert not (tmp_path / "snr.json").exists()

    def test_malformed_band_rejected(self, capsys, tmp_path):
        """A band that is not name=lo:hi with numeric bounds is refused,
        naming the spec, before the recording (here missing) is read."""
        for spec in ("alpha", "alpha=8:12:14", "alpha=:12", "alpha=a:b"):
            code = main(["snr", "--in", str(tmp_path / "missing"), "--band", spec])
            assert code == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError"
            assert err["message"] == (f"band {spec!r} should look like name=lo:hi, "
                                      "with lo and hi numbers in Hz")


class TestFailureReporting:
    def test_missing_input_is_json_error(self, capsys, tmp_path):
        code = main(["preprocess", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RecordingFormatError"
        assert "header.json" in err["message"]

    @pytest.mark.parametrize("damage, message", [
        (lambda rec: rec.joinpath("signals.bin").write_bytes(
            rec.joinpath("signals.bin").read_bytes()[:-4]), "signals.bin: expected "),
        (lambda rec: rec.joinpath("header.json").unlink(), "no header.json"),
    ], ids=["payload", "header"])
    def test_damaged_recording_in_corpus_names_its_directory(
        self, capsys, tmp_path, damage, message
    ):
        corpus = tmp_path / "corpus"
        for name in ("p01", "p02", "p03"):
            rec = Recording(patient_id=name, channels={r: np.zeros(2500) for r in MIXED_ROLES})
            save_recording(rec, corpus / name)
        damage(corpus / "p02")
        code = main(["evaluate", "--corpus", str(corpus), "--out", str(tmp_path / "o.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RecordingFormatError"
        assert err["message"].startswith(f"{corpus / 'p02'}: {message}")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("config, message", [
        ({"model": "xgb"}, "unknown model kind 'xgb'"),
        ({"ratio": "1:4"}, "ratio must be one of 1:1, 1:2, 1:3, got '1:4'"),
        ({"motion_threshold": "0.3"}, "motion_threshold must be a finite number, got '0.3'"),
        ({"motion_threshold": float("nan")}, "motion_threshold must be a finite number, got nan"),
        ({"mains_hz": 0}, "mains_hz must be a finite number above 0, got 0"),
        ({"master_seed": -1}, "master_seed must be an integer of at least 0, got -1"),
        ({"strides": 3}, "the experiment config has unknown keys ['strides']; the keys are "
                         "['stride_s', 'ratio', 'model', "),
        (["--model", "lda"], "unknown model kind 'lda'; expected one of "
                             "['cnn', 'knn', 'rfc', 'svm']"),
        (["--ratio", "1:4"], "ratio must be one of 1:1, 1:2, 1:3, got '1:4'"),
        (["--separation", "ica"], "unknown separation method 'ica'"),
        (["--motion", "imu"], "unknown motion mode 'imu'"),
        (["--normalization", "l2"], "unknown normalization mode 'l2'"),
    ])
    def test_bad_config_file_rejected_before_stage_a(
        self, capsys, tmp_path, monkeypatch, config, message
    ):
        """A bad value or an unknown key in a --config file (a dict here),
        or a bad value given as a flag (a list of flags here), is refused by
        the config itself, naming the field, before any recording is
        prepared."""
        def refuse(*args, **kwargs):
            raise AssertionError("stage A ran")

        monkeypatch.setattr(evaluation, "prepare_corpus", refuse)
        if isinstance(config, dict):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(config))
            config = ["--config", str(path)]
        code = main(["evaluate", "--synthetic", "2", "--separation", "emd", "--motion", "off",
                     *config, "--out", str(tmp_path / "o.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert message in err["message"]
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("count", ["1", "0", "-2"])
    @pytest.mark.parametrize("command", [["evaluate"], ["sweep", "--axis", "stride"]],
                             ids=["evaluate", "sweep"])
    def test_synthetic_below_two_refused_by_name(self, capsys, tmp_path, monkeypatch, command,
                                                 count):
        """Leave-one-patient-out needs two patients, so ``--synthetic`` below 2
        is refused by name before a corpus is synthesized."""
        def refuse(*args, **kwargs):
            raise AssertionError("a corpus was synthesized")

        monkeypatch.setattr("earpipe.corpus.make_synthetic_corpus", refuse)
        code = main([*command, "--synthetic", count, "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == (f"--synthetic must be at least 2, got {count}: "
                                  "leave-one-patient-out needs at least two patients")
        assert not (tmp_path / "o").exists()

    def test_mains_at_nyquist_names_the_field(self, capsys, tmp_path):
        """The config cannot know the recordings' rate, so a ``mains_hz`` of
        200 Hz passes it and is refused by name when stage A conditions the
        recordings."""
        (tmp_path / "mains.json").write_text(json.dumps({"mains_hz": 200}))
        code = main(["evaluate", "--synthetic", "2", "--separation", "emd", "--motion", "off",
                     "--config", str(tmp_path / "mains.json"), "--out", str(tmp_path / "o.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == ("mains_hz must be above 0 and below the Nyquist rate, "
                                  "125 Hz, of a recording sampled at 250 Hz, got 200")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command, flags, field, value", [
        ("features", ["--stride-s", "--stride"], "stride_s", ["3"]),
        ("denoise", ["--motion-threshold", "--threshold"], "motion_threshold", ["0.5"]),
        ("preprocess", ["--bandpass-hz", "--bandpass"], "bandpass_hz", ["1", "30"]),
    ])
    def test_flag_named_after_its_field_and_old_spelling_agree(self, command, flags, field,
                                                              value):
        parser = build_parser()
        parsed = [
            getattr(parser.parse_args([command, "--in", "i", "--out", "o", flag, *value]), field)
            for flag in flags
        ]
        assert parsed[0] == parsed[1] is not None

    def test_bad_stride_names_the_flag_typed(self, capsys, tmp_path):
        """Refused before the (missing) recording is read."""
        code = main(["features", "--in", str(tmp_path / "missing"), "--out",
                     str(tmp_path / "f.csv"), "--stride-s", "0"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith("stride_s must be")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("spec", [None, {"duration_s": 10.0, "seed": 3}, {"components": []}],
                             ids=["no-config", "no-components", "empty-components"])
    def test_synth_without_components_rejected(self, capsys, tmp_path, spec):
        """A spec with nothing to render is refused by name, not written as
        an all-zero recording."""
        argv = ["synth", "--out", str(tmp_path / "raw")]
        if spec is not None:
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            argv += ["--config", str(tmp_path / "spec.json")]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert '"components"' in err["message"]
        assert not (tmp_path / "raw").exists()

    def test_nnmf_separation_needs_templates(self, artifacts, capsys, tmp_path):
        code = main([
            "separate", "--in", str(artifacts["raw"]), "--method", "nnmf",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "templates" in json.loads(capsys.readouterr().err)["message"]

    def test_emd_separation_refuses_templates(self, artifacts, capsys, tmp_path):
        """``separate --method emd`` refuses a bank it would not use."""
        code = main([
            "separate", "--in", str(artifacts["raw"]), "--method", "emd",
            "--templates", str(artifacts["bank"]), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "--templates" in err["message"] and "--method emd" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_denoise_without_imu_names_patient(self, capsys, tmp_path):
        rec = Recording(patient_id="noimu7", channels={r: np.zeros(2500) for r in MIXED_ROLES})
        save_recording(rec, tmp_path / "raw")
        code = main(["denoise", "--in", str(tmp_path / "raw"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "noimu7 has no IMU track" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_bad_preprocess_setting_names_the_field(self, artifacts, capsys, tmp_path):
        code = main(["preprocess", "--in", str(artifacts["raw"]), "--out", str(tmp_path / "o"),
                     "--outlier-sigma", "nan"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith("outlier_sigma must be")
        assert not (tmp_path / "o").exists()

    def test_truncated_template_bank_names_the_file(self, artifacts, capsys, tmp_path):
        bank = shutil.copytree(artifacts["bank"], tmp_path / "bank")
        (bank / "w.bin").write_bytes((bank / "w.bin").read_bytes()[:-4])
        code = main(["separate", "--in", str(artifacts["raw"]), "--method", "nnmf",
                     "--templates", str(bank), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RecordingFormatError"
        assert err["message"].startswith(f"{bank}: w.bin: expected ")

    @pytest.mark.parametrize("argv, damaged", [
        (["separate", "--in", "{raw}", "--method", "nnmf", "--templates", "{copy}"], "w.bin"),
        (["snr", "--in", "{copy}"], "signals.bin"),
    ], ids=["bank", "recording"])
    def test_nan_payload_names_the_file(self, artifacts, capsys, tmp_path, argv, damaged):
        """One NaN in a bank's templates or a recording's samples is refused
        when read, instead of separating into NaN channels or scoring NaN."""
        source = artifacts["bank"] if damaged == "w.bin" else artifacts["raw"]
        copy = shutil.copytree(source, tmp_path / "copy")
        values = np.frombuffer((copy / damaged).read_bytes(), dtype="<f8").copy()
        values[7] = np.nan
        (copy / damaged).write_bytes(values.tobytes())
        argv = [a.format(raw=artifacts["raw"], copy=copy) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RecordingFormatError"
        assert err["message"].startswith(f"{copy}: {damaged}: 1 of ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change, message", [
        ({"kind": "blink", "freq_hz": 0}, "freq_hz must be a finite number above 0, got 0"),
        ({"kind": "tone", "amplitude_mv": float("nan")},
         "amplitude_mv must be a finite nonnegative number, got nan"),
        ({"kind": "tone", "start_s": 5.0, "stop_s": 2.0},
         "stop_s must be a finite number above start_s (5.0), got 2.0"),
        ({"kind": "tone", "start_s": 12.0},
         "components[0] (tone): start_s 12.0 and stop_s None cover no sample of the 10.0 s "
         "recording"),
        ({"kind": "blink", "freq_hz": 200},
         "freq_hz must be below 125 Hz, the Nyquist rate at 250 Hz, got 200"),
        ({"kind": "tone", "phase": 1.0},
         "components[0] has unknown keys ['phase']; the keys are "
         "['kind', 'amplitude_mv', 'freq_hz', 'start_s', 'stop_s']"),
        ({"duration_s": "5"}, "duration_s must be a finite number above 0, got '5'"),
        ({"seed": 3.9}, "seed must be an integer 0 or above, got 3.9"),
        ({"patient_id": 7}, "patient_id must be a string, got 7"),
        ({"sample_rate": 500}, "the synthesis spec has unknown keys ['sample_rate']; the keys "
                               "are ['duration_s', 'components', 'patient_id', 'seed']"),
        ({"components": [{"kind": "tone"}]}, "components[0] lacks the keys ['amplitude_mv']"),
        ({"components": [3]}, "components[0] must be a JSON object, got 3"),
        ({"components": {"kind": "tone"}}, "components must be a JSON list, got {'kind': 'tone'}"),
    ], ids=["zero-rate", "nan-amplitude", "stop-before-start", "start-after-end",
            "rate-above-nyquist", "unknown-component-key", "string-duration", "float-seed",
            "int-patient", "sample-rate", "missing-amplitude", "number-component",
            "object-components"])
    def test_bad_synthesis_value_names_the_field(self, capsys, tmp_path, change, message):
        """A value is read as typed, not coerced, and a key the spec does not
        take is refused by name instead of being dropped. A ``kind`` in
        ``change`` makes it the one component's values, with amplitude 0.1;
        otherwise it changes the spec's top-level keys."""
        spec = {"duration_s": 10.0, "components": [{"kind": "tone", "amplitude_mv": 0.1}]}
        if "kind" in change:
            spec["components"] = [{"amplitude_mv": 0.1, **change}]
        else:
            spec.update(change)
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        code = main(["synth", "--config", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "raw")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == message
        assert not (tmp_path / "raw").exists()

    def test_train_templates_rejects_mixed_rates(self, capsys, tmp_path):
        for name, rate in (("eeg", 250.0), ("emg", 500.0), ("eog", 250.0)):
            rec = Recording(patient_id=name, sample_rate=rate,
                            channels={r: np.zeros(5000) for r in MIXED_ROLES})
            save_recording(rec, tmp_path / name)
        code = main([
            "train-templates", "--eeg", str(tmp_path / "eeg"), "--emg", str(tmp_path / "emg"),
            "--eog", str(tmp_path / "eog"), "--out", str(tmp_path / "bank"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "eeg 250 Hz, emg 500 Hz, eog 250 Hz" in err["message"]
        assert not (tmp_path / "bank").exists()

    @pytest.mark.parametrize("flags", [["--eeg", "raw"], ["--emg", "a", "--eog", "b"]])
    def test_train_templates_synthetic_refuses_source_flags(self, capsys, tmp_path, flags):
        """``--synthetic`` trains from the built-in sources, so a source flag
        next to it is refused by name, not dropped."""
        code = main(["train-templates", "--synthetic", *flags, "--out", str(tmp_path / "bank")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "--synthetic" in err["message"]
        assert all(flag in err["message"] for flag in flags[::2])
        assert not (tmp_path / "bank").exists()

    def test_train_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--features", "f.csv", "--out", "m.bin"])
        assert exc.value.code == 2
        assert "invalid choice: 'train'" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("earpipe ")
