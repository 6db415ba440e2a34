"""End-to-end command-line flows driven through main(argv)."""

import json

import numpy as np
import pytest

from earpipe.cli import main
from earpipe.io import load_recording, save_recording
from earpipe.nnmf import load_templates
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
        "bank": root / "bank.npz",
        "features": root / "features.csv",
        "model": root / "model.npz",
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
            "features", "--in", str(paths["sep"]), "--stride", "2",
            "--out", str(paths["features"]),
        ],
        [
            "train", "--features", str(paths["features"]), "--model", "svm",
            "--out", str(paths["model"]),
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

    def test_denoise_output_loads(self, artifacts):
        den = load_recording(artifacts["den"])
        assert den.n_samples == load_recording(artifacts["pre"]).n_samples

    def test_denoise_reports_capped_blocks(self, artifacts, tmp_path, capsys):
        """denoise prints how many VMD blocks stopped at the iteration cap."""
        assert main(["denoise", "--in", str(artifacts["pre"]), "--out", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        pre = load_recording(artifacts["pre"])
        reports = [
            r
            for x in pre.channels.values()
            for r in remove_motion_artifacts(x, pre.sample_rate, pre.imu, pre.imu_rate)[1]
        ]
        capped = sum(not r.converged for r in reports)
        assert f"{capped} of {len(reports)} blocks hit the VMD iteration cap" in out
        assert len(reports) == 2 * len(pre.channels)  # 40 s -> two 30 s blocks

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

    def test_trained_model_file_exists(self, artifacts):
        assert artifacts["model"].stat().st_size > 0


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

    def test_corpus_source_required(self, capsys):
        assert main(["evaluate", "--model", "rfc"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "corpus" in err["message"]


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

    def test_malformed_band_rejected(self, artifacts, capsys):
        code = main(["snr", "--in", str(artifacts["raw"]), "--band", "alpha"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"


class TestFailureReporting:
    def test_missing_input_is_json_error(self, capsys, tmp_path):
        code = main(["preprocess", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RecordingFormatError"
        assert "header.json" in err["message"]

    def test_nnmf_separation_needs_templates(self, artifacts, capsys, tmp_path):
        code = main([
            "separate", "--in", str(artifacts["raw"]), "--method", "nnmf",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "templates" in json.loads(capsys.readouterr().err)["message"]

    def test_denoise_without_imu_names_patient(self, capsys, tmp_path):
        rec = Recording(patient_id="noimu7", channels={r: np.zeros(2500) for r in MIXED_ROLES})
        save_recording(rec, tmp_path / "raw")
        code = main(["denoise", "--in", str(tmp_path / "raw"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "noimu7 has no IMU track" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")  # a warning would reach stderr before the JSON
    def test_train_on_header_only_csv_names_the_file(self, capsys, tmp_path):
        features = tmp_path / "empty.csv"
        features.write_text("patient,start_s,label,f0,f1\n")
        code = main(["train", "--features", str(features), "--model", "knn",
                     "--out", str(tmp_path / "model.bin")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{features}: no feature rows")
        assert not (tmp_path / "model.bin").exists()

    def test_truncated_template_bank_names_the_file(self, artifacts, capsys, tmp_path):
        bank = tmp_path / "bank.bin"
        bank.write_bytes(artifacts["bank"].read_bytes()[:-4])
        code = main(["separate", "--in", str(artifacts["raw"]), "--method", "nnmf",
                     "--templates", str(bank), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RecordingFormatError"
        assert err["message"].startswith("bank.bin: payload of ")

    def test_train_templates_rejects_mixed_rates(self, capsys, tmp_path):
        for name, rate in (("eeg", 250.0), ("emg", 500.0), ("eog", 250.0)):
            rec = Recording(patient_id=name, sample_rate=rate,
                            channels={r: np.zeros(5000) for r in MIXED_ROLES})
            save_recording(rec, tmp_path / name)
        code = main([
            "train-templates", "--eeg", str(tmp_path / "eeg"), "--emg", str(tmp_path / "emg"),
            "--eog", str(tmp_path / "eog"), "--out", str(tmp_path / "bank.npz"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "eeg 250 Hz, emg 500 Hz, eog 250 Hz" in err["message"]
        assert not (tmp_path / "bank.npz").exists()

    def test_cnn_training_redirects_to_evaluate(self, artifacts, capsys, tmp_path):
        code = main([
            "train", "--features", str(artifacts["features"]), "--model", "cnn",
            "--out", str(tmp_path / "m.npz"),
        ])
        assert code == 2
        assert "evaluate" in json.loads(capsys.readouterr().err)["message"]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("earpipe ")
