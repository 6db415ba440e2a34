"""SNR reporting, metrics math, fold planning, and the experiment loop."""

import dataclasses

import numpy as np
import pytest

from earpipe import evaluation
from earpipe.evaluation import (
    ExperimentConfig,
    Metrics,
    band_snr,
    compare_snr,
    confusion,
    epoch_band_snr,
    lopo_folds,
    macro_average,
    micro_average,
    run_experiment,
    sweep,
)
from earpipe.signals import ChannelRole, Recording, SeizureAnnotation, SEPARATED_ROLES

FS = 250.0


def _tone_plus_noise(tone_amp=1.0, noise_sd=0.05, duration_s=30.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration_s * FS)) / FS
    return tone_amp * np.sin(2 * np.pi * 10.0 * t) + noise_sd * rng.standard_normal(len(t))


class TestBandSnr:
    def test_tone_dominates_its_band(self):
        x = _tone_plus_noise()
        assert band_snr(x, FS, (8.0, 12.0)) > 20.0

    def test_empty_band_negative(self):
        """A band holding only noise scores below the tone's residue."""
        x = _tone_plus_noise()
        assert band_snr(x, FS, (40.0, 60.0)) < 0.0

    def test_open_ended_band(self):
        x = _tone_plus_noise()
        low = band_snr(x, FS, (0.0, 20.0))
        high = band_snr(x, FS, (20.0, None))
        assert low > 0.0 > high

    def test_all_or_nothing_band_rejected(self):
        x = _tone_plus_noise(duration_s=2.0)
        with pytest.raises(ValueError, match="leaves nothing"):
            band_snr(x, FS, (0.0, None))
        with pytest.raises(ValueError, match="leaves nothing"):
            band_snr(x, FS, (130.0, 140.0))

    def test_epoch_chunking(self):
        x = _tone_plus_noise(duration_s=35.0)
        vals = epoch_band_snr(x, FS, (8.0, 12.0), epoch_s=10.0)
        assert vals.shape == (3,)  # the 5 s remainder is dropped
        assert np.all(vals > 10.0)

    def test_epoch_too_long_rejected(self):
        with pytest.raises(ValueError, match="shorter than one epoch"):
            epoch_band_snr(np.zeros(100), FS, (8.0, 12.0), epoch_s=10.0)

    def test_compare_identity_is_zero_delta(self):
        x = _tone_plus_noise()
        out = compare_snr(x, x, FS, {"alpha": (8.0, 12.0)})
        assert out["alpha"]["delta_db"] == pytest.approx(0.0, abs=1e-12)

    def test_compare_reports_cleanup_gain(self):
        noisy = _tone_plus_noise(noise_sd=0.5, seed=1)
        clean = _tone_plus_noise(noise_sd=0.01, seed=2)
        out = compare_snr(noisy, clean, FS, {"alpha": (8.0, 12.0)})
        assert out["alpha"]["delta_db"] > 10.0
        assert out["alpha"]["processed_db"] == pytest.approx(
            out["alpha"]["raw_db"] + out["alpha"]["delta_db"]
        )


class TestMetrics:
    def test_frozen_confusion(self):
        m = confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 1, 1, 1)
        assert m.accuracy == pytest.approx(0.6)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.specificity == pytest.approx(0.5)
        assert m.f1 == pytest.approx(2 / 3)

    def test_degenerate_denominators(self):
        """All-negative data defines the undefined rates as zero."""
        m = Metrics(tp=0, fp=0, tn=5, fn=0)
        assert m.accuracy == 1.0
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.specificity == 1.0
        assert m.f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            confusion([1, 0], [1])

    def test_macro_average(self):
        folds = [Metrics(5, 0, 5, 0), Metrics(1, 1, 1, 1)]
        macro = macro_average(folds)
        assert macro["accuracy"] == pytest.approx(0.75)
        assert macro["recall"] == pytest.approx(0.75)

    def test_macro_empty_rejected(self):
        with pytest.raises(ValueError, match="no folds"):
            macro_average([])

    def test_micro_pools_counts(self):
        micro = micro_average([Metrics(1, 2, 3, 4), Metrics(10, 20, 30, 40)])
        assert (micro.tp, micro.fp, micro.tn, micro.fn) == (11, 22, 33, 44)

    def test_to_dict_round_numbers(self):
        d = Metrics(2, 1, 1, 1).to_dict()
        assert d["tp"] == 2
        assert d["accuracy"] == pytest.approx(0.6)


class TestFoldPlanning:
    def test_one_fold_per_patient(self):
        folds = lopo_folds(["p02", "p00", "p01", "p01"])
        assert [f.test_patient for f in folds] == ["p00", "p01", "p02"]
        for f in folds:
            assert f.test_patient not in f.train_patients
            assert len(f.train_patients) == 2

    def test_single_patient_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            lopo_folds(["p00", "p00"])


def _separated_patient(patient_id, seed, duration_s=60.0, fs=FS):
    """Synthetic separated recording whose seizure windows carry a tone."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * fs)
    t = np.arange(n) / fs
    onset, offset = 20.0, 40.0
    ictal = (t >= onset) & (t <= offset)
    channels = {}
    for role in SEPARATED_ROLES:
        x = 0.02 * rng.standard_normal(n)
        x[ictal] += 0.2 * np.sin(2 * np.pi * 3.0 * t[ictal] + rng.uniform(0, 2 * np.pi))
        channels[role] = x
    return Recording(
        patient_id=patient_id,
        sample_rate=fs,
        channels=channels,
        annotations=[SeizureAnnotation(onset_s=onset, offset_s=offset)],
    )


@pytest.fixture(scope="module")
def separated():
    return [_separated_patient(f"p{i:02d}", seed=i) for i in range(3)]


class TestRunExperiment:
    def test_result_structure(self, separated):
        cfg = ExperimentConfig(stride_s=3, model="knn")
        result = run_experiment([], cfg, separated=separated)
        assert [f["patient"] for f in result.folds] == ["p00", "p01", "p02"]
        assert set(result.macro) == {"accuracy", "precision", "recall", "specificity", "f1"}
        assert result.micro.total == sum(f["n_test"] for f in result.folds)
        d = result.to_dict()
        assert d["config"]["model"] == "knn"
        assert len(d["folds"]) == 3

    def test_easy_problem_is_solved(self, separated):
        """A loud shared ictal tone is recovered well above chance.

        Windows that straddle the onset carry the tone but count as
        background, so even this easy problem tops out below perfect.
        """
        cfg = ExperimentConfig(stride_s=3, model="knn")
        result = run_experiment([], cfg, separated=separated)
        assert result.macro["accuracy"] > 0.75
        assert result.macro["recall"] > 0.75

    def test_deterministic_given_config(self, separated):
        cfg = ExperimentConfig(stride_s=3, model="rfc")
        r1 = run_experiment([], cfg, separated=separated)
        r2 = run_experiment([], cfg, separated=separated)
        assert r1.to_dict() == r2.to_dict()

    def test_seed_changes_balance_draw(self, separated):
        a = run_experiment([], ExperimentConfig(stride_s=3, master_seed=0), separated=separated)
        b = run_experiment([], ExperimentConfig(stride_s=3, master_seed=1), separated=separated)
        assert a.folds[0]["n_train"] == b.folds[0]["n_train"]

    def test_cnn_path_runs(self, separated):
        """The raw-window branch trains and scores without features."""
        cfg = ExperimentConfig(stride_s=3, model="cnn", cnn_epochs=2)
        result = run_experiment([], cfg, separated=separated)
        assert len(result.folds) == 3
        assert result.micro.total == sum(f["n_test"] for f in result.folds)


    def test_mixed_sample_rates_rejected(self, separated):
        """Rates are checked before stage A and for precomputed recordings."""
        mixed = separated[:2] + [_separated_patient("p09", seed=9, fs=200.0)]
        cfg = ExperimentConfig(stride_s=3, model="knn")
        with pytest.raises(ValueError, match=r"sample rates \[200\.0, 250\.0\]"):
            run_experiment([], cfg, separated=mixed)
        with pytest.raises(ValueError, match=r"sample rates \[200\.0, 250\.0\]"):
            run_experiment(mixed, cfg)

    def test_patient_without_full_window_rejected(self, separated):
        rng = np.random.default_rng(9)
        short = Recording(
            patient_id="p09",
            sample_rate=FS,
            channels={role: 0.02 * rng.standard_normal(int(8 * FS)) for role in SEPARATED_ROLES},
        )
        cfg = ExperimentConfig(stride_s=3, model="knn")
        with pytest.raises(ValueError, match="p09 has no full 10 s window"):
            run_experiment([], cfg, separated=separated + [short])


class TestSweep:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis must be"):
            sweep([], ExperimentConfig(), "kernel")

    def test_ratio_axis_rows(self):
        """A ratio sweep reuses stage A and reports one row per setting."""
        from earpipe.corpus import make_synthetic_corpus, train_corpus_templates

        recordings = make_synthetic_corpus(n_patients=3)
        templates = train_corpus_templates()
        cfg = ExperimentConfig(stride_s=3, model="knn", motion="off")
        rows = sweep(recordings, cfg, "ratio", templates)
        assert [r["value"] for r in rows] == ["1:1", "1:2", "1:3"]
        for row in rows:
            assert row["axis"] == "ratio"
            assert 0.0 <= row["macro_accuracy"] <= 1.0
            assert 0.0 <= row["macro_recall"] <= 1.0

    def test_stride_rows_match_standalone_runs(self, separated, monkeypatch):
        """Features shared across strides change no row of the sweep."""
        monkeypatch.setattr(evaluation, "prepare_recording", lambda rec, cfg, templates: rec)
        cfg = ExperimentConfig(model="rfc", normalization="minmax")
        rows = sweep(separated, cfg, "stride")
        assert [r["value"] for r in rows] == list(range(1, 10))
        for row in rows:
            alone = run_experiment(
                [], dataclasses.replace(cfg, stride_s=row["value"]), separated=separated
            )
            assert row["macro_accuracy"] == alone.macro["accuracy"]
            assert row["macro_recall"] == alone.macro["recall"]
            assert row["macro_f1"] == alone.macro["f1"]
            assert row["micro_accuracy"] == alone.micro.accuracy
