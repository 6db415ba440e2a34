"""Determinism and structural guarantees of the synthetic corpus."""

import numpy as np

from earpipe.corpus import (
    make_synthetic_corpus,
    patient_spec,
    template_sources,
    train_corpus_templates,
)
from earpipe.signals import ChannelRole, MIXED_ROLES

FS = 250.0
IMU_RATE = 50.0


class TestCorpusShape:
    def test_patient_roster(self):
        recs = make_synthetic_corpus(n_patients=4)
        assert [r.patient_id for r in recs] == ["p00", "p01", "p02", "p03"]

    def test_recording_layout(self):
        rec = make_synthetic_corpus(n_patients=1)[0]
        assert tuple(rec.channels) == MIXED_ROLES
        n = int(90.0 * FS)
        for x in rec.channels.values():
            assert x.shape == (n,)
        assert rec.sample_rate == FS
        assert rec.imu is not None
        assert rec.imu.shape == (3, int(90.0 * IMU_RATE))
        assert rec.imu_rate == IMU_RATE

    def test_one_annotation_each(self):
        for rec in make_synthetic_corpus(n_patients=5):
            assert len(rec.annotations) == 1

    def test_amplitudes_stay_physiologic(self):
        """Millivolt-scale content, not runaway synthesis."""
        for rec in make_synthetic_corpus(n_patients=3):
            for x in rec.channels.values():
                assert np.max(np.abs(x)) < 3.0


class TestSeizureTiming:
    def test_boundaries_are_whole_seconds(self):
        for rec in make_synthetic_corpus(n_patients=8):
            a = rec.annotations[0]
            assert a.onset_s == int(a.onset_s)
            assert a.offset_s == int(a.offset_s)

    def test_durations_vary_but_hold_a_window(self):
        """Every seizure fits at least one full 10 s window."""
        durations = set()
        for rec in make_synthetic_corpus(n_patients=10):
            a = rec.annotations[0]
            assert a.duration_s >= 16.0
            durations.add(a.duration_s)
        assert len(durations) > 1

    def test_interval_inside_stable_analysis_span(self):
        """Onsets sit at 30-32 s and offsets never pass 58 s, keeping the
        whole event inside one 30 s motion-removal block."""
        for rec in make_synthetic_corpus(n_patients=10):
            a = rec.annotations[0]
            assert 30.0 <= a.onset_s <= 32.0
            assert a.offset_s <= 58.0


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = make_synthetic_corpus(n_patients=2, master_seed=0)
        b = make_synthetic_corpus(n_patients=2, master_seed=0)
        for ra, rb in zip(a, b):
            for role in ra.channels:
                np.testing.assert_array_equal(ra.channels[role], rb.channels[role])
            np.testing.assert_array_equal(ra.imu, rb.imu)

    def test_different_seed_different_signals(self):
        a = make_synthetic_corpus(n_patients=1, master_seed=0)[0]
        b = make_synthetic_corpus(n_patients=1, master_seed=1)[0]
        assert not np.array_equal(
            a.channels[ChannelRole.MIXED_LEFT], b.channels[ChannelRole.MIXED_LEFT]
        )

    def test_patients_differ_from_each_other(self):
        a, b = make_synthetic_corpus(n_patients=2)
        assert not np.array_equal(
            a.channels[ChannelRole.MIXED_LEFT], b.channels[ChannelRole.MIXED_LEFT]
        )

    def test_spec_is_deterministic(self):
        s1 = patient_spec(3, master_seed=5)
        s2 = patient_spec(3, master_seed=5)
        assert s1.seed == s2.seed
        assert s1.patient_id == "p03"


class TestTemplates:
    def test_sources_cover_modalities(self):
        src = template_sources()
        assert set(src) == {"eeg", "emg", "eog"}
        n = int(60.0 * FS)
        for x in src.values():
            assert x.shape == (n,)
            assert np.max(np.abs(x)) > 0.0

    def test_bank_trains_deterministically(self):
        """The same master seed trains the same bank; another seed starts the
        NNMF elsewhere and trains another one from the same sources."""
        b1 = train_corpus_templates()
        b2 = train_corpus_templates()
        np.testing.assert_array_equal(b1.w, b2.w)
        assert not np.array_equal(train_corpus_templates(master_seed=1).w, b1.w)
        assert b1.w.shape[1] == 3 * b1.rank
        np.testing.assert_allclose(b1.w.sum(axis=0), 1.0, atol=1e-9)
