"""Tests for the core recording types and the synthetic signal generator.

The synthesizer doubles as the oracle for most downstream tests, so its own
behavior has to be pinned down tightly: pure tones must be analytically
exact, seeds must reproduce byte-identical output, and annotated intervals
must match the components that created them.
"""

import numpy as np
import pytest

from earpipe.signals import (
    ChannelRole,
    MIXED_ROLES,
    Recording,
    SEPARATED_ROLES,
    SeizureAnnotation,
    SynthComponent,
    SynthesisSpec,
    _spike_wave_period,
    render_sources,
    separate_mixed,
    synthesize_recording,
)


class TestRecording:
    def test_channel_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            Recording(
                patient_id="p",
                channels={
                    ChannelRole.MIXED_LEFT: np.zeros(10),
                    ChannelRole.MIXED_RIGHT: np.zeros(11),
                },
            )

    def test_imu_shape_rejected(self):
        with pytest.raises(ValueError, match="3 x M"):
            Recording(patient_id="p", imu=np.zeros((2, 5)))

    @pytest.mark.parametrize("key", ["sample_rate", "imu_rate"])
    @pytest.mark.parametrize("rate", [0.0, -5.0, float("nan"), float("inf")])
    def test_rate_must_be_finite_and_positive(self, key, rate):
        with pytest.raises(ValueError, match=f"{key} must be a finite number above 0"):
            Recording(patient_id="p", **{key: rate})

    def test_channels_coerced_to_float64(self):
        rec = Recording(
            patient_id="p",
            channels={ChannelRole.MIXED_LEFT: np.arange(4, dtype=np.int32)},
        )
        assert rec.channels[ChannelRole.MIXED_LEFT].dtype == np.float64

    def test_duration_follows_sample_rate(self):
        rec = Recording(
            patient_id="p",
            sample_rate=250.0,
            channels={ChannelRole.MIXED_LEFT: np.zeros(2500)},
        )
        assert rec.n_samples == 2500
        assert rec.duration_s == pytest.approx(10.0)

    def test_channel_matrix_row_order(self):
        """Rows of channel_matrix follow the requested role order."""
        left = np.ones(8)
        right = 2 * np.ones(8)
        rec = Recording(
            patient_id="p",
            channels={ChannelRole.MIXED_LEFT: left, ChannelRole.MIXED_RIGHT: right},
        )
        m = rec.channel_matrix(MIXED_ROLES)
        np.testing.assert_array_equal(m[0], left)
        np.testing.assert_array_equal(m[1], right)

    def test_channel_matrix_missing_role(self):
        rec = Recording(
            patient_id="p", channels={ChannelRole.MIXED_LEFT: np.zeros(8)}
        )
        with pytest.raises(KeyError):
            rec.channel_matrix((ChannelRole.EEG_LEFT,))

    def test_with_channels_copies_imu_and_annotations(self):
        rec = Recording(
            patient_id="p",
            sample_rate=100.0,
            channels={ChannelRole.MIXED_LEFT: np.zeros(10)},
            imu=np.ones((3, 4)),
            imu_rate=20.0,
            annotations=[SeizureAnnotation(0.02, 0.05)],
        )
        out = rec.with_channels({ChannelRole.EEG_LEFT: np.arange(10)})
        assert (out.patient_id, out.sample_rate, out.imu_rate) == ("p", 100.0, 20.0)
        assert tuple(out.channels) == (ChannelRole.EEG_LEFT,)
        assert out.channels[ChannelRole.EEG_LEFT].dtype == np.float64
        np.testing.assert_array_equal(out.imu, rec.imu)
        assert not np.shares_memory(out.imu, rec.imu)
        assert out.annotations == rec.annotations
        assert out.annotations is not rec.annotations
        assert tuple(rec.channels) == (ChannelRole.MIXED_LEFT,)
        assert Recording(patient_id="q").with_channels({}).imu is None

    def test_with_channels_rejects_unequal_lengths(self):
        rec = Recording(patient_id="p", channels={ChannelRole.MIXED_LEFT: np.zeros(10)})
        with pytest.raises(ValueError, match="lengths differ"):
            rec.with_channels({ChannelRole.EEG_LEFT: np.zeros(10), ChannelRole.EEG_RIGHT: np.zeros(9)})

    def test_separate_mixed_places_each_side(self):
        """Each side's split lands on that side's roles, in SEPARATED_ROLES order."""
        rec = Recording(
            patient_id="p",
            channels={ChannelRole.MIXED_RIGHT: np.full(4, 2.0), ChannelRole.MIXED_LEFT: np.ones(4)},
        )
        out = separate_mixed(rec, lambda x: {"eog": x + 30, "eeg": x + 10, "emg": x + 20})
        assert tuple(out.channels) == SEPARATED_ROLES
        firsts = {role.value: x[0] for role, x in out.channels.items()}
        assert firsts == {
            "eeg_left": 11, "eeg_right": 12, "emg_left": 21,
            "emg_right": 22, "eog_left": 31, "eog_right": 32,
        }


class TestAnnotation:
    def test_zero_length_interval_rejected(self):
        with pytest.raises(ValueError):
            SeizureAnnotation(onset_s=5.0, offset_s=5.0)

    def test_duration(self):
        a = SeizureAnnotation(onset_s=2.5, offset_s=10.0)
        assert a.duration_s == pytest.approx(7.5)


class TestComponentValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown component kind"):
            SynthComponent("sawtooth", 0.1)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SynthComponent("tone", -0.1)


class TestToneSynthesis:
    """A lone tone component must come out analytically exact."""

    def test_tone_matches_closed_form(self):
        spec = SynthesisSpec(
            duration_s=4.0,
            components=(SynthComponent("tone", 0.05, freq_hz=10.0),),
            seed=3,
        )
        rec = synthesize_recording(spec)
        t = np.arange(rec.n_samples) / rec.sample_rate
        expected = 0.05 * np.sin(2 * np.pi * 10.0 * t)
        np.testing.assert_allclose(
            rec.channels[ChannelRole.MIXED_LEFT], expected, atol=1e-15
        )

    def test_tone_identical_on_both_channels(self):
        spec = SynthesisSpec(
            duration_s=2.0,
            components=(SynthComponent("tone", 0.1, freq_hz=7.0),),
            seed=0,
        )
        rec = synthesize_recording(spec)
        np.testing.assert_array_equal(
            rec.channels[ChannelRole.MIXED_LEFT],
            rec.channels[ChannelRole.MIXED_RIGHT],
        )

    def test_interval_bounds_respected(self):
        """Samples outside [start_s, stop_s) stay exactly zero."""
        spec = SynthesisSpec(
            duration_s=10.0,
            components=(
                SynthComponent("tone", 0.05, freq_hz=10.0, start_s=3.0, stop_s=7.0),
            ),
            seed=0,
        )
        rec = synthesize_recording(spec)
        x = rec.channels[ChannelRole.MIXED_LEFT]
        fs = rec.sample_rate
        assert np.all(x[: int(3.0 * fs)] == 0.0)
        assert np.all(x[int(7.0 * fs):] == 0.0)
        assert np.any(x[int(3.0 * fs): int(7.0 * fs)] != 0.0)


class TestDeterminism:
    def test_same_seed_same_samples(self):
        spec = SynthesisSpec(
            duration_s=5.0,
            components=(
                SynthComponent("alpha_burst", 0.05),
                SynthComponent("white_noise", 0.01),
                SynthComponent("motion_burst", 0.7, start_s=1.0, stop_s=3.0),
            ),
            seed=42,
        )
        a = synthesize_recording(spec)
        b = synthesize_recording(spec)
        for role in MIXED_ROLES:
            np.testing.assert_array_equal(a.channels[role], b.channels[role])
        np.testing.assert_array_equal(a.imu, b.imu)

    def test_different_seeds_differ(self):
        mk = lambda s: synthesize_recording(
            SynthesisSpec(
                duration_s=2.0,
                components=(SynthComponent("white_noise", 0.01),),
                seed=s,
            )
        )
        a, b = mk(1), mk(2)
        assert not np.array_equal(
            a.channels[ChannelRole.MIXED_LEFT], b.channels[ChannelRole.MIXED_LEFT]
        )

    def test_noise_independent_per_channel(self):
        spec = SynthesisSpec(
            duration_s=2.0,
            components=(SynthComponent("white_noise", 0.01),),
            seed=5,
        )
        rec = synthesize_recording(spec)
        left = rec.channels[ChannelRole.MIXED_LEFT]
        right = rec.channels[ChannelRole.MIXED_RIGHT]
        assert not np.array_equal(left, right)
        r = np.corrcoef(left, right)[0, 1]
        assert abs(r) < 0.2


class TestSpikeWave:
    def test_period_shape(self):
        """One discharge period: unit peak, net baseline shift, spike first."""
        shape = _spike_wave_period(250.0, 3.0)
        assert len(shape) == round(250.0 / 3.0)
        assert np.max(np.abs(shape)) == pytest.approx(1.0)
        # the broad slow wave outweighs the thin spike in area
        assert shape.mean() < -0.05
        # the positive spike peaks early, the negative wave bottoms later
        assert np.argmax(shape) < np.argmin(shape)

    def test_seizure_component_creates_annotation(self):
        spec = SynthesisSpec(
            duration_s=30.0,
            components=(
                SynthComponent(
                    "spike_wave_seizure", 0.45, freq_hz=3.0, start_s=10.0, stop_s=20.0
                ),
            ),
            seed=0,
        )
        rec = synthesize_recording(spec)
        assert len(rec.annotations) == 1
        ann = rec.annotations[0]
        assert ann.onset_s == pytest.approx(10.0)
        assert ann.offset_s == pytest.approx(20.0)

    def test_discharge_has_3hz_fundamental(self):
        spec = SynthesisSpec(
            duration_s=30.0,
            components=(
                SynthComponent(
                    "spike_wave_seizure", 0.45, freq_hz=3.0, start_s=5.0, stop_s=25.0
                ),
            ),
            seed=0,
        )
        rec = synthesize_recording(spec)
        x = rec.channels[ChannelRole.MIXED_LEFT]
        spectrum = np.abs(np.fft.rfft(x))
        freqs = np.fft.rfftfreq(len(x), 1.0 / rec.sample_rate)
        # strongest oscillatory line below 5 Hz sits at the discharge rate
        # (the baseline shift occupies the bins right at 0 Hz)
        low = (freqs >= 1.0) & (freqs < 5.0)
        peak_hz = freqs[low][np.argmax(spectrum[low])]
        assert abs(peak_hz - 3.0) < 0.2


class TestMotionImuCoupling:
    def test_burst_registers_on_imu(self):
        """IMU magnitude fluctuates during the burst, stays near 1 g outside."""
        spec = SynthesisSpec(
            duration_s=20.0,
            components=(
                SynthComponent("motion_burst", 0.7, start_s=5.0, stop_s=10.0),
            ),
            seed=9,
        )
        rec = synthesize_recording(spec)
        mag = np.linalg.norm(rec.imu, axis=0)
        t = np.arange(rec.imu.shape[1]) / rec.imu_rate
        inside = (t >= 5.5) & (t <= 9.5)
        outside = (t <= 4.0) | (t >= 11.0)
        assert mag[inside].std() > 5 * mag[outside].std()
        assert abs(mag[outside].mean() - 1.0) < 0.05

    def test_quiet_recording_imu_near_gravity(self):
        spec = SynthesisSpec(
            duration_s=5.0,
            components=(SynthComponent("alpha_burst", 0.05),),
            seed=1,
        )
        rec = synthesize_recording(spec)
        mag = np.linalg.norm(rec.imu, axis=0)
        np.testing.assert_allclose(mag, 1.0, atol=0.1)


class TestRenderSources:
    def test_modality_keys(self):
        spec = SynthesisSpec(
            duration_s=4.0,
            components=(
                SynthComponent("alpha_burst", 0.05),
                SynthComponent("blink", 0.08),
                SynthComponent("chew", 0.05),
                SynthComponent("white_noise", 0.01),
            ),
            seed=2,
        )
        sources, imu, annotations = render_sources(spec)
        assert set(sources) == {"eeg", "eog", "emg", "noise"}
        assert sources["noise"].shape == (2, 1000)
        assert imu.shape == (3, 200)
        assert annotations == []

    def test_sources_sum_to_mixed_channel(self):
        """The mixed channels are exactly the sum of the source tracks."""
        spec = SynthesisSpec(
            duration_s=6.0,
            components=(
                SynthComponent("alpha_burst", 0.05),
                SynthComponent("chew", 0.04),
                SynthComponent("motion_burst", 0.7, start_s=1.0, stop_s=3.0),
                SynthComponent("white_noise", 0.01),
            ),
            seed=11,
        )
        sources, _, _ = render_sources(spec)
        rec = synthesize_recording(spec)
        base = sources["eeg"] + sources["emg"] + sources["motion"]
        np.testing.assert_allclose(
            rec.channels[ChannelRole.MIXED_LEFT],
            base + sources["noise"][0],
            atol=1e-15,
        )
        np.testing.assert_allclose(
            rec.channels[ChannelRole.MIXED_RIGHT],
            base + sources["noise"][1],
            atol=1e-15,
        )
