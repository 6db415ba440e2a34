"""Tests for the core recording types and the synthetic signal generator.

The synthesizer doubles as the oracle for most downstream tests, so its own
behavior has to be pinned down tightly: pure tones must be analytically
exact, seeds must reproduce byte-identical output, and annotated intervals
must match the components that created them.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earpipe.corpus import patient_spec
from earpipe.signals import (
    BIOPOTENTIAL_RATE_HZ,
    COMPONENTS,
    TONE_SPACING_HZ,
    ChannelRole,
    MIXED_ROLES,
    Recording,
    SEPARATED_ROLES,
    SeizureAnnotation,
    SynthComponent,
    SynthesisSpec,
    _spike_wave_period,
    _tone_comb,
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
    # True is no 1 Hz rate; "250" and None are refused by name, not by numpy
    @pytest.mark.parametrize("rate", [0.0, -5.0, float("nan"), float("inf"), True, "250", None])
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
        message = r"patient 'p' lacks channels \['eeg_left'\]; `earpipe separate` makes"
        with pytest.raises(ValueError, match=message):
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

    @pytest.mark.parametrize("make, message", [
        (lambda: SynthComponent("tone", float("nan")), "amplitude_mv must be a finite"),
        (lambda: SynthComponent("tone", float("inf")), "amplitude_mv must be a finite"),
        (lambda: SynthComponent("blink", 0.1, freq_hz=0),
         "freq_hz must be a finite number above 0"),
        (lambda: SynthComponent("spike_wave_seizure", 0.1, freq_hz=0.0), "freq_hz must be"),
        (lambda: SynthComponent("chew", 0.1, freq_hz=-1), "freq_hz must be"),
        (lambda: SynthComponent("motion_burst", 0.1, freq_hz=float("inf")), "freq_hz must be"),
        (lambda: SynthComponent("tone", 0.1, freq_hz=True), "freq_hz must be"),
        (lambda: SynthComponent("tone", 0.1, start_s=float("nan")), "start_s must be a finite"),
        (lambda: SynthComponent("tone", 0.1, start_s=3.0, stop_s=1.0),
         r"stop_s must be a finite number above start_s \(3\.0\), got 1\.0"),
        (lambda: SynthComponent("tone", 0.1, start_s=3.0, stop_s=3.0), "stop_s must be"),
        (lambda: SynthComponent("tone", 0.1, stop_s=float("inf")), "stop_s must be"),
        (lambda: SynthesisSpec(duration_s=float("nan")),
         "duration_s must be a finite number above 0"),
        (lambda: SynthesisSpec(duration_s=0.0), "duration_s must be a finite number above 0"),
        (lambda: SynthComponent(7, 0.1), "unknown component kind 7"),
        (lambda: SynthComponent("tone", 1e7), "amplitude_mv must be at most 1e\\+06, got"),
        (lambda: SynthComponent("tone", 0.1, freq_hz=125.0),
         r"freq_hz must be below 125 Hz, the Nyquist rate at 250 Hz, got 125\.0"),
        (lambda: SynthComponent("blink", 0.1, freq_hz=200.0), "freq_hz must be below 125 Hz"),
        (lambda: SynthComponent("blink", 0.1, freq_hz=1e5), "freq_hz must be below 125 Hz"),
        (lambda: SynthesisSpec(5.0, (SynthComponent("white_noise", 0.1, start_s=7.0),)),
         r"components\[0\] \(white_noise\): start_s 7\.0 and stop_s None cover no sample "
         r"of the 5\.0 s recording"),
        (lambda: SynthesisSpec(5.0, (SynthComponent("tone", 0.1),
                                     SynthComponent("spike_wave_seizure", 0.3, start_s=7.0))),
         r"components\[1\] \(spike_wave_seizure\): start_s 7\.0"),
        (lambda: SynthesisSpec(5.0, (SynthComponent("tone", 0.1, start_s=50.0),)),
         "start_s 50.0 and stop_s None cover no sample"),
        (lambda: SynthesisSpec(5.0, (SynthComponent("tone", 0.1, start_s=1.0, stop_s=1.001),)),
         "start_s 1.0 and stop_s 1.001 cover no sample"),
        (lambda: SynthesisSpec(5.0, (SynthComponent("tone", 0.1, start_s=-3.0, stop_s=-1.0),)),
         "start_s -3.0 and stop_s -1.0 cover no sample"),
        (lambda: SynthesisSpec(5.0, patient_id=7), "patient_id must be a string, got 7"),
        (lambda: SynthesisSpec(5.0, seed=3.9), "seed must be an integer 0 or above, got 3.9"),
        (lambda: SynthesisSpec(5.0, seed=-1), "seed must be an integer 0 or above, got -1"),
        (lambda: SynthesisSpec(5.0, seed=True), "seed must be an integer 0 or above, got True"),
        (lambda: SynthesisSpec("5"), "duration_s must be a finite number above 0, got '5'"),
        (lambda: SynthesisSpec(1e17), r"duration_s must be at most 604800 s \(one week\), got 1e\+17"),
        (lambda: SynthesisSpec(1e307), "duration_s must be at most 604800 s"),
    ], ids=["nan-amplitude", "inf-amplitude", "zero-blink-rate", "zero-seizure-rate",
            "negative-chew-rate", "inf-motion-rate", "true-rate", "nan-start", "stop-before-start",
            "empty-interval", "inf-stop", "nan-duration", "zero-duration", "int-kind",
            "huge-amplitude", "nyquist-tone", "fast-blink", "very-fast-blink",
            "noise-after-end", "seizure-after-end", "tone-after-end", "sub-sample-interval",
            "interval-before-start", "int-patient", "float-seed", "negative-seed", "bool-seed",
            "string-duration", "huge-duration", "overflowing-duration"])
    def test_bad_value_names_the_field(self, make, message):
        """A value that would crash rendering, render NaN, or render nothing
        is refused where the spec is built."""
        with pytest.raises(ValueError, match=message):
            make()

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(sorted(COMPONENTS)),
        amplitude=st.floats(0.0, 1.0) | st.floats(0.0, 2e6),
        freq=st.none() | st.floats(0.0, 130.0) | st.floats(0.0, 1e9),
        start=st.floats(-2.0, 4.0),
        length=st.none() | st.floats(-0.1, 6.0),
        duration=st.floats(0.0, 4.0),
    )
    def test_spec_renders_or_is_refused_by_field(self, kind, amplitude, freq, start, length,
                                                 duration):
        """Any one-component spec renders finite channels, or is refused
        with a ValueError that names a field."""
        stop = None if length is None else start + length
        try:
            spec = SynthesisSpec(duration, (SynthComponent(kind, amplitude, freq, start, stop),))
            rec = synthesize_recording(spec)
        except ValueError as exc:
            assert any(f in str(exc) for f in ("amplitude_mv", "freq_hz", "start_s", "stop_s",
                                               "duration_s")), exc
            return
        assert rec.n_samples == spec.n_samples
        for x in rec.channels.values():
            assert np.all(np.isfinite(x))
        assert np.all(np.isfinite(rec.imu))


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


    def test_jolts_cut_at_a_short_interval(self):
        """A jolt series on an interval shorter than one 0.4 s jolt renders
        its jolts cut where the interval ends."""
        for start_s, stop_s in ((4.9, None), (2.0, 2.2)):
            spec = SynthesisSpec(5.0, (SynthComponent("motion_burst", 0.5, freq_hz=17.0,
                                                      start_s=start_s, stop_s=stop_s),))
            x = synthesize_recording(spec).channels[ChannelRole.MIXED_LEFT]
            i0, i1 = round(start_s * 250), round((stop_s or 5.0) * 250)
            assert np.any(x[i0:i1] != 0.0)
            assert not np.any(x[:i0]) and not np.any(x[i1:])


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

    def test_long_period_cut_to_its_limit(self):
        """A period longer than the interval is computed only as far as the
        interval (at least 0.4 s), with the samples of the whole period."""
        whole = _spike_wave_period(250.0, 0.05)
        assert len(whole) == 5000
        np.testing.assert_array_equal(_spike_wave_period(250.0, 0.05, 30), whole[:100])
        np.testing.assert_array_equal(_spike_wave_period(250.0, 0.05, 1200), whole[:1200])
        assert len(_spike_wave_period(250.0, 1e-300, 30)) == 100

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


def _blink_pulse_sum(n, rate, amplitude):
    """A blink train as the plain sum of its pulses, one at a time: a 0.3 s
    sin^2 deflection and a 0.2 s rebound of a quarter its depth, one per
    ``1 / rate`` s from sample 0 at 250 Hz."""
    fs = 250.0
    shape = np.concatenate([np.sin(np.pi * np.arange(75) / 75) ** 2,
                            -0.25 * np.sin(np.pi * np.arange(50) / 50) ** 2])
    x = np.zeros(n)
    k = 0
    while (pos := int(np.rint(k * fs / rate))) < n:
        end = min(pos + len(shape), n)
        x[pos:end] += (amplitude * shape)[: end - pos]
        k += 1
    return x


class TestBlink:
    @staticmethod
    def _train(rate, amplitude=0.1, duration_s=5.0):
        spec = SynthesisSpec(duration_s=duration_s,
                             components=(SynthComponent("blink", amplitude, freq_hz=rate),))
        return render_sources(spec)[0]["eog"]

    @pytest.mark.parametrize("rate", [2.0, 10.0, 124.0])
    def test_amplitude_bounds_the_train(self, rate):
        """Overlapping pulses are scaled back, so no rate peaks above
        ``amplitude_mv``; the sum reached 0.15 mV at 10 Hz and 1.87 at 124."""
        x = self._train(rate)
        assert np.max(np.abs(x)) <= 0.1
        assert np.max(np.abs(x)) == pytest.approx(np.max(np.abs(self._train(1.0))))

    @pytest.mark.parametrize("rate", [1.0, 2.0])
    def test_sparse_train_is_the_pulse_sum(self, rate):
        """Pulses that never overlap render their plain sum, bit for bit: the
        corpus's 1 and 2 Hz blinks are what they were."""
        np.testing.assert_array_equal(self._train(rate, 0.08, 7.3),
                                      _blink_pulse_sum(1825, rate, 0.08))


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


def _all_lines_comb(n, fs, lo, hi):
    """The tone comb built as one lines x n array summed over its lines,
    kept as the oracle of the line-at-a-time ``_tone_comb``."""
    freqs = np.arange(np.ceil(lo / 0.5) * 0.5, hi + 1e-9, TONE_SPACING_HZ)
    k = np.arange(len(freqs))
    phases = -np.pi * k * (k + 1) / len(freqs)
    t = np.arange(n) / fs
    x = np.sum(np.sin(2 * np.pi * freqs[:, None] * t + phases[:, None]), axis=0)
    rms = np.sqrt(np.mean(x**2))
    return x / rms if rms > 0 else x


CHEW_BANDS = [(20.0, 60.0), (35.0, 112.0)]  # a slow chew's band and a tonic one's


class TestToneComb:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20_000), st.sampled_from(CHEW_BANDS),
           st.sampled_from([200.0, 250.0, 256.0]))
    def test_matches_the_all_lines_sum(self, n, band, fs):
        """Adding the lines one at a time gives the all-lines sum bit for bit."""
        np.testing.assert_array_equal(_tone_comb(n, fs, *band), _all_lines_comb(n, fs, *band))

    def test_matches_the_all_lines_sum_on_a_long_burst(self):
        n, (lo, hi) = 150_000, CHEW_BANDS[1]
        np.testing.assert_array_equal(_tone_comb(n, 250.0, lo, hi),
                                      _all_lines_comb(n, 250.0, lo, hi))

    def test_synthesis_peak_memory_per_sample(self):
        """Rendering a corpus patient holds at most 16 float64 values per
        sample at its peak, sources included, so the comb may not keep one
        array per line."""
        spec = patient_spec(0)
        n = round(spec.duration_s * BIOPOTENTIAL_RATE_HZ)
        tracemalloc.start()
        try:
            render_sources(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (8 * n) <= 16


class TestRenderSources:
    @pytest.mark.parametrize("kind", COMPONENTS)
    def test_unset_rate_is_the_table_default(self, kind):
        """A component without ``freq_hz`` renders as one given its kind's
        default from ``COMPONENTS``."""
        def render(freq_hz):
            spec = SynthesisSpec(4.0, (SynthComponent(kind, 0.1, freq_hz, 0.5, 3.5),), seed=5)
            rec = synthesize_recording(spec)
            return rec.channel_matrix(), rec.imu

        unset, default = render(None), render(COMPONENTS[kind][1])
        np.testing.assert_array_equal(unset[0], default[0])
        np.testing.assert_array_equal(unset[1], default[1])

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
