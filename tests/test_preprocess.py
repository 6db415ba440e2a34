"""Tests for the conditioning chain and its settings: notch, detrend,
outlier repair and band-pass.

Filter behavior is checked against steady-state RMS ratios measured away
from filter edges, plus linearity and idempotence properties on random
signals.
"""

import numpy as np
import pytest

from earpipe.preprocess import (
    PreprocessConfig,
    bandpass_filter,
    detrend_linear,
    notch_filter,
    outlier_clip,
    preprocess_channel,
    preprocess_recording,
)
from earpipe.signals import ChannelRole, Recording

FS = 250.0


def _tone(freq_hz, duration_s=10.0, fs=FS, amplitude=1.0):
    t = np.arange(int(duration_s * fs)) / fs
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


def _steady_rms(x, fs=FS, skip_s=1.0):
    """RMS with the first and last second discarded (filter settling)."""
    skip = int(skip_s * fs)
    core = x[skip:-skip]
    return np.sqrt(np.mean(core**2))


class TestNotch:
    def test_zero_in_zero_out(self):
        out = notch_filter(np.zeros(1000), FS)
        np.testing.assert_array_equal(out, np.zeros(1000))

    def test_mains_tone_killed(self):
        """A pure 60 Hz tone loses at least 99% of its steady-state RMS."""
        x = _tone(60.0)
        y = notch_filter(x, FS, mains_hz=60.0)
        assert _steady_rms(y) <= 0.01 * _steady_rms(x)

    def test_distant_tone_survives(self):
        x = _tone(10.0)
        y = notch_filter(x, FS, mains_hz=60.0)
        assert abs(_steady_rms(y) - _steady_rms(x)) <= 0.11 * _steady_rms(x)

    def test_50hz_variant(self):
        x = _tone(50.0)
        y = notch_filter(x, FS, mains_hz=50.0)
        assert _steady_rms(y) <= 0.01 * _steady_rms(x)

    def test_mains_at_nyquist_rejected(self):
        with pytest.raises(ValueError, match=r"^mains_hz must be above 0 and below the Nyquist "
                                             r"rate, 125 Hz, of a recording sampled at 250 Hz, "
                                             r"got 125\.0$"):
            notch_filter(np.zeros(100), FS, mains_hz=125.0)

    def test_length_preserved(self):
        out = notch_filter(np.random.default_rng(0).standard_normal(777), FS)
        assert len(out) == 777


class TestDetrend:
    def test_pure_line_removed(self):
        t = np.arange(2500) / FS
        x = 3.0 + 0.5 * t
        out = detrend_linear(x)
        assert np.max(np.abs(out)) < 1e-9 * max(3.0, 0.5 * t[-1])

    def test_sine_on_ramp_recovered(self):
        t = np.arange(2500) / FS
        sine = np.sin(2 * np.pi * 5.0 * t)
        out = detrend_linear(sine + 2.0 + 0.3 * t)
        r = np.corrcoef(out, sine)[0, 1]
        assert r > 0.999

    def test_zero_in_zero_out(self):
        np.testing.assert_array_equal(detrend_linear(np.zeros(100)), np.zeros(100))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1000) + np.linspace(0, 5, 1000)
        once = detrend_linear(x)
        twice = detrend_linear(once)
        np.testing.assert_allclose(twice, once, atol=1e-9 * np.max(np.abs(once)))


class TestOutlierClip:
    def test_clean_sine_untouched(self):
        x = _tone(10.0, duration_s=4.0)
        np.testing.assert_array_equal(outlier_clip(x, sigma=6.0), x)

    def test_spike_removed(self):
        """A +50 mV spike on a 0.05 mV sine is rebuilt from its neighbors."""
        x = _tone(10.0, duration_s=4.0, amplitude=0.05)
        clean = x.copy()
        spike_at = int(1.0 * FS)
        x[spike_at] += 50.0
        out = outlier_clip(x, sigma=6.0)
        window = slice(spike_at - 5, spike_at + 6)
        assert np.max(np.abs(out[window] - clean[window])) < 0.05 * 0.05

    def test_unflagged_samples_untouched(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        x[100] = 100.0
        out = outlier_clip(x, sigma=6.0)
        mask = np.ones(500, dtype=bool)
        mask[100] = False
        np.testing.assert_array_equal(out[mask], x[mask])
        assert out[100] != x[100]

    def test_constant_passthrough(self):
        x = np.full(100, 2.5)
        np.testing.assert_array_equal(outlier_clip(x), x)

    def test_edge_run_takes_nearest_inlier(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(100)
        x[:3] = 99.0
        out = outlier_clip(x, sigma=6.0)
        # a flagged run at the boundary extends the first inlier's value
        np.testing.assert_array_equal(out[:3], np.full(3, x[3]))


class TestBandpass:
    def test_in_band_tone_passes(self):
        x = _tone(10.0)
        y = bandpass_filter(x, FS, 1.0, 30.0)
        assert abs(_steady_rms(y) - _steady_rms(x)) <= 0.11 * _steady_rms(x)

    def test_out_of_band_tone_blocked(self):
        x = _tone(60.0)
        y = bandpass_filter(x, FS, 1.0, 30.0)
        assert _steady_rms(y) < 0.05 * _steady_rms(x)

    def test_zero_in_zero_out(self):
        np.testing.assert_array_equal(
            bandpass_filter(np.zeros(1000), FS, 1.0, 30.0), np.zeros(1000)
        )

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            bandpass_filter(np.zeros(100), FS, 30.0, 1.0)
        with pytest.raises(ValueError):
            bandpass_filter(np.zeros(100), FS, 1.0, 200.0)


class TestFilterLinearity:
    """Every stage of the chain is linear on signals without outliers."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: notch_filter(x, FS),
            detrend_linear,
            lambda x: bandpass_filter(x, FS, 1.0, 30.0),
        ],
        ids=["notch", "detrend", "bandpass"],
    )
    def test_superposition(self, op):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        a, b = 2.5, -1.25
        combined = op(a * x + b * y)
        separate = a * op(x) + b * op(y)
        scale = np.max(np.abs(combined)) + 1e-30
        np.testing.assert_allclose(combined, separate, atol=1e-9 * scale)


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("mains_hz", 0.0), ("mains_hz", -60.0), ("mains_hz", float("nan")),
        ("mains_hz", float("inf")), ("mains_hz", "60"),
        ("notch_q", 0.0), ("notch_q", -5.0), ("notch_q", float("nan")), ("notch_q", float("inf")),
        ("outlier_sigma", 0.0), ("outlier_sigma", -1.0), ("outlier_sigma", float("nan")),
        ("outlier_sigma", float("inf")), ("outlier_sigma", True),
        ("bandpass_hz", (30.0, 1.0)), ("bandpass_hz", (10.0, 10.0)), ("bandpass_hz", (0.0, 30.0)),
        ("bandpass_hz", (-1.0, 30.0)), ("bandpass_hz", (float("nan"), 30.0)),
        ("bandpass_hz", (1.0, float("inf"))), ("bandpass_hz", (1.0,)),
    ])
    def test_bad_setting_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            PreprocessConfig(**{field: value})

    def test_good_settings_accepted(self):
        cfg = PreprocessConfig(mains_hz=50, notch_q=0.5, outlier_sigma=1e-3, bandpass_hz=(0.5, 40))
        assert cfg.bandpass_hz == (0.5, 40)


class TestChannelChain:
    def test_chain_removes_mains_and_trend(self):
        t = np.arange(int(10 * FS)) / FS
        x = (
            0.05 * np.sin(2 * np.pi * 10.0 * t)
            + 0.2 * np.sin(2 * np.pi * 60.0 * t)
            + 0.5
            + 0.05 * t
        )
        out = preprocess_channel(x, FS)
        spectrum = np.abs(np.fft.rfft(out * np.hanning(len(out))))
        freqs = np.fft.rfftfreq(len(out), 1 / FS)
        peak_60 = spectrum[np.argmin(np.abs(freqs - 60.0))]
        peak_10 = spectrum[np.argmin(np.abs(freqs - 10.0))]
        assert peak_60 < 0.02 * peak_10
        assert abs(out.mean()) < 1e-6

    def test_recording_wrapper_keeps_metadata(self):
        rng = np.random.default_rng(0)
        rec = Recording(
            patient_id="p00",
            channels={
                ChannelRole.MIXED_LEFT: rng.standard_normal(2500),
                ChannelRole.MIXED_RIGHT: rng.standard_normal(2500),
            },
            imu=rng.standard_normal((3, 500)),
        )
        out = preprocess_recording(rec, PreprocessConfig())
        assert out.patient_id == "p00"
        assert out.roles == rec.roles
        assert out.n_samples == rec.n_samples
        np.testing.assert_array_equal(out.imu, rec.imu)
        # untouched input
        assert not np.array_equal(
            out.channels[ChannelRole.MIXED_LEFT], rec.channels[ChannelRole.MIXED_LEFT]
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_channel_rejected(self, bad):
        """The error names the patient and the channel before any filter runs."""
        rng = np.random.default_rng(0)
        left, right = rng.standard_normal(2500), rng.standard_normal(2500)
        right[[7, 1200]] = bad
        rec = Recording(
            patient_id="p07",
            channels={ChannelRole.MIXED_LEFT: left, ChannelRole.MIXED_RIGHT: right},
        )
        with pytest.raises(ValueError, match="recording p07: channel mixed_right has 2 NaN or Inf"):
            preprocess_recording(rec)

    def test_nonfinite_imu_rejected(self):
        rng = np.random.default_rng(0)
        imu = rng.standard_normal((3, 500))
        imu[1, 3] = np.nan
        rec = Recording(
            patient_id="p07", channels={ChannelRole.MIXED_LEFT: rng.standard_normal(2500)}, imu=imu
        )
        with pytest.raises(ValueError, match="recording p07: IMU track has 1 NaN or Inf"):
            preprocess_recording(rec)

    def test_optional_bandpass_stage(self):
        x = _tone(60.0) + _tone(10.0)
        cfg = PreprocessConfig(bandpass_hz=(1.0, 30.0))
        out = preprocess_channel(x, FS, cfg)
        assert _steady_rms(out) < 1.0  # the 60 Hz half is gone twice over
