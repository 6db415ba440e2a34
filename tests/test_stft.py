"""Round-trip and geometry tests for the short-time Fourier transform."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earpipe.stft import Spectrogram, StftConfig, istft, stft

FS = 250.0


class TestGeometry:
    def test_bin_and_frame_counts(self):
        x = np.random.default_rng(0).standard_normal(2500)
        spec = stft(x, FS)
        assert spec.n_bins == 256 // 2 + 1
        assert spec.values.shape[0] == spec.n_bins
        assert spec.n_frames == spec.values.shape[1]

    def test_freq_axis(self):
        spec = stft(np.zeros(1000), FS)
        freqs = spec.freqs_hz()
        assert freqs[0] == 0.0
        assert freqs[-1] == pytest.approx(FS / 2)
        assert len(freqs) == spec.n_bins

    def test_times_increase_by_hop(self):
        spec = stft(np.zeros(2000), FS, StftConfig(window_len=256, hop=128))
        times = spec.times_s()
        np.testing.assert_allclose(np.diff(times), 128 / FS)

    def test_power_is_magnitude_squared(self):
        x = np.random.default_rng(1).standard_normal(1500)
        spec = stft(x, FS)
        np.testing.assert_allclose(spec.power(), np.abs(spec.values) ** 2)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            StftConfig(window_len=256, hop=0)
        with pytest.raises(ValueError):
            StftConfig(window_len=0, hop=128)


class TestRoundTrip:
    def test_interior_error_below_1e9(self):
        """Forward-inverse agrees to better than 1e-9 away from the ends."""
        rng = np.random.default_rng(42)
        for trial in range(5):
            x = rng.standard_normal(int(10 * FS))
            y = istft(stft(x, FS))
            assert len(y) == len(x)
            interior = slice(256, len(x) - 256)
            err = np.linalg.norm(y[interior] - x[interior]) / np.linalg.norm(
                x[interior]
            )
            assert err < 1e-9

    def test_tone_round_trip(self):
        t = np.arange(int(4 * FS)) / FS
        x = 0.05 * np.sin(2 * np.pi * 10.0 * t)
        y = istft(stft(x, FS))
        interior = slice(256, len(x) - 256)
        np.testing.assert_allclose(y[interior], x[interior], atol=1e-12)

    def test_awkward_length(self):
        """Lengths that are not multiples of the hop still round-trip."""
        rng = np.random.default_rng(3)
        for n in (1001, 1234, 2049):
            x = rng.standard_normal(n)
            y = istft(stft(x, FS))
            assert len(y) == n
            interior = slice(256, n - 256)
            err = np.linalg.norm(y[interior] - x[interior]) / np.linalg.norm(
                x[interior]
            )
            assert err < 1e-9

    def test_zero_round_trip(self):
        y = istft(stft(np.zeros(1000), FS))
        np.testing.assert_array_equal(y, np.zeros(1000))

    @settings(max_examples=300, deadline=None)
    @given(
        window_len=st.integers(2, 300),
        hop_frac=st.floats(0.0, 1.0),
        n=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_window_hop_and_length(self, window_len, hop_frac, n, seed):
        """Every sample under a nonzero window weight comes back to 1e-9 of the
        signal's peak; a sample under none (the periodic Hann's leading zero)
        comes back as 0."""
        hop = max(1, round(hop_frac * window_len))
        x = np.random.default_rng(seed).standard_normal(n)
        spec = stft(x, FS, StftConfig(window_len=window_len, hop=hop))
        y = istft(spec)
        w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(window_len) / window_len)
        weight = np.zeros(n)
        for start in range(0, spec.n_frames * hop, hop):
            covered = w[: max(0, min(window_len, n - start))]
            weight[start:start + len(covered)] += covered**2
        assert len(y) == n
        assert np.all(np.abs(y - x)[weight > 0] <= 1e-9 * np.abs(x).max())
        assert np.all(y[weight == 0] == 0.0)


class TestLinearity:
    def test_stft_is_linear(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(1500)
        y = rng.standard_normal(1500)
        a, b = 0.7, -2.0
        combined = stft(a * x + b * y, FS).values
        separate = a * stft(x, FS).values + b * stft(y, FS).values
        np.testing.assert_allclose(combined, separate, atol=1e-12)


class TestToneLocalization:
    def test_tone_peaks_in_correct_bin(self):
        t = np.arange(int(8 * FS)) / FS
        x = np.sin(2 * np.pi * 30.0 * t)
        spec = stft(x, FS)
        mean_power = spec.power().mean(axis=1)
        peak_hz = spec.freqs_hz()[np.argmax(mean_power)]
        assert abs(peak_hz - 30.0) <= FS / 256  # within one bin
