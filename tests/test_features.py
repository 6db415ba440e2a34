"""Window geometry, labeling, feature math, balancing, and normalization."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dct
from scipy.signal import get_window

from earpipe import features
from earpipe.features import (
    LOG_EPS,
    MEL_FILTERS,
    WINDOW_S,
    LabeledEpoch,
    WindowSpec,
    apply_normalizer,
    balance_epochs,
    balance_indices,
    channel_features,
    epoch_features,
    epoch_start_indices,
    feature_names,
    features_for_epochs,
    fit_normalizer,
    mel_filterbank,
    mfcc_features,
    parse_ratio,
    segment_recording,
    time_features,
    window_label,
)
from earpipe.signals import ChannelRole, Recording, SeizureAnnotation, SEPARATED_ROLES

FS = 250.0


class TestWindowGeometry:
    def test_stride_one_count(self):
        """90 s at stride 1 yields 81 ten-second windows."""
        starts = epoch_start_indices(int(90 * FS), FS, WindowSpec(stride_s=1))
        assert len(starts) == 81
        assert starts[0] == 0
        assert starts[-1] == int(80 * FS)

    def test_stride_nine_count(self):
        """90 s at stride 9 yields 9 windows starting every 9 s."""
        starts = epoch_start_indices(int(90 * FS), FS, WindowSpec(stride_s=9))
        assert len(starts) == 9
        np.testing.assert_array_equal(np.diff(starts), int(9 * FS))

    def test_short_signal_yields_nothing(self):
        starts = epoch_start_indices(int(9 * FS), FS, WindowSpec())
        assert len(starts) == 0

    def test_stride_bounds_enforced(self):
        with pytest.raises(ValueError, match="stride_s"):
            WindowSpec(stride_s=0)
        with pytest.raises(ValueError, match="stride_s"):
            WindowSpec(stride_s=10)
        with pytest.raises(ValueError, match="stride_s"):
            WindowSpec(stride_s=2.5)

    @staticmethod
    def _rounded_seconds_starts(n_samples, fs, stride_s):
        """The earlier rule: a stride of round(stride_s * fs) samples."""
        w = int(round(WINDOW_S * fs))
        s = int(round(stride_s * fs))
        if n_samples < w:
            return np.zeros(0, dtype=int)
        return np.arange((n_samples - w) // s + 1) * s

    @settings(max_examples=300, deadline=None)
    @given(
        fs=st.integers(1, 2048),
        seconds=st.floats(0.0, 60.0),
        stride=st.integers(1, 9),
    )
    def test_integer_rates_keep_the_rounded_seconds_starts(self, fs, seconds, stride):
        n = int(seconds * fs)
        np.testing.assert_array_equal(
            epoch_start_indices(n, float(fs), WindowSpec(stride_s=stride)),
            self._rounded_seconds_starts(n, float(fs), stride),
        )

    @settings(max_examples=300, deadline=None)
    @given(
        fs=st.floats(1.0, 2048.0),
        seconds=st.floats(0.0, 60.0),
        stride=st.integers(1, 9),
    )
    def test_stride_starts_are_every_nth_stride_one_start(self, fs, seconds, stride):
        n = int(seconds * fs)
        ones = epoch_start_indices(n, fs, WindowSpec(stride_s=1))
        np.testing.assert_array_equal(
            epoch_start_indices(n, fs, WindowSpec(stride_s=stride)), ones[::stride]
        )

    def test_fractional_rate_hops_whole_rounded_seconds(self):
        """At 250.4 Hz a 2 s stride is 2 x 250 samples, not round(500.8)."""
        starts = epoch_start_indices(int(30 * 250.4), 250.4, WindowSpec(stride_s=2))
        np.testing.assert_array_equal(np.diff(starts), 500)


class TestLabeling:
    ANNS = [SeizureAnnotation(onset_s=30.0, offset_s=50.0)]

    def test_fully_inside_is_positive(self):
        assert window_label(35.0, self.ANNS) == 1

    def test_straddling_onset_is_negative(self):
        assert window_label(25.0, self.ANNS) == 0

    def test_straddling_offset_is_negative(self):
        assert window_label(45.0, self.ANNS) == 0

    def test_exact_alignment_counts(self):
        """Windows flush with either annotation edge are still inside."""
        assert window_label(30.0, self.ANNS) == 1
        assert window_label(40.0, self.ANNS) == 1

    def test_no_annotations_negative(self):
        assert window_label(0.0, []) == 0


def _separated_recording(duration_s=30.0, fs=50.0, annotations=()):
    rng = np.random.default_rng(0)
    n = int(duration_s * fs)
    channels = {role: rng.standard_normal(n) * 0.01 for role in SEPARATED_ROLES}
    return Recording(
        patient_id="t00",
        sample_rate=fs,
        channels=channels,
        annotations=list(annotations),
    )


class TestSegmentation:
    def test_epoch_contents_and_labels(self):
        rec = _separated_recording(
            annotations=[SeizureAnnotation(onset_s=5.0, offset_s=20.0)]
        )
        epochs = segment_recording(rec, WindowSpec(stride_s=1))
        assert len(epochs) == 21
        labels = [e.label for e in epochs]
        # starts 5..10 fit inside [5, 20] entirely
        assert labels == [0] * 5 + [1] * 6 + [0] * 10
        w = int(10.0 * rec.sample_rate)
        assert all(e.channels.shape == (6, w) for e in epochs)
        matrix = rec.channel_matrix(SEPARATED_ROLES)
        np.testing.assert_array_equal(epochs[3].channels, matrix[:, 150:150 + w])

    def test_epochs_are_read_only_views(self):
        epochs = segment_recording(_separated_recording(), WindowSpec(stride_s=1))
        assert not epochs[0].channels.flags.writeable
        assert np.shares_memory(epochs[0].channels, epochs[1].channels)

    @pytest.mark.parametrize("fs", [0.4, 0.5])
    def test_rate_without_a_whole_sample_hop_rejected(self, fs):
        """round(fs) is 0 at 0.5 Hz and below: there is no hop to step by."""
        rec = _separated_recording(duration_s=100.0, fs=fs)
        with pytest.raises(ValueError, match=rf"above 0\.5 Hz .*got {fs} Hz"):
            segment_recording(rec)

    def test_short_event_rejected_by_default(self):
        rec = _separated_recording(
            annotations=[SeizureAnnotation(onset_s=5.0, offset_s=9.0)]
        )
        with pytest.raises(ValueError, match="shorter than"):
            segment_recording(rec)

    def test_short_event_kept_when_allowed(self):
        rec = _separated_recording(
            annotations=[SeizureAnnotation(onset_s=5.0, offset_s=9.0)]
        )
        epochs = segment_recording(rec, allow_short_events=True)
        assert all(e.label == 0 for e in epochs)


class TestTimeFeatures:
    def test_frozen_small_vector(self):
        """Hand-computed statistics of [1, 2, 3, 4]."""
        out = time_features(np.array([1.0, 2.0, 3.0, 4.0]))
        expected = [
            2.5,
            np.sqrt(1.25),
            1.0,
            0.0,
            1.64,
            1.0,
            4.0,
            np.sqrt(7.5),
        ]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gaussian_moments(self):
        """Skew near 0 and kurtosis near 3 for a large normal sample."""
        rng = np.random.default_rng(21)
        out = time_features(rng.standard_normal(200_000))
        assert abs(out[3]) < 0.05
        assert abs(out[4] - 3.0) < 0.1

    def test_flat_window_has_no_shape(self):
        out = time_features(np.full(100, 2.0))
        np.testing.assert_allclose(
            out, [2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0], atol=1e-12
        )

    def test_shift_moves_only_location_features(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(500)
        a, b = time_features(x), time_features(x + 10.0)
        np.testing.assert_allclose(b[[0, 5, 6]], a[[0, 5, 6]] + 10.0, atol=1e-9)
        np.testing.assert_allclose(b[1:5], a[1:5], atol=1e-9)


class TestMelFilterbank:
    def test_shape_and_support(self):
        bank = mel_filterbank(26, 500, FS)
        assert bank.shape == (26, 251)
        assert np.all(bank >= 0.0)
        assert np.all(bank.max(axis=1) > 0.5)
        assert np.all(bank.max(axis=1) <= 1.0)

    def test_filters_ordered_by_frequency(self):
        bank = mel_filterbank(26, 500, FS)
        peaks = bank.argmax(axis=1)
        assert np.all(np.diff(peaks) > 0)


class TestMfcc:
    def test_output_length(self):
        rng = np.random.default_rng(23)
        out = mfcc_features(rng.standard_normal(2500), FS)
        assert out.shape == (50,)

    def test_frames_independent(self):
        """Editing the last 2 s frame changes only its ten coefficients."""
        rng = np.random.default_rng(24)
        x = rng.standard_normal(2500)
        base = mfcc_features(x, FS)
        x2 = x.copy()
        x2[2000:] = rng.standard_normal(500)
        out = mfcc_features(x2, FS)
        np.testing.assert_allclose(out[:40], base[:40], atol=1e-12)
        assert not np.allclose(out[40:], base[40:])

    def test_first_coefficient_tracks_loudness(self):
        t = np.arange(2500) / FS
        loud = mfcc_features(np.sin(2 * np.pi * 10 * t), FS)
        quiet = mfcc_features(1e-3 * np.sin(2 * np.pi * 10 * t), FS)
        assert loud[0] > quiet[0]

    def test_too_short_window_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            mfcc_features(np.zeros(5), FS)


class TestFeatureVector:
    def test_names_aligned_and_unique(self):
        names = feature_names()
        assert len(names) == 348
        assert len(set(names)) == 348
        assert names[0] == "eeg_left.mean"
        assert names[57] == "eeg_left.mfcc_t4_c9"
        assert names[58] == "eeg_right.mean"

    def test_channel_major_layout(self):
        rng = np.random.default_rng(25)
        channels = rng.standard_normal((6, 2500))
        epoch = LabeledEpoch(patient_id="t", start_s=0.0, channels=channels, label=0)
        vec = epoch_features(epoch, FS)
        assert vec.shape == (348,)
        np.testing.assert_allclose(vec[:58], channel_features(channels[0], FS))
        np.testing.assert_allclose(vec[-58:], channel_features(channels[5], FS))

    def test_empty_epoch_list(self):
        out = features_for_epochs([], FS)
        assert out.shape == (0, 348)

    def test_stacking_matches_single(self):
        rng = np.random.default_rng(26)
        epochs = [
            LabeledEpoch("t", float(i), rng.standard_normal((6, 2500)), 0)
            for i in range(3)
        ]
        stacked = features_for_epochs(epochs, FS)
        assert stacked.shape == (3, 348)
        np.testing.assert_allclose(stacked[1], epoch_features(epochs[1], FS))


def _epochs(n_seiz, n_back):
    out = []
    for i in range(n_seiz + n_back):
        out.append(
            LabeledEpoch(
                patient_id="t",
                start_s=float(i),
                channels=np.zeros((6, 10)),
                label=1 if i < n_seiz else 0,
            )
        )
    return out


class TestBalancing:
    def test_parse_ratio(self):
        assert parse_ratio("1:1") == 1
        assert parse_ratio("1:2") == 2
        assert parse_ratio("1:3") == 3

    def test_parse_ratio_rejects_others(self):
        for bad in ("2:1", "1:4", "11", "1:1:1"):
            with pytest.raises(ValueError, match="ratio must be"):
                parse_ratio(bad)

    def test_exact_ratio_and_order(self):
        epochs = _epochs(5, 20)
        out = balance_epochs(epochs, ratio="1:2", seed=0)
        labels = np.array([e.label for e in out])
        assert labels.sum() == 5
        assert (labels == 0).sum() == 10
        starts = [e.start_s for e in out]
        assert starts == sorted(starts)

    def test_minority_class_fully_kept(self):
        out = balance_epochs(_epochs(3, 50), ratio="1:1", seed=1)
        assert sum(e.label for e in out) == 3

    def test_scarce_background_shrinks_seizure_side(self):
        """With 5 seizures but 3 backgrounds, 1:1 keeps 3 of each."""
        out = balance_epochs(_epochs(5, 3), ratio="1:1", seed=2)
        labels = [e.label for e in out]
        assert labels.count(1) == 3
        assert labels.count(0) == 3

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="each class"):
            balance_epochs(_epochs(5, 0))

    def test_deterministic_given_seed(self):
        epochs = _epochs(4, 40)
        a = balance_epochs(epochs, ratio="1:1", seed=7)
        b = balance_epochs(epochs, ratio="1:1", seed=7)
        assert [e.start_s for e in a] == [e.start_s for e in b]

    @settings(max_examples=200, deadline=None)
    @given(
        labels=st.lists(st.sampled_from([0, 1]), max_size=120),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_ratio_for_any_labels(self, labels, k, seed):
        """Sorted unique rows: min(#seizure, #background // k) seizures and k
        times as many backgrounds; a missing class or too few backgrounds raises."""
        labels = np.array(labels, dtype=int)
        n_seiz, n_back = int(labels.sum()), int((labels == 0).sum())
        keep = min(n_seiz, n_back // k)
        if keep == 0:
            with pytest.raises(ValueError):
                balance_indices(labels, f"1:{k}", seed)
            return
        idx = balance_indices(labels, f"1:{k}", seed)
        assert np.array_equal(idx, np.unique(idx))
        assert labels[idx].sum() == keep
        assert (labels[idx] == 0).sum() == k * keep


class TestNormalization:
    def test_zscore_train_statistics(self):
        rng = np.random.default_rng(27)
        x = rng.normal(5.0, 3.0, size=(200, 4))
        params = fit_normalizer(x, "zscore")
        out = apply_normalizer(x, params)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_minmax_unit_interval(self):
        rng = np.random.default_rng(28)
        x = rng.uniform(-4.0, 9.0, size=(100, 5))
        params = fit_normalizer(x, "minmax")
        out = apply_normalizer(x, params)
        np.testing.assert_allclose(out.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.max(axis=0), 1.0, atol=1e-12)

    def test_test_data_uses_train_parameters(self):
        train = np.array([[0.0], [10.0]])
        params = fit_normalizer(train, "minmax")
        out = apply_normalizer(np.array([[5.0], [20.0]]), params)
        np.testing.assert_allclose(out, [[0.5], [2.0]])

    def test_constant_feature_passes_through(self):
        x = np.column_stack([np.full(50, 3.0), np.arange(50.0)])
        for mode in ("zscore", "minmax"):
            params = fit_normalizer(x, mode)
            assert params.passthrough[0]
            assert not params.passthrough[1]
            out = apply_normalizer(x, params)
            np.testing.assert_allclose(out[:, 0], 3.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown normalization"):
            fit_normalizer(np.ones((5, 2)), "robust")

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            fit_normalizer(np.zeros((0, 3)))


def _reference_channel_features(x, fs):
    """Scalar loop oracle: one window, one 2 s frame and one FFT at a time."""
    mu = x.mean()
    centered = x - mu
    var = np.mean(centered**2)
    std = np.sqrt(var)
    skew = np.mean(centered**3) / std**3 if std > 0 else 0.0
    kurt = np.mean(centered**4) / var**2 if std > 0 else 0.0
    stats = [mu, std, np.mean(np.abs(centered)), skew, kurt, x.min(), x.max(),
             np.sqrt(np.mean(x**2))]
    frame_len = len(x) // 5
    win = get_window("hann", frame_len, fftbins=True)
    bank = mel_filterbank(MEL_FILTERS, frame_len, fs)
    cepstra = []
    for f in range(5):
        power = np.abs(np.fft.rfft(x[f * frame_len:(f + 1) * frame_len] * win)) ** 2
        cepstra.extend(dct(np.log(np.maximum(bank @ power, LOG_EPS)), type=2, norm="ortho")[:10])
    return np.array(stats + cepstra)


@st.composite
def _epoch_batches(draw, sizes=(0, 1, 7)):
    """(fs, epochs): random 10 s windows at a common rate, as many as one of
    ``sizes`` (by default 0, 1 or many)."""
    fs = draw(st.sampled_from([200.0, 250.0, 256.0]))
    n = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-3, 1e3))
    w = int(round(WINDOW_S * fs))
    epochs = [
        LabeledEpoch("p", float(i), scale * rng.standard_normal((6, w)) + rng.normal(), 0)
        for i in range(n)
    ]
    return fs, epochs


class TestBatchedFeatureProperties:
    @settings(max_examples=30, deadline=None)
    @given(_epoch_batches())
    def test_batch_matches_per_window_vectors(self, batch):
        fs, epochs = batch
        out = features_for_epochs(epochs, fs)
        assert out.shape == (len(epochs), 348)
        for row, epoch in zip(out, epochs):
            np.testing.assert_allclose(row, epoch_features(epoch, fs), rtol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(_epoch_batches())
    def test_batch_matches_scalar_loop_oracle(self, batch):
        fs, epochs = batch
        out = features_for_epochs(epochs, fs).reshape(len(epochs), 6, 58)
        for rows, epoch in zip(out, epochs):
            for row, x in zip(rows, epoch.channels):
                np.testing.assert_allclose(
                    row, _reference_channel_features(x, fs), rtol=1e-9, atol=1e-12
                )

    @settings(max_examples=20, deadline=None)
    @given(_epoch_batches(), st.data())
    def test_permuting_epochs_permutes_rows(self, batch, data):
        fs, epochs = batch
        order = data.draw(st.permutations(range(len(epochs))))
        out = features_for_epochs([epochs[i] for i in order], fs)
        np.testing.assert_array_equal(out, features_for_epochs(epochs, fs)[list(order)])

    @settings(max_examples=10, deadline=None)
    @given(_epoch_batches(sizes=(9,)))
    def test_rows_do_not_depend_on_the_batch_size(self, batch):
        """Nine windows cut into passes of 1, 3, 4 or 16 give the same rows
        bit for bit, whichever pass and place in it a window lands in."""
        fs, epochs = batch
        rows = []
        for size in (1, 3, 4, 16):
            with mock.patch.object(features, "FEATURE_BATCH", size):
                rows.append(features_for_epochs(epochs, fs))
        for out in rows[1:]:
            np.testing.assert_array_equal(out, rows[0])
