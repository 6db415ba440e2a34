"""Sifting behaviour, additivity, and the fixed-order modality split."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from earpipe import emd
from earpipe.emd import (
    EmdResult,
    _local_extrema,
    _sift,
    assign_modalities,
    emd_decompose,
    separate_recording_emd,
)
from earpipe.signals import MODALITIES, ChannelRole, Recording, SEPARATED_ROLES

FS = 250.0


def _orthogonality_index(result: EmdResult) -> float:
    """Sum of cross-IMF inner products relative to total signal energy."""
    total = result.imfs.sum(axis=0) + result.residual
    energy = float(np.sum(total**2))
    if energy == 0.0:
        return 0.0
    gram = result.imfs @ result.imfs.T
    cross = np.sum(np.abs(gram)) - np.sum(np.abs(np.diag(gram)))
    return float(cross / energy)


def _two_tone(duration_s=10.0, fs=FS):
    t = np.arange(int(duration_s * fs)) / fs
    fast = np.sin(2 * np.pi * 12.0 * t)
    slow = 0.8 * np.sin(2 * np.pi * 1.0 * t)
    return fast, slow, fast + slow


class TestDecomposition:
    def test_two_tone_split(self):
        """A 12 Hz + 1 Hz mixture puts each tone in its own IMF."""
        fast, slow, x = _two_tone()
        res = emd_decompose(x)
        assert res.n_imfs >= 2
        trim = slice(int(FS), -int(FS))  # judge away from the boundaries
        fast_err = np.linalg.norm(res.imfs[0][trim] - fast[trim])
        fast_err /= np.linalg.norm(fast[trim])
        assert fast_err < 0.1
        slow_rebuilt = res.imfs[1:].sum(axis=0) + res.residual
        slow_err = np.linalg.norm(slow_rebuilt[trim] - slow[trim])
        slow_err /= np.linalg.norm(slow[trim])
        assert slow_err < 0.1

    def test_additivity_exact(self):
        """IMFs plus residual rebuild the input to float accuracy."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal(2000)
        res = emd_decompose(x)
        np.testing.assert_allclose(res.imfs.sum(axis=0) + res.residual, x, atol=1e-9)

    def test_monotonic_signal_yields_no_imfs(self):
        """A ramp has no interior extrema and is pure residual."""
        x = np.linspace(0.0, 1.0, 500)
        res = emd_decompose(x)
        assert res.n_imfs == 0
        assert res.imfs.shape == (0, 500)
        np.testing.assert_allclose(res.residual, x)

    def test_imf_count_capped(self, monkeypatch):
        monkeypatch.setattr(emd, "MAX_IMFS", 3)
        rng = np.random.default_rng(13)
        x = rng.standard_normal(4000)
        res = emd_decompose(x)
        assert res.n_imfs <= 3

    def test_imfs_ordered_fast_to_slow(self):
        """Zero-crossing counts do not increase with IMF index."""
        rng = np.random.default_rng(17)
        x = rng.standard_normal(3000)
        res = emd_decompose(x)
        crossings = [
            int(np.sum(np.abs(np.diff(np.signbit(imf))))) for imf in res.imfs
        ]
        assert all(a >= b for a, b in zip(crossings, crossings[1:]))

    def test_orthogonality_small_for_tones(self):
        _, _, x = _two_tone()
        res = emd_decompose(x)
        assert _orthogonality_index(res) < 0.1

    def test_orthogonality_zero_signal(self):
        res = EmdResult(imfs=np.zeros((0, 100)), residual=np.zeros(100))
        assert _orthogonality_index(res) == 0.0


class TestValidation:
    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="single channel"):
            emd_decompose(np.zeros((2, 100)))

    def test_nonfinite_rejected(self):
        x = np.zeros(100)
        x[5] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            emd_decompose(x)


class TestModalityAssignment:
    def _result(self, k, n=200):
        rng = np.random.default_rng(k)
        return EmdResult(imfs=rng.standard_normal((k, n)), residual=np.zeros(n))

    def test_full_depth_assignment(self):
        res = self._result(7)
        asg = assign_modalities(res)
        np.testing.assert_allclose(asg["emg"], res.imfs[0])
        np.testing.assert_allclose(asg["eeg"], res.imfs[2])
        np.testing.assert_allclose(asg["eog"], res.imfs[3:6].sum(axis=0))

    def test_five_imfs_give_partial_eog(self):
        res = self._result(5)
        asg = assign_modalities(res)
        np.testing.assert_allclose(asg["emg"], res.imfs[0])
        np.testing.assert_allclose(asg["eeg"], res.imfs[2])
        np.testing.assert_allclose(asg["eog"], res.imfs[3:5].sum(axis=0))

    def test_two_imfs_leave_eeg_and_eog_silent(self):
        res = self._result(2)
        asg = assign_modalities(res)
        np.testing.assert_allclose(asg["eeg"], 0.0)
        np.testing.assert_allclose(asg["eog"], 0.0)
        np.testing.assert_allclose(asg["emg"], res.imfs[0])

    def test_zero_imfs_all_silent(self):
        asg = assign_modalities(EmdResult(imfs=np.zeros((0, 50)), residual=np.ones(50)))
        np.testing.assert_allclose(asg["emg"], 0.0)
        np.testing.assert_allclose(asg["eeg"], 0.0)
        np.testing.assert_allclose(asg["eog"], 0.0)

    @pytest.mark.parametrize("k", range(9))
    def test_keys_are_the_modalities(self, k):
        """Every depth gives one full-length signal per modality, no more."""
        asg = assign_modalities(self._result(k))
        assert tuple(asg) == MODALITIES
        assert all(x.shape == (200,) for x in asg.values())


class TestRecordingSeparation:
    def _recording(self, seed=0):
        rng = np.random.default_rng(seed)
        n = 2000
        return Recording(
            patient_id="t00",
            sample_rate=FS,
            channels={
                ChannelRole.MIXED_LEFT: rng.standard_normal(n) * 0.05,
                ChannelRole.MIXED_RIGHT: rng.standard_normal(n) * 0.05,
            },
        )

    def test_output_roles_complete(self):
        out = separate_recording_emd(self._recording())
        assert tuple(out.channels) == SEPARATED_ROLES
        for sig in out.channels.values():
            assert sig.shape == (2000,)

    def test_metadata_carried_through(self):
        rec = self._recording()
        out = separate_recording_emd(rec)
        assert out.patient_id == rec.patient_id
        assert out.sample_rate == rec.sample_rate

    def test_missing_channel_rejected(self):
        rec = self._recording()
        del rec.channels[ChannelRole.MIXED_RIGHT]
        message = r"patient 't00' lacks channels \['mixed_right'\]; separation needs a mixed"
        with pytest.raises(ValueError, match=message):
            separate_recording_emd(rec)


def _random_signal(n, kind, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    if kind == "walk":
        return np.cumsum(x)
    if kind == "tone":
        return np.sin(0.3 * np.arange(n)) + 0.01 * x
    return x


def _reference_split(x):
    """The split as it ran before it stopped at six IMFs: sift up to eight,
    then take IMF 1 as EMG, IMF 3 as EEG and the sum of IMFs 4-6 as EOG."""
    with patch.object(emd, "MAX_IMFS", 8):
        imfs = emd_decompose(x).imfs
    zeros = np.zeros(len(x))
    return {
        "emg": imfs[0] if len(imfs) >= 1 else zeros,
        "eeg": imfs[2] if len(imfs) >= 3 else zeros,
        "eog": imfs[3:6].sum(axis=0) if len(imfs) >= 4 else zeros,
    }


class TestSixImfSplit:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=3000),
        kind=st.sampled_from(["noise", "walk", "tone"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # left channels with 0, 2, 5, 7 and 8 IMFs at the old cap
    @example(n=12, kind="tone", seed=2)
    @example(n=40, kind="noise", seed=1)
    @example(n=400, kind="noise", seed=3)
    @example(n=2500, kind="noise", seed=5)
    @example(n=3000, kind="noise", seed=6)
    def test_split_matches_eight_imf_split_exactly(self, n, kind, seed):
        """Every separated channel equals the eight-IMF split's bit for bit,
        and the first six IMFs do not depend on the cap."""
        left, right = _random_signal(n, kind, seed), _random_signal(n, kind, seed + 1)
        rec = Recording(
            patient_id="t01",
            sample_rate=FS,
            channels={ChannelRole.MIXED_LEFT: left, ChannelRole.MIXED_RIGHT: right},
        )
        out = separate_recording_emd(rec)
        for side, x in (("left", left), ("right", right)):
            reference = _reference_split(x)
            for modality, expected in reference.items():
                np.testing.assert_array_equal(out.channels[ChannelRole(f"{modality}_{side}")], expected)
        with patch.object(emd, "MAX_IMFS", 8):
            full = emd_decompose(left)
        six = emd_decompose(left)
        assert emd.MAX_IMFS == 6
        np.testing.assert_array_equal(six.imfs, full.imfs[:6])


def _decompose_with_extrema_precheck(x, max_imfs):
    """The sifting loop as it ran when it first counted each residual's
    extrema and stopped below four, before handing it to ``_sift``."""
    imfs, residual = [], x.copy()
    while len(imfs) < max_imfs:
        maxima, minima = _local_extrema(residual)
        if len(maxima) + len(minima) < 4:
            break
        imf = _sift(residual)
        if imf is None:
            break
        imfs.append(imf)
        residual = residual - imf
    return np.array(imfs).reshape(len(imfs), len(x)), residual


class TestExtremaCountedOnce:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.integers(min_value=-2, max_value=2), min_size=2, max_size=14),
        max_imfs=st.integers(min_value=1, max_value=8),
    )
    # monotone, flat, and plateaued signals with 0, 1, 2, 3 and 4 extrema
    @example(steps=[1, 1, 1, 1], max_imfs=8)
    @example(steps=[0, 0, 0], max_imfs=8)
    @example(steps=[1, 0, -1, -1], max_imfs=8)
    @example(steps=[1, -1, 0, 1], max_imfs=8)
    @example(steps=[1, -1, 1, -1, -1], max_imfs=8)
    @example(steps=[2, -1, 1, -2, 1, 1], max_imfs=8)
    def test_short_signals_match_the_precheck_loop(self, steps, max_imfs):
        """Fewer than four extrema leave fewer than two maxima or minima,
        so ``_sift`` stops the loop where the count did."""
        x = np.cumsum(np.array([0] + steps, dtype=float))
        with patch.object(emd, "MAX_IMFS", max_imfs):
            out = emd_decompose(x)
        imfs, residual = _decompose_with_extrema_precheck(x, max_imfs)
        np.testing.assert_array_equal(out.imfs, imfs)
        np.testing.assert_array_equal(out.residual, residual)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=1500),
        kind=st.sampled_from(["noise", "walk", "tone"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_signals_match_the_precheck_loop(self, n, kind, seed):
        x = _random_signal(n, kind, seed)
        out = emd_decompose(x)
        imfs, residual = _decompose_with_extrema_precheck(x, 6)
        np.testing.assert_array_equal(out.imfs, imfs)
        np.testing.assert_array_equal(out.residual, residual)


def _local_extrema_loop(x):
    """The extrema as found by carrying the slope through flat stretches one
    sample at a time."""
    d = np.sign(np.diff(x))
    for i in range(1, len(d)):
        if d[i] == 0:
            d[i] = d[i - 1]
    turn = np.diff(d)
    return np.where(turn < 0)[0] + 1, np.where(turn > 0)[0] + 1


class TestLocalExtrema:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(min_value=-2, max_value=2), max_size=40))
    # lengths 0-3, all flat, and leading, trailing and interior plateaus
    @example(values=[])
    @example(values=[1])
    @example(values=[1, 1])
    @example(values=[0, 1, 0])
    @example(values=[2, 2, 2, 2, 2])
    @example(values=[1, 1, 1, 2, 0, 1])
    @example(values=[0, 2, 1, 1, 1])
    @example(values=[0, 2, 2, 2, 0, 1, 1, 1, 3])
    @example(values=[1, 1, 0, 0, 2, 2, 1, 1])
    def test_matches_the_carry_loop(self, values):
        x = np.array(values, dtype=float)
        got, expected = _local_extrema(x), _local_extrema_loop(x)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=3000),
        decimals=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_long_plateaued_walks_match_the_carry_loop(self, n, decimals, seed):
        x = np.cumsum(np.round(np.random.default_rng(seed).standard_normal(n), decimals))
        for a, b in zip(_local_extrema(x), _local_extrema_loop(x)):
            np.testing.assert_array_equal(a, b)
