"""Mode recovery, reconstruction, and motion screening for VMD."""

import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import hilbert

from earpipe import vmd
from earpipe.corpus import make_synthetic_corpus, patient_spec
from earpipe.evaluation import stage_a_pool
from earpipe.preprocess import preprocess_recording
from earpipe.signals import synthesize_recording
from earpipe.vmd import (
    MOTION_R_THRESHOLD,
    MotionCorrelation,
    VmdResult,
    _analytic_signal,
    _screen_channel,
    motion_correlation,
    remove_motion_artifacts,
    vmd_decompose,
    warn_zeroed_blocks,
)

FS = 250.0


def _tones(freqs, amps, duration_s, fs=FS):
    t = np.arange(int(duration_s * fs)) / fs
    return sum(a * np.sin(2 * np.pi * f * t) for f, a in zip(freqs, amps))


class TestToneRecovery:
    def test_three_tone_centers(self, monkeypatch):
        """2/10/40 Hz tones with K=3 land each center within 0.5 Hz."""
        monkeypatch.setattr(vmd, "K", 3)
        x = _tones([2.0, 10.0, 40.0], [1.0, 1.0, 1.0], 10.0)
        res = vmd_decompose(x, FS)
        np.testing.assert_allclose(res.center_freqs_hz, [2.0, 10.0, 40.0], atol=0.5)

    def test_single_tone_reconstruction(self, monkeypatch):
        """One mode rebuilds a 10 Hz tone with under 5% relative error."""
        monkeypatch.setattr(vmd, "K", 1)
        x = _tones([10.0], [1.0], 30.0)
        res = vmd_decompose(x, FS)
        err = np.linalg.norm(res.modes[0] - x) / np.linalg.norm(x)
        assert err < 0.05

    def test_modes_sorted_by_center(self, monkeypatch):
        monkeypatch.setattr(vmd, "K", 3)
        x = _tones([5.0, 30.0, 60.0], [1.0, 0.7, 0.5], 8.0)
        res = vmd_decompose(x, FS)
        assert np.all(np.diff(res.center_freqs_hz) >= 0)

    def test_mode_shape_matches_input(self, monkeypatch):
        monkeypatch.setattr(vmd, "K", 4)
        monkeypatch.setattr(vmd, "MAX_ITER", 40)
        rng = np.random.default_rng(3)
        for n in (999, 1000, 2049):
            x = rng.standard_normal(n)
            res = vmd_decompose(x, FS)
            assert res.modes.shape == (4, n)
            assert res.residual.shape == (n,)


class TestReconstruction:
    def test_modes_plus_residual_is_input(self, monkeypatch):
        """The residual is defined so modes + residual returns the input."""
        monkeypatch.setattr(vmd, "K", 5)
        monkeypatch.setattr(vmd, "MAX_ITER", 60)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1200)
        res = vmd_decompose(x, FS)
        np.testing.assert_allclose(res.modes.sum(axis=0) + res.residual, x, atol=1e-12)

    def test_zero_signal_short_circuits(self, monkeypatch):
        monkeypatch.setattr(vmd, "K", 3)
        res = vmd_decompose(np.zeros(1000), FS)
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_allclose(res.modes, 0.0)
        np.testing.assert_allclose(res.residual, 0.0)

    def test_convergence_reported(self, monkeypatch):
        monkeypatch.setattr(vmd, "K", 1)
        x = _tones([10.0], [1.0], 5.0)
        res = vmd_decompose(x, FS)
        assert res.converged
        assert 0 < res.iterations <= 500


def _reference_vmd(x, fs, k, alpha, tol, max_iter, dtype=np.complex64):
    """The textbook ADMM loop, kept as the oracle for the fast kernel.

    Mirror extension, spectrum, sweep and rebuild as ``vmd_decompose`` did
    before it reused per-sweep quantities: every sweep copies the modes,
    divides by each mode's denominator and recomputes the convergence sums.
    The centers start evenly spaced and there is no dual ascent (tau = 0).
    The sweeps run with every array in ``dtype`` (complex64, the kernel's
    sweep precision, or complex128) and its real counterpart; the spectrum
    and the rebuild stay in double.  The spectrum is not rescaled: scaling
    by a power of two is exact, so the kernel must match it all the same.
    Returns (modes, center_freqs_hz, iterations, converged).
    """
    real = np.finfo(dtype).dtype
    x = np.asarray(x, dtype=np.float64)
    n_orig = len(x)
    if n_orig % 2 == 1:
        x = np.append(x, x[-1])
    n = len(x)
    half = n // 2
    f = np.concatenate([x[:half][::-1], x, x[-half:][::-1]])
    t_len = len(f)
    freqs = np.arange(1, t_len + 1) / t_len - 0.5 - 1.0 / t_len
    f_hat = np.fft.fftshift(np.fft.fft(f))
    half_slice = slice(t_len // 2, t_len)
    f_plus = f_hat[half_slice].astype(dtype)
    freqs_pos = freqs[half_slice].astype(real)

    omega = ((0.5 / k) * np.arange(k)).astype(real)
    u_hat = np.zeros((k, len(f_plus)), dtype=dtype)

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        u_prev = u_hat.copy()
        sum_all = u_hat.sum(axis=0)
        for i in range(k):
            sum_others = sum_all - u_hat[i]
            u_new = (f_plus - sum_others) / (
                1.0 + 2.0 * alpha * (freqs_pos - omega[i]) ** 2
            )
            sum_all += u_new - u_hat[i]
            u_hat[i] = u_new
            power = np.abs(u_new) ** 2
            total = power.sum()
            if total > 0:
                omega[i] = float(np.dot(freqs_pos, power) / total)

        diff = np.sum(np.abs(u_hat - u_prev) ** 2)
        norm = np.sum(np.abs(u_prev) ** 2)
        if norm > 0.0 and diff < tol * norm:
            converged = True
            break

    full = np.zeros((k, t_len), dtype=complex)
    full[:, t_len // 2:] = u_hat
    full[:, 1: t_len // 2 + 1] = np.conj(full[:, -1: t_len // 2 - 1: -1])
    full[:, 0] = np.conj(full[:, -1])
    u = np.real(np.fft.ifft(np.fft.ifftshift(full, axes=1), axis=1))
    modes = u[:, half: half + n][:, :n_orig]
    order = np.argsort(omega)
    return modes[order], omega[order].astype(np.float64) * fs, iterations, converged


class TestReferenceKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=700),
        k=st.integers(min_value=1, max_value=8),
        tol=st.sampled_from([1e-7, 1e-3]),
        max_iter=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_reference_exactly(self, n, k, tol, max_iter, seed):
        """Modes, centers, iteration count and convergence equal the
        textbook loop's, not merely to a tolerance."""
        x = np.random.default_rng(seed).standard_normal(n)
        with patch.multiple(vmd, K=k, TOL=tol, MAX_ITER=max_iter):
            res = vmd_decompose(x, FS)
        modes, centers, iterations, converged = _reference_vmd(
            x, FS, k, 2000.0, tol, max_iter
        )
        np.testing.assert_array_equal(res.modes, modes)
        np.testing.assert_array_equal(res.center_freqs_hz, centers)
        assert res.iterations == iterations
        assert res.converged == converged

    def test_full_block_matches_reference(self):
        """A 30 s two-tone block run to convergence matches exactly."""
        x = _tones([3.0, 11.0], [1.0, 0.4], 30.0)
        x += 0.05 * np.random.default_rng(11).standard_normal(len(x))
        res = vmd_decompose(x, FS)
        modes, centers, iterations, converged = _reference_vmd(x, FS, 8, 2000.0, 1e-7, 500)
        np.testing.assert_array_equal(res.modes, modes)
        np.testing.assert_array_equal(res.center_freqs_hz, centers)
        assert (res.iterations, res.converged) == (iterations, converged)

    def test_recording_blocks_match_reference(self):
        """All six full-length blocks of conditioned patient p02 at master
        seed 0 (two channels cut at 0-30, 29-59 and 58-90 s) match exactly;
        two of them stop at the sweep cap (500, 52 and 170 sweeps on one
        channel, 500, 52 and 175 on the other)."""
        rec = preprocess_recording(synthesize_recording(patient_spec(2, master_seed=0)))
        fs = rec.sample_rate
        blocks = [x[round(a * fs):round(b * fs)]
                  for x in rec.channels.values() for a, b in ((0, 30), (29, 59), (58, 90))]
        stopped_at_cap = 0
        for seg in blocks:
            res = vmd_decompose(seg, fs)
            modes, centers, iterations, converged = _reference_vmd(seg, fs, 8, 2000.0, 1e-7, 500)
            np.testing.assert_array_equal(res.modes, modes)
            np.testing.assert_array_equal(res.center_freqs_hz, centers)
            assert (res.iterations, res.converged) == (iterations, converged)
            stopped_at_cap += not converged
        assert stopped_at_cap == 2


def _block_peak_error(modes, reference):
    """Largest mode difference, relative to the block's largest mode sample."""
    return np.abs(modes - reference).max() / np.abs(reference).max()


class TestDoublePrecisionPin:
    """The single-precision sweeps against the float64 textbook loop: the
    same sweep count, convergence and exclusion masks, and modes within
    1e-4 of the block's peak (measured: 2.6e-7 on the tone block, at most
    1.3e-5 on the recording's blocks)."""

    def test_two_tone_block(self):
        x = _tones([3.0, 11.0], [1.0, 0.4], 30.0)
        x += 0.05 * np.random.default_rng(11).standard_normal(len(x))
        res = vmd_decompose(x, FS)
        modes, _, iterations, converged = _reference_vmd(
            x, FS, 8, 2000.0, 1e-7, 500, dtype=np.complex128
        )
        assert (res.iterations, res.converged) == (iterations, converged)
        assert _block_peak_error(res.modes, modes) < 1e-4

    def test_synthetic_recording_blocks(self):
        """All six blocks of one conditioned synthetic patient (two channels,
        three blocks each), screened against their IMU slices; each block is
        cut at the span its report names."""
        rec = preprocess_recording(make_synthetic_corpus(1, master_seed=0)[0])
        fs, imu_rate, threshold = rec.sample_rate, rec.imu_rate, MOTION_R_THRESHOLD
        blocks = []
        for x in rec.channels.values():
            _, reports = remove_motion_artifacts(x, fs, rec.imu, imu_rate)
            for report in reports:
                start, stop = (round(t * fs) for t in report.span_s)
                i0 = round(start / fs * imu_rate)
                i1 = max(i0 + 2, round(stop / fs * imu_rate))
                blocks.append((x[start:stop], rec.imu[:, i0:i1], report))
        assert len(blocks) == 6
        for seg, accel, report in blocks:
            res = vmd_decompose(seg, fs)
            assert (report.iterations, report.converged) == (res.iterations, res.converged)
            np.testing.assert_array_equal(
                report.excluded, motion_correlation(res, accel, imu_rate, threshold).excluded
            )
            modes, centers, iterations, converged = _reference_vmd(
                seg, fs, 8, 2000.0, 1e-7, 500, dtype=np.complex128
            )
            assert (res.iterations, res.converged) == (iterations, converged)
            assert _block_peak_error(res.modes, modes) < 1e-4
            double = VmdResult(modes, centers, seg - modes.sum(axis=0), fs, iterations, converged)
            np.testing.assert_array_equal(
                motion_correlation(res, accel, imu_rate, threshold).excluded,
                motion_correlation(double, accel, imu_rate, threshold).excluded,
            )


class TestScaleInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        j=st.integers(min_value=-200, max_value=200),
        n=st.integers(min_value=4, max_value=700),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(j=-200, n=500, seed=0)
    @example(j=200, n=500, seed=0)
    def test_power_of_two_scale_is_exact(self, j, n, seed):
        """Scaling the input by 2**j scales the modes and residual by 2**j bit
        for bit and leaves centers, sweeps and convergence alone; float32
        alone would overflow or flush to zero at the ends of the range."""
        x = np.random.default_rng(seed).standard_normal(n)
        with patch.multiple(vmd, K=4, MAX_ITER=60):
            base = vmd_decompose(x, FS)
            scaled = vmd_decompose(x * 2.0**j, FS)
        assert scaled.modes.tobytes() == np.ldexp(base.modes, j).tobytes()
        assert scaled.residual.tobytes() == np.ldexp(base.residual, j).tobytes()
        assert scaled.center_freqs_hz.tobytes() == base.center_freqs_hz.tobytes()
        assert (scaled.iterations, scaled.converged) == (base.iterations, base.converged)


class TestValidation:
    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="single channel"):
            vmd_decompose(np.zeros((2, 100)), FS)

    def test_nonfinite_rejected(self):
        x = np.zeros(100)
        x[10] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            vmd_decompose(x, FS)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            vmd_decompose(np.zeros(3), FS)


def _burst_recording(duration_s=20.0, imu_rate=50.0, seed=0):
    """Alpha background plus one IMU-co-registered 4 Hz noise burst."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * FS)
    t = np.arange(n) / FS
    clean = 0.05 * np.sin(2 * np.pi * 10.0 * t)
    env = np.zeros(n)
    i0, i1 = int(6 * FS), int(12 * FS)
    env[i0:i1] = np.sin(np.pi * np.arange(i1 - i0) / (i1 - i0)) ** 2
    burst = 0.8 * env * np.sin(2 * np.pi * 4.0 * t + rng.uniform(0, 2 * np.pi))
    n_imu = int(duration_s * imu_rate)
    t_imu = np.arange(n_imu) / imu_rate
    accel = np.vstack(
        [
            np.interp(t_imu, t, env) + 0.01 * rng.standard_normal(n_imu),
            0.01 * rng.standard_normal(n_imu),
            1.0 + 0.01 * rng.standard_normal(n_imu),
        ]
    )
    return clean, clean + burst, accel, imu_rate


class TestMotionScreening:
    def test_burst_mode_flagged(self, monkeypatch):
        """The mode tracking the IMU envelope crosses the r threshold."""
        monkeypatch.setattr(vmd, "K", 4)
        _, noisy, accel, imu_rate = _burst_recording()
        res = vmd_decompose(noisy, FS)
        corr = motion_correlation(res, accel, imu_rate)
        assert corr.n_excluded >= 1
        assert np.all(np.abs(corr.r[corr.excluded]) > MOTION_R_THRESHOLD)

    def test_stationary_tone_not_flagged(self, monkeypatch):
        """A constant-envelope tone shows no IMU correlation."""
        monkeypatch.setattr(vmd, "K", 2)
        rng = np.random.default_rng(5)
        x = _tones([10.0], [1.0], 20.0)
        accel = np.vstack(
            [
                0.02 * rng.standard_normal(1000),
                0.02 * rng.standard_normal(1000),
                1.0 + 0.02 * rng.standard_normal(1000),
            ]
        )
        res = vmd_decompose(x, FS)
        corr = motion_correlation(res, accel, 50.0)
        assert corr.n_excluded == 0

    def test_report_carries_convergence(self, monkeypatch):
        """Each report copies its block's iteration count and convergence."""
        monkeypatch.setattr(vmd, "K", 4)
        _, noisy, accel, imu_rate = _burst_recording(seed=1)
        for max_iter in (3, 500):
            monkeypatch.setattr(vmd, "MAX_ITER", max_iter)
            res = vmd_decompose(noisy, FS)
            corr = motion_correlation(res, accel, imu_rate)
            assert (corr.iterations, corr.converged) == (res.iterations, res.converged)
        assert corr.converged and corr.iterations < 500
        monkeypatch.setattr(vmd, "MAX_ITER", 3)
        capped = motion_correlation(vmd_decompose(noisy, FS), accel, imu_rate)
        assert (capped.iterations, capped.converged) == (3, False)

    def test_accel_shape_rejected(self, monkeypatch):
        monkeypatch.setattr(vmd, "K", 2)
        monkeypatch.setattr(vmd, "MAX_ITER", 5)
        res = vmd_decompose(np.ones(500), FS)
        with pytest.raises(ValueError, match="3 x M"):
            motion_correlation(res, np.zeros((2, 100)), 50.0)

    def test_excluded_is_strictly_above_threshold(self):
        """The mask is |r| > threshold: an |r| equal to the threshold is
        kept, and a threshold of -1 flags every mode, r = 0 included."""
        r = np.array([-0.5, -0.3, 0.0, 0.3, 0.29, 0.31])
        corr = MotionCorrelation(r, 0.3, 0, True, (0.0, 1.0))
        np.testing.assert_array_equal(corr.excluded, [True, False, False, False, False, True])
        assert corr.n_excluded == 2
        corr.threshold = -1.0
        assert corr.excluded.all() and corr.n_excluded == 6

    def test_exclusion_subtracts_flagged_modes(self, monkeypatch):
        """A 20 s channel is one block, whose cross-fade weight is 1, so the
        screen returns exactly the sum of the modes its report keeps."""
        monkeypatch.setattr(vmd, "K", 4)
        _, noisy, accel, imu_rate = _burst_recording(seed=2)
        rebuilt, (corr,) = remove_motion_artifacts(noisy, FS, accel, imu_rate)
        res = vmd_decompose(noisy, FS)
        np.testing.assert_array_equal(
            corr.excluded, motion_correlation(res, accel, imu_rate).excluded
        )
        np.testing.assert_array_equal(rebuilt, res.modes[~corr.excluded].sum(axis=0))


class TestAnalyticSignal:
    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(1, 2500), odd=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_scipy_hilbert_bit_for_bit(self, half, odd, seed):
        """The envelope's analytic signal is scipy.signal.hilbert's, at odd
        and even lengths 1-5000, without importing scipy.signal."""
        x = np.random.default_rng(seed).standard_normal(2 * half - odd)
        assert _analytic_signal(x).tobytes() == hilbert(x).tobytes()


class TestRemoveMotionArtifacts:
    def test_each_zeroed_block_warns_with_its_span(self, monkeypatch):
        """Python's default filter shows one warning per distinct message and
        location; the span in the message keeps a second zeroed block visible."""
        monkeypatch.setattr(vmd, "K", 2)
        monkeypatch.setattr(vmd, "MAX_ITER", 5)
        _, noisy, accel, imu_rate = _burst_recording(duration_s=60.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            out, _ = remove_motion_artifacts(noisy, FS, accel, imu_rate, threshold=-1.0)
        assert [str(w.message) for w in caught] == [
            "block 0–30 s: every mode correlates with motion; returning zeros",
            "block 29–60 s: every mode correlates with motion; returning zeros",
        ]
        np.testing.assert_array_equal(out, 0.0)

    def test_cleaning_recovers_alpha_band(self):
        """Removal cuts burst-band energy while keeping the 10 Hz rhythm."""
        clean, noisy, accel, imu_rate = _burst_recording(seed=4)
        out, reports = remove_motion_artifacts(noisy, FS, accel, imu_rate)
        assert len(reports) == 1  # 20 s fits one block
        err_before = np.linalg.norm(noisy - clean)
        err_after = np.linalg.norm(out - clean)
        assert err_after < 0.5 * err_before

    def test_block_report_count(self, monkeypatch):
        """A 90 s signal at 30 s blocks with 1 s overlap gives 3 reports."""
        monkeypatch.setattr(vmd, "MAX_ITER", 10)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(int(90 * FS))
        accel = np.vstack(
            [
                0.01 * rng.standard_normal(int(90 * 50)),
                0.01 * rng.standard_normal(int(90 * 50)),
                1.0 + 0.01 * rng.standard_normal(int(90 * 50)),
            ]
        )
        out, reports = remove_motion_artifacts(x, FS, accel, 50.0)
        assert len(out) == len(x)
        assert len(reports) == 3

    @pytest.mark.parametrize("imu_s", [20.0, 95.0])
    def test_imu_duration_mismatch_rejected(self, imu_s, monkeypatch):
        """A 20 s or 95 s IMU track against 90 s of signal is refused at entry
        and the error names both durations."""
        monkeypatch.setattr(vmd, "MAX_ITER", 2)
        x = np.random.default_rng(9).standard_normal(int(90 * FS))
        accel = np.ones((3, int(imu_s * 50)))
        with pytest.raises(ValueError, match=f"{imu_s:g} s .* 90 s"):
            remove_motion_artifacts(x, FS, accel, 50.0)

    def test_imu_within_one_sample_accepted(self, monkeypatch):
        """An IMU track one sample short of the signal still screens."""
        monkeypatch.setattr(vmd, "MAX_ITER", 2)
        x = np.random.default_rng(9).standard_normal(int(10 * FS))
        accel = np.ones((3, 10 * 50 - 1))
        out, reports = remove_motion_artifacts(x, FS, accel, 50.0)
        assert len(out) == len(x) and len(reports) == 1

    def test_rate_too_low_for_the_block_grid_rejected(self):
        """At 0.01 Hz a 30 s block rounds to 0 samples, so no grid can be
        laid; the error names the rate."""
        with pytest.raises(ValueError, match=r"sample rate of 0\.01 Hz is too low"):
            remove_motion_artifacts(np.ones(10), 0.01, np.ones((3, 50)), 0.05)


class TestBlockLayout:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 20_000), block=st.integers(1, 8_000))
    def test_fewest_blocks_on_the_overlap_grid(self, data, n, block):
        """Blocks start every ``block - overlap`` samples, the fewest cover the
        signal, the last one runs to its end, and no sample is in three.
        The spans are read from the reports, with the decomposition stubbed
        out, so blocks of under four samples can be laid out too."""
        overlap = data.draw(st.integers(0, (block - 1) // 2), label="overlap")
        step = block - overlap
        fs, imu_rate = 250.0, 50.0
        lengths = []

        def decompose(seg, fs):  # one zero mode, at no cost
            lengths.append(len(seg))
            return VmdResult(np.zeros((1, len(seg))), np.zeros(1), np.zeros(len(seg)), fs, 0, True)

        def correlate(result, accel, imu_rate, threshold):
            return MotionCorrelation(np.zeros(1), threshold, 0, True, (0.0, 0.0))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vmd, "vmd_decompose", decompose)
            mp.setattr(vmd, "motion_correlation", correlate)
            mp.setattr(vmd, "BLOCK_S", block / fs)
            mp.setattr(vmd, "BLOCK_OVERLAP_S", overlap / fs)
            _, reports = _screen_channel(
                np.zeros(n), fs, np.zeros((3, round(n / fs * imu_rate))), imu_rate
            )
        spans = [tuple(round(t * fs) for t in r.span_s) for r in reports]
        assert len(spans) == max(1, (n - overlap) // step)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert lengths == [b - a for a, b in spans]
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop - start == overlap
        assert all(b - a == block for a, b in spans[:-1])
        last = spans[-1][1] - spans[-1][0]
        assert block <= last < block + step if n >= block else last == n
        depth = np.zeros(n, dtype=int)
        for a, b in spans:
            depth[a:b] += 1
        assert depth.max() <= 2


class TestBlockPool:
    """A channel screened on stage A's process pool gives the inline result
    bit for bit.  A patched module constant does not reach a pool worker,
    which is forked from a server that imported ``earpipe.vmd`` itself, so
    these tests run the decomposition's own settings."""

    def test_pool_matches_inline_exactly(self, workers_gone):
        """Three blocks of an odd-length signal (the last one odd too),
        converged and capped, one mode flagged."""
        _, noisy, accel, imu_rate = _burst_recording(duration_s=90.0, seed=3)
        x = np.append(noisy, noisy[-1])
        inline, inline_reports = remove_motion_artifacts(x, FS, accel, imu_rate)
        with stage_a_pool(2) as pool:
            pooled, pooled_reports = pool.submit(_screen_channel, x, FS, accel, imu_rate).result()
        assert len(x) % 2 == 1 and len(inline_reports) == 3
        assert {r.converged for r in inline_reports} == {True, False}
        assert sum(r.n_excluded for r in inline_reports) >= 1
        assert pooled.tobytes() == inline.tobytes()
        for a, b in zip(pooled_reports, inline_reports, strict=True):
            assert a.r.tobytes() == b.r.tobytes()
            np.testing.assert_array_equal(a.excluded, b.excluded)
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
            assert a.span_s == b.span_s
        assert workers_gone()

    def test_all_flagged_block_warns_in_caller(self, workers_gone):
        """The pool job does not warn; the warning for a zeroed block is raised
        where the channel's result is read, from the span in its report."""
        _, noisy, accel, imu_rate = _burst_recording(duration_s=60.0)
        job = (noisy, FS, accel, imu_rate, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _screen_channel(*job)
        with stage_a_pool(2) as pool, pytest.warns(UserWarning, match="every mode") as caught:
            out, reports = pool.submit(_screen_channel, *job).result()
            warn_zeroed_blocks(reports, "p00 mixed_left")
        assert len(reports) == 2
        assert sum("every mode" in str(w.message) for w in caught) == 2
        assert [str(w.message).split(":")[0] for w in caught] == [
            "p00 mixed_left block 0–30 s", "p00 mixed_left block 29–60 s"
        ]
        np.testing.assert_array_equal(out, 0.0)
        assert workers_gone()

    def test_worker_error_reraised_and_pool_closed(self, workers_gone):
        """A block failing in a worker raises the inline error; no worker outlives the pool."""
        x = np.random.default_rng(9).standard_normal(int(90 * FS))
        x[int(40 * FS)] = np.nan  # in the second of three blocks, 29–59 s
        accel = np.ones((3, 90 * 50))
        with pytest.raises(ValueError) as inline_error:
            remove_motion_artifacts(x, FS, accel, 50.0)
        with pytest.raises(ValueError) as pooled_error:
            with stage_a_pool(2) as pool:
                pool.submit(_screen_channel, x, FS, accel, 50.0).result()
        assert type(pooled_error.value) is ValueError
        assert str(pooled_error.value) == str(inline_error.value) == "signal contains NaN or Inf"
        assert workers_gone()
