"""Mode recovery, reconstruction, and motion screening for VMD."""

import multiprocessing
import warnings
from concurrent.futures import Executor, Future, ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import hilbert

from earpipe.corpus import make_synthetic_corpus
from earpipe.preprocess import preprocess_recording
from earpipe.vmd import (
    MOTION_R_THRESHOLD,
    VmdResult,
    _analytic_signal,
    _init_omegas,
    join_motion_blocks,
    motion_correlation,
    reconstruct_excluding_motion,
    remove_motion_artifacts,
    submit_motion_blocks,
    vmd_decompose,
)

FS = 250.0


def _tones(freqs, amps, duration_s, fs=FS):
    t = np.arange(int(duration_s * fs)) / fs
    return sum(a * np.sin(2 * np.pi * f * t) for f, a in zip(freqs, amps))


class TestToneRecovery:
    def test_three_tone_centers(self):
        """2/10/40 Hz tones with k=3 land each center within 0.5 Hz."""
        x = _tones([2.0, 10.0, 40.0], [1.0, 1.0, 1.0], 10.0)
        res = vmd_decompose(x, FS, k=3)
        np.testing.assert_allclose(res.center_freqs_hz, [2.0, 10.0, 40.0], atol=0.5)

    def test_single_tone_reconstruction(self):
        """One mode rebuilds a 10 Hz tone with under 5% relative error."""
        x = _tones([10.0], [1.0], 30.0)
        res = vmd_decompose(x, FS, k=1)
        err = np.linalg.norm(res.modes[0] - x) / np.linalg.norm(x)
        assert err < 0.05

    def test_modes_sorted_by_center(self):
        x = _tones([5.0, 30.0, 60.0], [1.0, 0.7, 0.5], 8.0)
        res = vmd_decompose(x, FS, k=3)
        assert np.all(np.diff(res.center_freqs_hz) >= 0)

    def test_mode_shape_matches_input(self):
        rng = np.random.default_rng(3)
        for n in (999, 1000, 2049):
            x = rng.standard_normal(n)
            res = vmd_decompose(x, FS, k=4, max_iter=40)
            assert res.modes.shape == (4, n)
            assert res.residual.shape == (n,)


class TestReconstruction:
    def test_modes_plus_residual_is_input(self):
        """The residual is defined so modes + residual returns the input."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1200)
        res = vmd_decompose(x, FS, k=5, max_iter=60)
        np.testing.assert_allclose(res.modes.sum(axis=0) + res.residual, x, atol=1e-12)

    def test_zero_signal_short_circuits(self):
        res = vmd_decompose(np.zeros(1000), FS, k=3)
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_allclose(res.modes, 0.0)
        np.testing.assert_allclose(res.residual, 0.0)

    def test_convergence_reported(self):
        x = _tones([10.0], [1.0], 5.0)
        res = vmd_decompose(x, FS, k=1)
        assert res.converged
        assert 0 < res.iterations <= 500


def _reference_vmd(x, fs, k, alpha, tau, tol, max_iter, init, seed, dtype=np.complex64):
    """The textbook ADMM loop, kept as the oracle for the fast kernel.

    Mirror extension, spectrum, sweep and rebuild as ``vmd_decompose`` did
    before it reused per-sweep quantities: every sweep copies the modes,
    divides by each mode's denominator and recomputes the convergence sums.
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

    omega = _init_omegas(k, init, seed).astype(real)
    u_hat = np.zeros((k, len(f_plus)), dtype=dtype)
    lam = np.zeros(len(f_plus), dtype=dtype)

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        u_prev = u_hat.copy()
        sum_all = u_hat.sum(axis=0)
        for i in range(k):
            sum_others = sum_all - u_hat[i]
            u_new = (f_plus - sum_others + lam / 2) / (
                1.0 + 2.0 * alpha * (freqs_pos - omega[i]) ** 2
            )
            sum_all += u_new - u_hat[i]
            u_hat[i] = u_new
            power = np.abs(u_new) ** 2
            total = power.sum()
            if total > 0:
                omega[i] = float(np.dot(freqs_pos, power) / total)
        lam = lam + tau * (f_plus - sum_all)

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
        tau=st.sampled_from([0.0, 0.1, 1.0]),
        init=st.sampled_from(["uniform", "zero", "random"]),
        tol=st.sampled_from([1e-7, 1e-3]),
        max_iter=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_reference_exactly(self, n, k, tau, init, tol, max_iter, seed):
        """Modes, centers, iteration count and convergence equal the
        textbook loop's, not merely to a tolerance."""
        x = np.random.default_rng(seed).standard_normal(n)
        res = vmd_decompose(
            x, FS, k=k, alpha=2000.0, tau=tau, tol=tol, max_iter=max_iter,
            init=init, seed=seed,
        )
        modes, centers, iterations, converged = _reference_vmd(
            x, FS, k, 2000.0, tau, tol, max_iter, init, seed
        )
        np.testing.assert_array_equal(res.modes, modes)
        np.testing.assert_array_equal(res.center_freqs_hz, centers)
        assert res.iterations == iterations
        assert res.converged == converged

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_full_block_matches_reference(self, tau):
        """A 30 s two-tone block run to convergence matches exactly."""
        x = _tones([3.0, 11.0], [1.0, 0.4], 30.0)
        x += 0.05 * np.random.default_rng(11).standard_normal(len(x))
        res = vmd_decompose(x, FS, tau=tau)
        modes, centers, iterations, converged = _reference_vmd(
            x, FS, 8, 2000.0, tau, 1e-7, 500, "uniform", 0
        )
        np.testing.assert_array_equal(res.modes, modes)
        np.testing.assert_array_equal(res.center_freqs_hz, centers)
        assert (res.iterations, res.converged) == (iterations, converged)


def _block_peak_error(modes, reference):
    """Largest mode difference, relative to the block's largest mode sample."""
    return np.abs(modes - reference).max() / np.abs(reference).max()


class TestDoublePrecisionPin:
    """The single-precision sweeps against the float64 textbook loop: the
    same sweep count, convergence and exclusion masks, and modes within
    1e-4 of the block's peak (worst measured 6.1e-5, the capped tau 0.5
    tone block; at most 1.3e-5 on the recording's blocks)."""

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_two_tone_block(self, tau):
        x = _tones([3.0, 11.0], [1.0, 0.4], 30.0)
        x += 0.05 * np.random.default_rng(11).standard_normal(len(x))
        res = vmd_decompose(x, FS, tau=tau)
        modes, _, iterations, converged = _reference_vmd(
            x, FS, 8, 2000.0, tau, 1e-7, 500, "uniform", 0, dtype=np.complex128
        )
        assert (res.iterations, res.converged) == (iterations, converged)
        assert _block_peak_error(res.modes, modes) < 1e-4

    def test_synthetic_recording_blocks(self):
        """All six blocks of one conditioned synthetic patient (two channels,
        three blocks each), screened against their IMU slices."""
        rec = preprocess_recording(make_synthetic_corpus(1, master_seed=0)[0])
        executor = _RecordingExecutor()
        for x in rec.channels.values():
            submit_motion_blocks(x, rec.sample_rate, rec.imu, rec.imu_rate, executor=executor)
        assert len(executor.calls) == 6
        for seg, fs, accel, imu_rate, threshold, _ in executor.calls:
            res = vmd_decompose(seg, fs)
            modes, centers, iterations, converged = _reference_vmd(
                seg, fs, 8, 2000.0, 0.0, 1e-7, 500, "uniform", 0, dtype=np.complex128
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
        tau=st.sampled_from([0.0, 0.5]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(j=-200, n=500, tau=0.0, seed=0)
    @example(j=200, n=500, tau=0.0, seed=0)
    def test_power_of_two_scale_is_exact(self, j, n, tau, seed):
        """Scaling the input by 2**j scales the modes and residual by 2**j bit
        for bit and leaves centers, sweeps and convergence alone; float32
        alone would overflow or flush to zero at the ends of the range."""
        x = np.random.default_rng(seed).standard_normal(n)
        kw = dict(k=4, tau=tau, max_iter=60)
        base = vmd_decompose(x, FS, **kw)
        scaled = vmd_decompose(x * 2.0**j, FS, **kw)
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

    def test_bad_mode_count_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            vmd_decompose(np.zeros(100), FS, k=0)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            vmd_decompose(np.zeros(3), FS)

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError, match="unknown init"):
            vmd_decompose(np.ones(100), FS, init="fibonacci")


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
    def test_burst_mode_flagged(self):
        """The mode tracking the IMU envelope crosses the r threshold."""
        _, noisy, accel, imu_rate = _burst_recording()
        res = vmd_decompose(noisy, FS, k=4)
        corr = motion_correlation(res, accel, imu_rate)
        assert corr.n_excluded >= 1
        assert np.all(np.abs(corr.r[corr.excluded]) > MOTION_R_THRESHOLD)

    def test_stationary_tone_not_flagged(self):
        """A constant-envelope tone shows no IMU correlation."""
        rng = np.random.default_rng(5)
        x = _tones([10.0], [1.0], 20.0)
        accel = np.vstack(
            [
                0.02 * rng.standard_normal(1000),
                0.02 * rng.standard_normal(1000),
                1.0 + 0.02 * rng.standard_normal(1000),
            ]
        )
        res = vmd_decompose(x, FS, k=2)
        corr = motion_correlation(res, accel, 50.0)
        assert corr.n_excluded == 0

    def test_report_carries_convergence(self):
        """Each report copies its block's iteration count and convergence."""
        _, noisy, accel, imu_rate = _burst_recording(seed=1)
        for max_iter in (3, 500):
            res = vmd_decompose(noisy, FS, k=4, max_iter=max_iter)
            corr = motion_correlation(res, accel, imu_rate)
            assert (corr.iterations, corr.converged) == (res.iterations, res.converged)
        assert corr.converged and corr.iterations < 500
        capped = motion_correlation(vmd_decompose(noisy, FS, k=4, max_iter=3), accel, imu_rate)
        assert (capped.iterations, capped.converged) == (3, False)

    def test_accel_shape_rejected(self):
        res = vmd_decompose(np.ones(500), FS, k=2, max_iter=5)
        with pytest.raises(ValueError, match="3 x M"):
            motion_correlation(res, np.zeros((2, 100)), 50.0)

    def test_exclusion_subtracts_flagged_modes(self):
        _, noisy, accel, imu_rate = _burst_recording(seed=2)
        res = vmd_decompose(noisy, FS, k=4)
        corr = motion_correlation(res, accel, imu_rate)
        rebuilt = reconstruct_excluding_motion(res, corr)
        np.testing.assert_allclose(
            rebuilt, res.modes[~corr.excluded].sum(axis=0), atol=1e-12
        )

    def test_all_modes_flagged_warns_and_zeroes(self):
        res = VmdResult(
            modes=np.ones((2, 100)),
            center_freqs_hz=np.array([1.0, 2.0]),
            residual=np.zeros(100),
            sample_rate=FS,
            iterations=1,
            converged=True,
        )
        corr = motion_correlation(res, np.zeros((3, 20)) + 1.0, 50.0)
        corr.excluded[:] = True
        with pytest.warns(UserWarning, match="every mode"):
            out = reconstruct_excluding_motion(res, corr)
        np.testing.assert_allclose(out, 0.0)


class TestAnalyticSignal:
    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(1, 2500), odd=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_scipy_hilbert_bit_for_bit(self, half, odd, seed):
        """The envelope's analytic signal is scipy.signal.hilbert's, at odd
        and even lengths 1-5000, without importing scipy.signal."""
        x = np.random.default_rng(seed).standard_normal(2 * half - odd)
        assert _analytic_signal(x).tobytes() == hilbert(x).tobytes()


class TestRemoveMotionArtifacts:
    def test_each_zeroed_block_warns_with_its_span(self):
        """Python's default filter shows one warning per distinct message and
        location; the span in the message keeps a second zeroed block visible."""
        _, noisy, accel, imu_rate = _burst_recording(duration_s=60.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            out, _ = remove_motion_artifacts(
                noisy, FS, accel, imu_rate, threshold=-1.0, k=2, max_iter=5
            )
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

    def test_block_report_count(self):
        """A 90 s signal at 30 s blocks with 1 s overlap gives 3 reports."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal(int(90 * FS))
        accel = np.vstack(
            [
                0.01 * rng.standard_normal(int(90 * 50)),
                0.01 * rng.standard_normal(int(90 * 50)),
                1.0 + 0.01 * rng.standard_normal(int(90 * 50)),
            ]
        )
        out, reports = remove_motion_artifacts(x, FS, accel, 50.0, max_iter=10)
        assert len(out) == len(x)
        assert len(reports) == 3

    @pytest.mark.parametrize("imu_s", [20.0, 95.0])
    def test_imu_duration_mismatch_rejected(self, imu_s):
        """A 20 s or 95 s IMU track against 90 s of signal is refused at entry
        and the error names both durations."""
        x = np.random.default_rng(9).standard_normal(int(90 * FS))
        accel = np.ones((3, int(imu_s * 50)))
        with pytest.raises(ValueError, match=f"{imu_s:g} s .* 90 s"):
            remove_motion_artifacts(x, FS, accel, 50.0, max_iter=2)

    def test_imu_within_one_sample_accepted(self):
        """An IMU track one sample short of the signal still screens."""
        x = np.random.default_rng(9).standard_normal(int(10 * FS))
        accel = np.ones((3, 10 * 50 - 1))
        out, reports = remove_motion_artifacts(x, FS, accel, 50.0, max_iter=2)
        assert len(out) == len(x) and len(reports) == 1

    def test_overlap_must_fit_block(self):
        with pytest.raises(ValueError, match="exceed overlap"):
            remove_motion_artifacts(
                np.ones(1000), FS, np.ones((3, 200)), 50.0, block_s=1.0, overlap_s=0.6
            )


class _RecordingExecutor(Executor):
    """Records each submitted call and runs none of them."""

    def __init__(self):
        self.calls = []

    def submit(self, fn, /, *args, **kwargs) -> Future:
        self.calls.append(args)
        return Future()


class TestBlockLayout:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 20_000), block=st.integers(1, 8_000))
    def test_fewest_blocks_on_the_overlap_grid(self, data, n, block):
        """Blocks start every ``block - overlap`` samples, the fewest cover the
        signal, the last one runs to its end, and no sample is in three."""
        overlap = data.draw(st.integers(0, (block - 1) // 2), label="overlap")
        step = block - overlap
        fs, imu_rate = 250.0, 50.0
        executor = _RecordingExecutor()
        queued = submit_motion_blocks(
            np.zeros(n), fs, np.zeros((3, round(n / fs * imu_rate))), imu_rate,
            block_s=block / fs, overlap_s=overlap / fs, executor=executor,
        )
        spans = queued.spans
        assert len(spans) == max(1, (n - overlap) // step)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert [len(args[0]) for args in executor.calls] == [b - a for a, b in spans]
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop - start == overlap
        assert all(b - a == block for a, b in spans[:-1])
        last = spans[-1][1] - spans[-1][0]
        assert block <= last < block + step if n >= block else last == n
        depth = np.zeros(n, dtype=int)
        for a, b in spans:
            depth[a:b] += 1
        assert depth.max() <= 2


def _spawn_pool():
    """Two spawned workers, the kind of pool the experiment runner opens."""
    return ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"))


class TestBlockPool:
    """Blocks screened on a process pool give the inline result bit for bit."""

    def test_pool_matches_inline_exactly(self, workers_gone):
        """Three blocks of an odd-length signal (the last one odd too),
        converged and capped, one mode flagged."""
        _, noisy, accel, imu_rate = _burst_recording(duration_s=90.0, seed=3)
        x = np.append(noisy, noisy[-1])
        kw = dict(k=4, max_iter=60)
        inline, inline_reports = remove_motion_artifacts(x, FS, accel, imu_rate, **kw)
        with _spawn_pool() as pool:
            pooled, pooled_reports = join_motion_blocks(
                submit_motion_blocks(x, FS, accel, imu_rate, executor=pool, **kw)
            )
        assert len(x) % 2 == 1 and len(inline_reports) == 3
        assert {r.converged for r in inline_reports} == {True, False}
        assert sum(r.n_excluded for r in inline_reports) >= 1
        assert pooled.tobytes() == inline.tobytes()
        for a, b in zip(pooled_reports, inline_reports, strict=True):
            assert a.r.tobytes() == b.r.tobytes()
            np.testing.assert_array_equal(a.excluded, b.excluded)
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
        assert workers_gone()

    def test_all_flagged_block_warns_in_caller(self, workers_gone):
        """The warning for a zeroed block is raised where the blocks are joined."""
        _, noisy, accel, imu_rate = _burst_recording(duration_s=60.0)
        with _spawn_pool() as pool, pytest.warns(UserWarning, match="every mode") as caught:
            out, reports = join_motion_blocks(submit_motion_blocks(
                noisy, FS, accel, imu_rate, threshold=-1.0, executor=pool, k=2, max_iter=5
            ))
        assert len(reports) == 2
        assert sum("every mode" in str(w.message) for w in caught) == 2
        np.testing.assert_array_equal(out, 0.0)
        assert workers_gone()

    def test_worker_error_reraised_and_pool_closed(self, workers_gone):
        """A block failing in a worker raises the inline error; no worker outlives the pool."""
        x = np.random.default_rng(9).standard_normal(int(90 * FS))
        x[int(40 * FS)] = np.nan  # in the second of three blocks, 29–59 s
        accel = np.ones((3, 90 * 50))
        with pytest.raises(ValueError) as inline_error:
            remove_motion_artifacts(x, FS, accel, 50.0, max_iter=5)
        with pytest.raises(ValueError) as pooled_error:
            with _spawn_pool() as pool:
                join_motion_blocks(
                    submit_motion_blocks(x, FS, accel, 50.0, executor=pool, max_iter=5)
                )
        assert type(pooled_error.value) is ValueError
        assert str(pooled_error.value) == str(inline_error.value) == "signal contains NaN or Inf"
        assert workers_gone()

    def test_inline_block_error_raised_at_join(self):
        """Without an executor a failing block is submitted quietly and raises
        at the join, with the message the test above pins for the pool."""
        x = np.random.default_rng(9).standard_normal(int(90 * FS))
        x[int(40 * FS)] = np.nan  # in the second of three blocks, 29–59 s
        queued = submit_motion_blocks(x, FS, np.ones((3, 90 * 50)), 50.0, max_iter=5)
        assert len(queued.futures) == 3 and all(f.done() for f in queued.futures)
        with pytest.raises(ValueError) as inline_error:
            join_motion_blocks(queued)
        assert type(inline_error.value) is ValueError
        assert str(inline_error.value) == "signal contains NaN or Inf"
