"""Variational mode decomposition and IMU-guided motion artifact removal.

The decomposition runs the frequency-domain ADMM scheme of Dragomiretskiy
and Zosso (IEEE TSP 2014): each mode is refined by a Wiener-like update
around its current center frequency, center frequencies move to the
spectral centroid of their mode, and an optional dual ascent step
(tau > 0) enforces exact reconstruction.  The input is mirror-extended by
half its length on each side to soften boundary effects.

The sweeps run in single precision and everything around them in double,
the usual mixed-precision split (Higham and Mary, Acta Numerica 2022):

- double: the mirror extension and the forward FFT; the rebuild of the
  modes by a float64 inverse FFT; :func:`motion_correlation`, the kept-mode
  sum, the cross-fade and everything downstream;
- single: the positive half-spectrum, the modes, the Wiener denominators
  and their reciprocals, the per-mode power, the ``|u_new - u_old|^2``
  buffer, the dual variable and the center frequencies, computed from the
  float32 power;
- before the cast, the spectrum is scaled by ``2**-e``, with ``e`` the
  binary exponent of its largest magnitude, and the rebuilt modes are
  scaled back by ``2**e``.  Both steps are exact, so float32's range never
  depends on the signal's units, and ``x * 2**j`` decomposes into exactly
  ``2**j`` times the modes of ``x``.

On the 144 blocks of the ``lopo-vmd`` benchmark, seeds 0-2, the single
sweeps keep the float64 loop's sweep counts, convergence flags and
exclusion masks on every block; the modes' IMU correlations move by at most
4.9e-5 and a block's kept-mode sum by at most 3e-5 of its peak.  On seeds
3-11, 3 of 432 blocks stop one sweep earlier or later, with the same masks.
The 144 blocks take 13.5-15.4 s inline against 25.5-27.2 s in float64
(1.8-1.9x, two runs, 2-core Xeon VM with 2 MB of L2 per core): a sweep is
about 90 numpy passes, each limited by memory bandwidth, and a 30 s
block's sweep buffers come to about 2.5 MB in single precision against
4.9 MB in double.

Each sweep reuses what it has already computed, with the same operations
on the same operands as the textbook loop run at the same precision, so
results are bit-identical to it:

- the k Wiener denominators are built once per sweep as one k x bins
  array of reciprocals (mode i only reads ``omega[i]`` from before its own
  update), and a multiply by ``1/d + 0j`` gives the same result as a complex
  division by ``d`` at a fraction of the cost;
- each mode's change ``u_new - u_old`` is kept; it updates the running
  mode sum and, squared and summed, is the convergence numerator;
- each mode's power ``|u_new|^2`` is kept; it gives the new center
  frequency, and its sum is the next sweep's convergence denominator;
- all buffers are allocated once per call, and the dual variable is
  skipped entirely when ``tau == 0``.

Within a process, blocks are decomposed one at a time, not stacked.  A
prototype that ran every block of a recording as one (blocks x k x bins)
array, compacting converged blocks out, was also bit-identical but only
1.7x faster than the textbook loop, against 2.07x for this kernel (both in
float64, 2-core Xeon VM).  Across processes, blocks run in parallel: no
block reads another's result, so :func:`remove_motion_artifacts` is a
submit half, :func:`submit_motion_blocks`, which hands every block to a
process pool (or runs it at once without one), and a join half,
:func:`join_motion_blocks`, which cross-fades what comes back in block
order, with the same bits either way.  A caller with many channels
submits all of them before joining any (as stage A does), so the pool
never idles between channels; after a failure, the pool's owner cancels
what is still queued.  A block returns only the sum of its kept modes and
its :class:`MotionCorrelation`, not its eight modes, so blocks queued
ahead of the join hold little memory.
Processes, not threads: a sweep is ~90 short numpy calls, and the
interpreter lock between them held two threads to 1.05-1.34x.

A pool worker unpickles :func:`_screen_block` by importing this module,
which needs only numpy and ``scipy.fft`` (the package namespace loads its
other modules on first use).  A spawned worker is ready for its first
block in about 0.4 s at 57 MB peak, against 1.2 s and 108 MB when it also
imports ``scipy.signal`` and the rest of the package (2-core Xeon VM).  So
the analytic signal is built here with the calls that
``scipy.signal.hilbert`` makes, not by importing it.

Motion handling: every mode's amplitude envelope is compared against the
accelerometer magnitude; modes that track the IMU are dropped before the
signal is rebuilt.

A channel is screened in blocks laid on one grid: block i starts at
``i * (block - overlap)`` samples, and the fewest blocks that cover the
signal are used, ``max(1, (n - overlap) // (block - overlap))``.  Every
block but the last is ``block`` samples long; the last runs to the end of
the signal, so it is between ``block`` and ``2 * block - overlap`` samples
long (or the whole signal, when that is shorter than one block).
Neighbours share exactly ``overlap`` samples, and no sample is decomposed
more than twice: at 30 s blocks with 1 s overlap, a 90 s channel is cut at
0-30, 29-59 and 58-90 s.
"""

from __future__ import annotations

import warnings
from concurrent.futures import Executor, Future
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

DEFAULT_K = 8
DEFAULT_ALPHA = 2000.0
DEFAULT_TAU = 0.0
DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 500
MOTION_R_THRESHOLD = 0.3
BLOCK_S = 30.0
BLOCK_OVERLAP_S = 1.0


@dataclass
class VmdResult:
    modes: np.ndarray  # k x n, ordered by ascending center frequency
    center_freqs_hz: np.ndarray
    residual: np.ndarray
    sample_rate: float
    iterations: int
    converged: bool


def _init_omegas(k: int, init: str, seed: int) -> np.ndarray:
    if init == "uniform":
        return (0.5 / k) * np.arange(k)
    if init == "zero":
        return np.zeros(k)
    if init == "random":
        return np.sort(0.5 * np.random.default_rng(seed).random(k))
    raise ValueError(f"unknown init {init!r}; use uniform, zero or random")


def vmd_decompose(
    x: np.ndarray,
    fs: float,
    k: int = DEFAULT_K,
    alpha: float = DEFAULT_ALPHA,
    tau: float = DEFAULT_TAU,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    init: str = "uniform",
    seed: int = 0,
) -> VmdResult:
    """Decompose ``x`` into ``k`` narrowband modes.

    Parameters
    ----------
    x : array
        Input signal (any length; it is mirror-extended internally).
    fs : float
        Sampling rate in Hz; center frequencies are reported in Hz.
    k : int
        Number of modes.
    alpha : float
        Bandwidth penalty; larger values give narrower modes.
    tau : float
        Dual-ascent step.  0 disables the exact-reconstruction constraint,
        which tolerates noise; positive values tighten reconstruction.
    tol : float
        Relative change of the mode set that counts as converged.
    max_iter : int
        Iteration cap.
    init : str
        Center frequency initialization: "uniform", "zero" or "random".
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("vmd_decompose expects a single channel")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains NaN or Inf")
    if k < 1:
        raise ValueError("k must be at least 1")
    n_orig = len(x)
    if n_orig < 4:
        raise ValueError("signal too short to decompose")

    if not np.any(x):
        zeros = np.zeros((k, n_orig))
        return VmdResult(
            modes=zeros,
            center_freqs_hz=np.sort(_init_omegas(k, init, seed)) * fs,
            residual=np.zeros(n_orig),
            sample_rate=fs,
            iterations=0,
            converged=True,
        )

    padded_odd = n_orig % 2 == 1
    if padded_odd:
        x = np.append(x, x[-1])
    n = len(x)

    half = n // 2
    f = np.concatenate([x[:half][::-1], x, x[-half:][::-1]])
    t_len = len(f)

    freqs = np.arange(1, t_len + 1) / t_len - 0.5 - 1.0 / t_len
    f_hat = np.fft.fftshift(np.fft.fft(f))

    # the negative half-spectrum stays identically zero through every update,
    # so the iteration runs on the positive half only
    f_plus = f_hat[t_len // 2:]
    bins = len(f_plus)
    freqs_pos = freqs[t_len // 2:].astype(np.float32)
    omega = _init_omegas(k, init, seed).astype(np.float32)

    # scaling by 2**-exp brings the largest bin into [0.5, 1); ldexp is exact
    # on the real and imaginary parts, so the single-precision sweeps see the
    # same numbers whatever the signal's units, and the modes are scaled back
    exp = int(np.frexp(np.abs(f_plus).max())[1])
    f_plus = np.ldexp(f_plus.view(np.float64), -exp).astype(np.float32).view(np.complex64)

    # per-sweep buffers; see the module docstring for what each one saves
    u_hat = np.zeros((k, bins), dtype=np.complex64)
    denom = np.empty((k, bins), dtype=np.float32)
    recip = np.zeros((k, bins), dtype=np.complex64)  # imaginary parts stay 0
    sum_all = np.empty(bins, dtype=np.complex64)
    num = np.empty(bins, dtype=np.complex64)
    delta = np.empty((k, bins), dtype=np.complex64)
    power = np.zeros((k, bins), dtype=np.float32)
    delta_sq = np.empty((k, bins), dtype=np.float32)
    lam = np.zeros(bins, dtype=np.complex64)
    lam_half = np.zeros(bins, dtype=np.complex64)

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        norm = np.sum(power)  # |u_hat|^2 of the previous sweep
        np.subtract(freqs_pos, omega[:, None], out=denom)
        np.square(denom, out=denom)
        denom *= 2.0 * alpha
        denom += 1.0
        np.divide(1.0, denom, out=recip.real)
        np.sum(u_hat, axis=0, out=sum_all)
        for i in range(k):
            np.subtract(sum_all, u_hat[i], out=num)  # the other modes
            np.subtract(f_plus, num, out=num)
            if tau:
                num += lam_half
            num *= recip[i]
            np.subtract(num, u_hat[i], out=delta[i])
            sum_all += delta[i]
            u_hat[i] = num
            np.abs(num, out=power[i])
            np.square(power[i], out=power[i])
            total = power[i].sum()
            if total > 0:
                omega[i] = float(np.dot(freqs_pos, power[i]) / total)
        if tau:
            lam = lam + tau * (f_plus - sum_all)
            np.divide(lam, 2, out=lam_half)

        np.abs(delta, out=delta_sq)
        np.square(delta_sq, out=delta_sq)
        diff = np.sum(delta_sq)
        if norm > 0.0 and diff < tol * norm:
            converged = True
            break

    # rebuild time-domain modes from the positive half-spectrum, in double
    full = np.zeros((k, t_len), dtype=complex)
    full[:, t_len // 2:] = u_hat
    full[:, 1: t_len // 2 + 1] = np.conj(full[:, -1: t_len // 2 - 1: -1])
    full[:, 0] = np.conj(full[:, -1])
    u = np.real(np.fft.ifft(np.fft.ifftshift(full, axes=1), axis=1))
    modes = np.ldexp(u[:, half: half + n][:, :n_orig], exp)

    order = np.argsort(omega)
    modes = modes[order]
    center_hz = omega[order].astype(np.float64) * fs

    x_orig = x[:n_orig]
    return VmdResult(
        modes=modes,
        center_freqs_hz=center_hz,
        residual=x_orig - modes.sum(axis=0),
        sample_rate=fs,
        iterations=iterations,
        converged=converged,
    )


@dataclass
class MotionCorrelation:
    """Per-mode Pearson correlation against the accelerometer magnitude."""

    r: np.ndarray
    threshold: float
    excluded: np.ndarray  # boolean mask over modes
    iterations: int  # ADMM sweeps of the block's decomposition
    converged: bool  # False when the block stopped at the iteration cap

    @property
    def n_excluded(self) -> int:
        return int(self.excluded.sum())


def _analytic_signal(x: np.ndarray) -> np.ndarray:
    """``scipy.signal.hilbert(x)`` of a real 1-D ``x``, by the same calls.

    The one-sided spectrum is doubled below Nyquist and zeroed above it, as
    scipy 1.17 does, so the result is bit-identical without importing
    ``scipy.signal``.
    """
    n = len(x)
    xf = sp_fft.fft(x, n)
    if n % 2 == 0:
        xf[1: n // 2] *= 2.0
        xf[n // 2 + 1:n] = 0.0
    else:
        xf[1:(n + 1) // 2] *= 2.0
        xf[(n + 1) // 2:n] = 0.0
    return sp_fft.ifft(xf)


def _mode_envelope(mode: np.ndarray, fs: float, smooth_s: float = 0.5) -> np.ndarray:
    env = np.abs(_analytic_signal(mode))
    # convolve(mode="same") returns the longer operand's length, so the
    # smoothing window must never exceed the signal itself.
    win = max(1, min(len(env), int(round(smooth_s * fs))))
    kernel = np.ones(win) / win
    return np.convolve(env, kernel, mode="same")


def motion_correlation(
    result: VmdResult,
    accel: np.ndarray,
    imu_rate: float,
    threshold: float = MOTION_R_THRESHOLD,
) -> MotionCorrelation:
    """Correlate each mode's smoothed envelope with the IMU magnitude.

    The envelope is resampled onto the IMU clock before the Pearson
    correlation; a zero-variance side yields r = 0 for that mode.
    """
    accel = np.asarray(accel, dtype=np.float64)
    if accel.ndim != 2 or accel.shape[0] != 3:
        raise ValueError(f"accel must be 3 x M, got {accel.shape}")
    mag = np.linalg.norm(accel, axis=0)
    mag = mag - mag.mean()
    t_imu = np.arange(accel.shape[1]) / imu_rate
    t_sig = np.arange(result.modes.shape[1]) / result.sample_rate

    rs = np.zeros(result.modes.shape[0])
    mag_sd = mag.std()
    for i, mode in enumerate(result.modes):
        env = _mode_envelope(mode, result.sample_rate)
        env_i = np.interp(t_imu, t_sig, env)
        env_i = env_i - env_i.mean()
        env_sd = env_i.std()
        if env_sd == 0.0 or mag_sd == 0.0:
            rs[i] = 0.0
        else:
            rs[i] = float(np.dot(env_i, mag) / (len(mag) * env_sd * mag_sd))
    return MotionCorrelation(
        r=rs,
        threshold=threshold,
        excluded=np.abs(rs) > threshold,
        iterations=result.iterations,
        converged=result.converged,
    )


_ALL_FLAGGED = "every mode correlates with motion; returning zeros"


def _kept_sum(result: VmdResult, corr: MotionCorrelation) -> np.ndarray:
    """The sum of the modes not flagged; with every mode flagged, that is
    the empty sum, zeros."""
    return result.modes[~corr.excluded].sum(axis=0)


def reconstruct_excluding_motion(result: VmdResult, corr: MotionCorrelation) -> np.ndarray:
    """Sum the modes whose envelopes do not track the accelerometer."""
    if corr.excluded.all():
        warnings.warn(_ALL_FLAGGED, stacklevel=2)
    return _kept_sum(result, corr)


def _screen_block(
    seg: np.ndarray,
    fs: float,
    accel: np.ndarray,
    imu_rate: float,
    threshold: float,
    vmd_kwargs: dict,
) -> tuple[np.ndarray, MotionCorrelation]:
    """Decompose one block, screen its modes against its IMU slice and sum
    the modes that survive.

    Module level so that a pool worker can unpickle it by name.  It does
    not warn: the join warns, in block order, for a block it zeroed.
    """
    res = vmd_decompose(seg, fs, **vmd_kwargs)
    corr = motion_correlation(res, accel, imu_rate, threshold)
    return _kept_sum(res, corr), corr


class _InlineExecutor(Executor):
    """Runs each call at submit; its future holds the result or the exception."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # raised again where the future is read
            future.set_exception(exc)
        return future


@dataclass
class QueuedBlocks:
    """One channel's blocks, submitted by :func:`submit_motion_blocks`.

    ``futures`` holds each block's kept-mode sum and report, in block order.
    """

    n: int
    fs: float
    spans: list[tuple[int, int]]
    overlap: int
    futures: list[Future]
    label: str  # names the channel in warnings, or is empty


def submit_motion_blocks(
    x: np.ndarray,
    fs: float,
    accel: np.ndarray,
    imu_rate: float,
    threshold: float = MOTION_R_THRESHOLD,
    block_s: float = BLOCK_S,
    overlap_s: float = BLOCK_OVERLAP_S,
    executor: Executor | None = None,
    label: str = "",
    **vmd_kwargs,
) -> QueuedBlocks:
    """The submit half of :func:`remove_motion_artifacts`.

    Checks the input, cuts ``x`` and ``accel`` into blocks on the grid the
    module docstring describes (every ``block_s - overlap_s``, the last
    block running to the end of ``x``) and submits every block to
    ``executor`` (without one, each runs here at once).
    Nothing is read back here: a block that raised raises at the join.
    ``label`` (say, recording and channel) starts the join's warnings.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    imu_n = np.shape(accel)[-1]
    if abs(imu_n - n / fs * imu_rate) > 1.0 + 1e-9:  # in IMU samples
        raise ValueError(
            f"IMU track covers {imu_n / imu_rate:g} s but the signal covers "
            f"{n / fs:g} s; motion screening needs both over the same span"
        )
    block = int(round(block_s * fs))
    overlap = int(round(overlap_s * fs))
    if block <= 2 * overlap:
        raise ValueError("block_s must comfortably exceed overlap_s")

    step = block - overlap
    starts = [i * step for i in range(max(1, (n - overlap) // step))]
    spans = [(start, start + block) for start in starts[:-1]] + [(starts[-1], n)]
    jobs = []
    for start, stop in spans:
        i0 = int(round(start / fs * imu_rate))
        i1 = max(i0 + 2, int(round(stop / fs * imu_rate)))
        jobs.append((x[start:stop], fs, accel[:, i0:i1], imu_rate, threshold, vmd_kwargs))
    executor = executor or _InlineExecutor()
    futures = [executor.submit(_screen_block, *job) for job in jobs]
    return QueuedBlocks(n, fs, spans, overlap, futures, label)


def join_motion_blocks(blocks: QueuedBlocks) -> tuple[np.ndarray, list[MotionCorrelation]]:
    """The join half of :func:`remove_motion_artifacts`.

    Reads the blocks in block order and cross-fades them into the clean
    channel, warning, with the block's span, for each block whose every
    mode is flagged.  A block that raised re-raises here; the blocks after
    it are left to the executor's owner to finish or cancel.
    """
    n, fs, spans, overlap = blocks.n, blocks.fs, blocks.spans, blocks.overlap
    first, last = spans[0][0], spans[-1][0]
    prefix = f"{blocks.label} " if blocks.label else ""
    clean = np.zeros(n)
    weight = np.zeros(n)
    reports: list[MotionCorrelation] = []
    for (start, stop), future in zip(spans, blocks.futures):
        kept, corr = future.result()
        reports.append(corr)
        if corr.excluded.all():
            warnings.warn(
                f"{prefix}block {start / fs:g}–{stop / fs:g} s: {_ALL_FLAGGED}", stacklevel=2
            )

        w = np.ones(stop - start)
        if len(spans) > 1 and overlap > 0:
            ramp = np.sin(0.5 * np.pi * np.arange(overlap) / overlap) ** 2
            if start != first:
                w[:overlap] = ramp
            if start != last:
                w[-overlap:] = ramp[::-1]
        clean[start:stop] += kept * w
        weight[start:stop] += w
    covered = weight > 0
    clean[covered] /= weight[covered]
    return clean, reports


def remove_motion_artifacts(
    x: np.ndarray,
    fs: float,
    accel: np.ndarray,
    imu_rate: float,
    threshold: float = MOTION_R_THRESHOLD,
    block_s: float = BLOCK_S,
    overlap_s: float = BLOCK_OVERLAP_S,
    **vmd_kwargs,
) -> tuple[np.ndarray, list[MotionCorrelation]]:
    """Motion-clean a channel of arbitrary length.

    Long signals are processed in ``block_s`` chunks, the last one running
    to the end of ``x`` (under ``2 * block_s - overlap_s``), with a
    raised-cosine cross-fade over the ``overlap_s`` that neighbours share,
    so VMD cost stays bounded; each block is decomposed, screened against
    its slice of the IMU track and rebuilt from the surviving modes.
    ``accel`` must cover the same duration as ``x``, to within one IMU
    sample.

    This is :func:`join_motion_blocks` of :func:`submit_motion_blocks`
    without an executor: the blocks run one at a time, in block order, and
    a block whose every mode is flagged is zeroed with a warning that names
    its span.  To run the blocks on a process pool, call the two halves.
    """
    return join_motion_blocks(submit_motion_blocks(
        x, fs, accel, imu_rate, threshold, block_s, overlap_s, **vmd_kwargs
    ))
