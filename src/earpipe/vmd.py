"""Variational mode decomposition and IMU-guided motion artifact removal.

The decomposition runs the frequency-domain ADMM scheme of Dragomiretskiy
and Zosso (IEEE TSP 2014) with the dual ascent step off (tau = 0, the
noise-tolerant setting): each of the ``K`` modes is refined by a
Wiener-like update around its current center frequency, and center
frequencies, which start evenly spaced at ``(0.5 / K) * i``, move to the
spectral centroid of their mode.  The input is mirror-extended by half its
length on each side to soften boundary effects.

The sweeps run in single precision and everything around them in double,
the usual mixed-precision split (Higham and Mary, Acta Numerica 2022):

- double: the mirror extension and the forward FFT; the rebuild of the
  modes by a float64 inverse FFT; :func:`motion_correlation`, the kept-mode
  sum, the cross-fade and everything downstream;
- single: the positive half-spectrum, the modes, the Wiener denominators
  and their reciprocals, one mode's power and one mode's change
  ``u_new - u_old``, and the center frequencies, computed from the float32
  power;
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
In float64 the same blocks took 1.8-1.9x as long (two runs, 2-core Xeon
VM with 2 MB of L2 per core): each of a sweep's numpy passes is limited by
memory bandwidth.

A sweep is about 95 numpy calls: six over k x bins arrays (building the
reciprocal denominators and the mode sum) and eleven per mode over one
row.  A 30 s block's sweep buffers come to about 1.5 MB, inside one core's
L2; they came to 2.4 MB while the changes and powers of all k modes were
kept for a whole-array stop test.  On the 144 blocks above, per-mode sums
took a sweep from 447-538 to 346-442 us (four runs of each).

Each sweep reuses what it has already computed, with the same operations
on the same operands as the textbook loop run at the same precision:

- the k Wiener denominators are built once per sweep as one contiguous
  float32 k x bins array of reciprocals (mode i only reads ``omega[i]``
  from before its own update).  ``num *= recip[i]`` casts the row to
  exactly ``1/d + 0j`` and runs the complex64 multiply, which gives the
  same result as a complex division by ``d`` at a fraction of the cost;
  the reciprocals are taken over contiguous memory, not through the
  strided real part of a complex array;
- each mode's change ``u_new - u_old`` updates the running mode sum, and
  its squared norm, ``np.vdot(delta, delta).real`` in single precision, is
  added in double to the convergence numerator;
- each mode's power ``|u_new|^2`` gives the new center frequency, and its
  total is added, in double, to the next sweep's convergence denominator;
- all buffers are allocated once per call.

The stop test sums the same terms as the textbook loop's two whole-array
sums, in another order, so the two can part only when a sweep's change
lands within rounding of ``TOL`` times the norm; modes and centers are
bit-identical whenever they stop on the same sweep.  They do on all 144
blocks above, on the six blocks of patient p02 (two of them at the sweep
cap) and on thousands of random inputs.

Within a process, blocks are decomposed one at a time, not stacked.  A
prototype that ran every block of a recording as one (blocks x k x bins)
array, compacting converged blocks out, was also bit-identical but only
1.7x faster than the textbook loop, against 2.07x for this kernel (both in
float64, 2-core Xeon VM).  Across processes, channels run in parallel: a
channel's screen reads nothing of another channel, so a caller with many
channels hands each one to a process pool as one job and reads the results
back in channel order, with the same bits as screening them here (stage A
does this; after a failure, the pool's owner cancels what is still
queued).  The job is :func:`remove_motion_artifacts` without its warnings,
since a pool worker's warnings never reach the caller: each block
report carries its span, and the caller warns with
:func:`warn_zeroed_blocks`.  Processes, not threads: a sweep is ~95 short
numpy calls, and the interpreter lock between them held two threads to
1.05-1.34x.

A pool worker unpickles the job by importing this module, which needs
only numpy and ``scipy.fft`` (importing the package loads none of its
other modules).  Stage A's workers are forked from a server that has
imported this module already, once per process; a worker that had to
import it itself (a spawned one, as on Windows) would import
``scipy.signal`` and the rest of the package too if this module did.  So
the analytic signal is built here with the calls that
``scipy.signal.hilbert`` makes, not by importing it.

Motion handling: every mode's amplitude envelope is compared against the
accelerometer magnitude; modes that track the IMU are dropped before the
signal is rebuilt.

A channel is screened in blocks laid on one grid, ``block`` samples being
``BLOCK_S`` and ``overlap`` samples ``BLOCK_OVERLAP_S`` at the channel's
rate: block i starts at ``i * (block - overlap)`` samples, and the fewest
blocks that cover the signal are used,
``max(1, (n - overlap) // (block - overlap))``.  Every block but the last
is ``block`` samples long; the last runs to the end of the signal, so it is
between ``block`` and ``2 * block - overlap`` samples long (or the whole
signal, when that is shorter than one block).
Neighbours share exactly ``overlap`` samples, and no sample is decomposed
more than twice: at 30 s blocks with 1 s overlap, a 90 s channel is cut at
0-30, 29-59 and 58-90 s.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import fft as sp_fft

K = 8  # modes per block
ALPHA = 2000.0  # bandwidth penalty: larger values give narrower modes
TOL = 1e-7  # relative change of the mode set that counts as converged
MAX_ITER = 500  # sweep cap
MOTION_R_THRESHOLD = 0.3
BLOCK_S = 30.0
BLOCK_OVERLAP_S = 1.0
ENVELOPE_SMOOTH_S = 0.5  # moving-average length of a mode's envelope


@dataclass
class VmdResult:
    modes: np.ndarray  # k x n, ordered by ascending center frequency
    center_freqs_hz: np.ndarray
    residual: np.ndarray
    sample_rate: float
    iterations: int
    converged: bool


def vmd_decompose(x: np.ndarray, fs: float) -> VmdResult:
    """Decompose ``x`` into ``K`` narrowband modes.

    Parameters
    ----------
    x : array
        Input signal (any length; it is mirror-extended internally).
    fs : float
        Sampling rate in Hz; center frequencies are reported in Hz.

    The sweeps stop when the mode set changes by less than ``TOL`` of its
    norm, or after ``MAX_ITER`` sweeps; the bandwidth penalty is ``ALPHA``.
    There is no dual ascent (tau = 0): the modes need not add up to the
    input exactly, which tolerates noise, and ``residual`` holds what they
    leave out.  Center frequencies start at ``(0.5 / K) * arange(K)`` in
    cycles per sample; a zero signal returns zero modes at those centers
    after 0 sweeps.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("vmd_decompose expects a single channel")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains NaN or Inf")
    k = K
    n_orig = len(x)
    if n_orig < 4:
        raise ValueError("signal too short to decompose")

    omega = (0.5 / k) * np.arange(k)
    if not np.any(x):
        return VmdResult(
            modes=np.zeros((k, n_orig)),
            center_freqs_hz=omega * fs,
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
    omega = omega.astype(np.float32)

    # scaling by 2**-exp brings the largest bin into [0.5, 1); ldexp is exact
    # on the real and imaginary parts, so the single-precision sweeps see the
    # same numbers whatever the signal's units, and the modes are scaled back
    exp = int(np.frexp(np.abs(f_plus).max())[1])
    f_plus = np.ldexp(f_plus.view(np.float64), -exp).astype(np.float32).view(np.complex64)

    # per-sweep buffers; see the module docstring for what each one saves
    u_hat = np.zeros((k, bins), dtype=np.complex64)
    denom = np.empty((k, bins), dtype=np.float32)
    recip = np.empty((k, bins), dtype=np.float32)
    sum_all = np.empty(bins, dtype=np.complex64)
    num = np.empty(bins, dtype=np.complex64)
    delta = np.empty(bins, dtype=np.complex64)
    power = np.empty(bins, dtype=np.float32)

    iterations = 0
    converged = False
    total_power = 0.0  # |u_hat|^2 summed mode by mode: the next sweep's norm
    for iterations in range(1, MAX_ITER + 1):
        norm, total_power, diff = total_power, 0.0, 0.0
        np.subtract(freqs_pos, omega[:, None], out=denom)
        np.square(denom, out=denom)
        denom *= 2.0 * ALPHA
        denom += 1.0
        np.divide(1.0, denom, out=recip)
        np.sum(u_hat, axis=0, out=sum_all)
        for i in range(k):
            np.subtract(sum_all, u_hat[i], out=num)  # the other modes
            np.subtract(f_plus, num, out=num)
            num *= recip[i]
            np.subtract(num, u_hat[i], out=delta)
            sum_all += delta
            u_hat[i] = num
            diff += float(np.vdot(delta, delta).real)
            np.abs(num, out=power)
            np.square(power, out=power)
            total = power.sum()
            total_power += float(total)
            if total > 0:
                omega[i] = float(np.dot(freqs_pos, power) / total)

        if norm > 0.0 and diff < TOL * norm:
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
    """Per-mode Pearson correlation against the accelerometer magnitude.

    A mode is excluded as motion when its ``|r|`` lies strictly above
    ``threshold``.
    """

    r: np.ndarray
    threshold: float
    iterations: int  # ADMM sweeps of the block's decomposition
    converged: bool  # False when the block stopped at the iteration cap
    span_s: tuple[float, float]  # the block's start and end in its channel

    @property
    def excluded(self) -> np.ndarray:
        """Boolean mask over modes: ``|r| > threshold``."""
        return np.abs(self.r) > self.threshold

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


def _mode_envelope(mode: np.ndarray, fs: float) -> np.ndarray:
    env = np.abs(_analytic_signal(mode))
    # convolve(mode="same") returns the longer operand's length, so the
    # smoothing window must never exceed the signal itself.
    win = max(1, min(len(env), int(round(ENVELOPE_SMOOTH_S * fs))))
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
    correlation; a zero-variance side yields r = 0 for that mode.  The
    report's span is the decomposed signal's own, from 0 s; a channel
    screen gives each block's report its place in the channel.
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
        iterations=result.iterations,
        converged=result.converged,
        span_s=(0.0, result.modes.shape[1] / result.sample_rate),
    )


_ALL_FLAGGED = "every mode correlates with motion; returning zeros"


def warn_zeroed_blocks(reports: list[MotionCorrelation], channel: str = "") -> None:
    """Warn, in block order, for each block of a channel screen whose every
    mode is flagged, naming its span; ``channel`` (say, recording and role)
    starts each message.  The warning points at the screen's caller."""
    prefix = f"{channel} " if channel else ""
    for corr in reports:
        if corr.excluded.all():
            a, b = corr.span_s
            warnings.warn(f"{prefix}block {a:g}–{b:g} s: {_ALL_FLAGGED}", stacklevel=3)


def _screen_channel(
    x: np.ndarray,
    fs: float,
    accel: np.ndarray,
    imu_rate: float,
    threshold: float = MOTION_R_THRESHOLD,
) -> tuple[np.ndarray, list[MotionCorrelation]]:
    """:func:`remove_motion_artifacts` without its warnings: the pool job.

    Module level so that a pool worker can unpickle it by name.  It does
    not warn, since a pool worker's warnings never reach the caller;
    each report carries its block's span, and whoever reads the result
    warns with :func:`warn_zeroed_blocks`.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    imu_n = np.shape(accel)[-1]
    if abs(imu_n - n / fs * imu_rate) > 1.0 + 1e-9:  # in IMU samples
        raise ValueError(
            f"IMU track covers {imu_n / imu_rate:g} s but the signal covers "
            f"{n / fs:g} s; motion screening needs both over the same span"
        )
    block = int(round(BLOCK_S * fs))
    overlap = int(round(BLOCK_OVERLAP_S * fs))
    if block <= 2 * overlap:
        raise ValueError(
            f"a sample rate of {fs:g} Hz is too low to lay {BLOCK_S:g} s blocks "
            f"that overlap by {BLOCK_OVERLAP_S:g} s"
        )

    step = block - overlap
    starts = [i * step for i in range(max(1, (n - overlap) // step))]
    spans = [(start, start + block) for start in starts[:-1]] + [(starts[-1], n)]
    clean = np.zeros(n)
    weight = np.zeros(n)
    reports: list[MotionCorrelation] = []
    for start, stop in spans:
        i0 = int(round(start / fs * imu_rate))
        i1 = max(i0 + 2, int(round(stop / fs * imu_rate)))
        res = vmd_decompose(x[start:stop], fs)
        corr = replace(
            motion_correlation(res, accel[:, i0:i1], imu_rate, threshold),
            span_s=(start / fs, stop / fs),
        )
        reports.append(corr)

        w = np.ones(stop - start)
        if len(spans) > 1 and overlap > 0:
            ramp = np.sin(0.5 * np.pi * np.arange(overlap) / overlap) ** 2
            if start != starts[0]:
                w[:overlap] = ramp
            if start != starts[-1]:
                w[-overlap:] = ramp[::-1]
        clean[start:stop] += res.modes[~corr.excluded].sum(axis=0) * w
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
) -> tuple[np.ndarray, list[MotionCorrelation]]:
    """Motion-clean a channel of arbitrary length.

    Long signals are processed in ``BLOCK_S`` chunks, the last one running
    to the end of ``x`` (under ``2 * BLOCK_S - BLOCK_OVERLAP_S``), with a
    raised-cosine cross-fade over the ``BLOCK_OVERLAP_S`` that neighbours
    share, so VMD cost stays bounded; each block is decomposed, screened against
    its slice of the IMU track and rebuilt from the surviving modes, one
    block after another.  ``accel`` must cover the same duration as ``x``,
    to within one IMU sample.  Returns the clean channel and one report per
    block, in block order; a block whose every mode is flagged is zeroed
    with a warning that names its span.
    """
    clean, reports = _screen_channel(x, fs, accel, imu_rate, threshold)
    warn_zeroed_blocks(reports)
    return clean, reports
