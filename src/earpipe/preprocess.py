"""Conditioning applied to every channel before decomposition.

The chain is mains notch, linear detrend, robust outlier interpolation and
an optional zero-phase band-pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .signals import Recording, finite


@dataclass(frozen=True)
class PreprocessConfig:
    mains_hz: float = 60.0
    notch_q: float = 35.0
    outlier_sigma: float = 6.0
    bandpass_hz: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        """Reject a setting that would break a conditioning step or silently
        skip one (a nan ``outlier_sigma`` flags no sample)."""
        for name in ("mains_hz", "notch_q", "outlier_sigma"):
            value = getattr(self, name)
            if not (finite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number above 0, got {value!r}")
        band = self.bandpass_hz
        if band is not None and not (
            len(band) == 2 and all(map(finite, band)) and 0 < band[0] < band[1]
        ):
            raise ValueError(f"bandpass_hz must be (lo, hi) with 0 < lo < hi, got {band!r}")
        if band is not None:
            object.__setattr__(self, "bandpass_hz", tuple(band))


def notch_filter(
    x: np.ndarray, fs: float, mains_hz: float = PreprocessConfig.mains_hz,
    q: float = PreprocessConfig.notch_q,
) -> np.ndarray:
    """Zero-phase second-order IIR notch at the mains frequency."""
    if not 0 < mains_hz < fs / 2:
        raise ValueError(
            f"mains_hz must be above 0 and below the Nyquist rate, {fs / 2:g} Hz, of a "
            f"recording sampled at {fs:g} Hz, got {mains_hz!r}"
        )
    b, a = sps.iirnotch(mains_hz, q, fs=fs)
    return sps.filtfilt(b, a, np.asarray(x, dtype=np.float64))


def detrend_linear(x: np.ndarray) -> np.ndarray:
    """Remove the least-squares straight line; idempotent."""
    return sps.detrend(np.asarray(x, dtype=np.float64), type="linear")


def outlier_clip(x: np.ndarray, sigma: float = PreprocessConfig.outlier_sigma) -> np.ndarray:
    """Replace samples far from the median with linear interpolation.

    A sample is an outlier when |x - median| exceeds ``sigma`` robust
    standard deviations, the robust deviation being 1.4826 * MAD.  Flagged
    samples are rebuilt by interpolating between the nearest inliers;
    flagged runs at either edge take the nearest inlier's value.  A constant
    signal (MAD = 0) passes through untouched.
    """
    x = np.asarray(x, dtype=np.float64)
    med = np.median(x)
    mad = np.median(np.abs(x - med))
    robust_sd = 1.4826 * mad
    if robust_sd == 0.0:
        return x.copy()
    bad = np.abs(x - med) > sigma * robust_sd
    if not bad.any():
        return x.copy()
    good = ~bad
    if not good.any():
        raise ValueError("every sample flagged as outlier; signal is degenerate")
    idx = np.arange(len(x))
    out = x.copy()
    out[bad] = np.interp(idx[bad], idx[good], x[good])
    return out


def bandpass_filter(x: np.ndarray, fs: float, lo: float, hi: float) -> np.ndarray:
    """4th-order Butterworth band-pass applied forward-backward (zero phase)."""
    if not 0 < lo < hi < fs / 2:
        raise ValueError(f"band [{lo}, {hi}] Hz invalid for fs={fs}")
    sos = sps.butter(4, [lo, hi], btype="band", fs=fs, output="sos")
    return sps.sosfiltfilt(sos, np.asarray(x, dtype=np.float64))


def preprocess_channel(x: np.ndarray, fs: float, cfg: PreprocessConfig = PreprocessConfig()) -> np.ndarray:
    y = notch_filter(x, fs, cfg.mains_hz, cfg.notch_q)
    y = detrend_linear(y)
    y = outlier_clip(y, cfg.outlier_sigma)
    if cfg.bandpass_hz is not None:
        y = bandpass_filter(y, fs, *cfg.bandpass_hz)
    return y


def preprocess_recording(rec: Recording, cfg: PreprocessConfig = PreprocessConfig()) -> Recording:
    """Apply the conditioning chain to every biopotential channel.

    Non-finite samples are rejected here, naming the patient and the
    channel: the zero-phase filters would spread one NaN over the whole
    channel.
    """
    tracks = [(f"channel {role.value}", x) for role, x in rec.channels.items()]
    if rec.imu is not None:
        tracks.append(("IMU track", rec.imu))
    for name, x in tracks:
        bad = ~np.isfinite(x)
        if bad.any():
            raise ValueError(
                f"recording {rec.patient_id}: {name} has {int(bad.sum())} NaN or Inf "
                "samples; repair or drop them before conditioning"
            )
    return rec.with_channels({
        role: preprocess_channel(x, rec.sample_rate, cfg)
        for role, x in rec.channels.items()
    })
