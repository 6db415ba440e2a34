"""Windowing, labeling, hand-crafted features and dataset plumbing.

Recordings are cut into fixed 10 s windows on a configurable stride.  A
window counts as seizure only when it lies entirely inside an annotated
interval, so boundary windows that straddle an onset stay negative.  Each
window yields 8 amplitude statistics plus 50 cepstral values per channel:
58 x 6 channels = 348 features, concatenated channel-major in the canonical
role order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct
from scipy.signal import get_window

from .signals import Recording, SeizureAnnotation, SEPARATED_ROLES

WINDOW_S = 10.0
MFCC_FRAMES = 5
MEL_FILTERS = 26
MFCC_COEFS = 10
LOG_EPS = 1e-12
FEATURE_BATCH = 16  # windows per kernel pass: 16 x 6 x 2500 samples is ~2 MB

TIME_FEATURE_NAMES = ("mean", "std", "mad", "skew", "kurt", "min", "max", "rms")


@dataclass(frozen=True)
class WindowSpec:
    """Epoch geometry: fixed 10 s windows every ``stride_s`` seconds."""

    stride_s: int = 1

    def __post_init__(self) -> None:
        if not (1 <= int(self.stride_s) <= 9):
            raise ValueError(f"stride_s must be an integer in 1..9, got {self.stride_s}")


@dataclass
class LabeledEpoch:
    patient_id: str
    start_s: float
    channels: np.ndarray  # 6 x window_samples, canonical separated order
    label: int  # 1 = seizure, 0 = background


def epoch_start_indices(n_samples: int, fs: float, spec: WindowSpec) -> np.ndarray:
    """Start sample of every full window: 0, stride, 2*stride, ..."""
    w = int(round(WINDOW_S * fs))
    s = int(round(spec.stride_s * fs))
    if n_samples < w:
        return np.zeros(0, dtype=int)
    count = (n_samples - w) // s + 1
    return np.arange(count) * s


def window_label(start_s: float, annotations: list[SeizureAnnotation], window_s: float = WINDOW_S) -> int:
    """1 when [start, start + window] sits entirely inside an annotation."""
    stop_s = start_s + window_s
    tol = 1e-9
    for a in annotations:
        if start_s >= a.onset_s - tol and stop_s <= a.offset_s + tol:
            return 1
    return 0


def segment_recording(
    rec: Recording,
    spec: WindowSpec = WindowSpec(),
    allow_short_events: bool = False,
) -> list[LabeledEpoch]:
    """Cut a separated recording into labeled fixed-length epochs.

    Annotated events shorter than the window can never contain a full
    window, so by default they are treated as a labeling mistake and
    rejected; pass ``allow_short_events=True`` to keep them (they simply
    mark nothing).  Epoch channels are read-only views into one C x N copy
    of the recording's separated channels.
    """
    for a in rec.annotations:
        if a.duration_s < WINDOW_S and not allow_short_events:
            raise ValueError(
                f"annotation [{a.onset_s}, {a.offset_s}] is shorter than the "
                f"{WINDOW_S:.0f} s window; pass allow_short_events=True to keep it"
            )
    matrix = rec.channel_matrix(SEPARATED_ROLES)
    matrix.flags.writeable = False
    fs = rec.sample_rate
    w = int(round(WINDOW_S * fs))
    epochs = []
    for start in epoch_start_indices(rec.n_samples, fs, spec):
        start_s = start / fs
        epochs.append(
            LabeledEpoch(
                patient_id=rec.patient_id,
                start_s=start_s,
                channels=matrix[:, start:start + w],
                label=window_label(start_s, rec.annotations),
            )
        )
    return epochs


# ---------------------------------------------------------------------------
# Features: one batched kernel; leading axes of the input are batch axes
# ---------------------------------------------------------------------------

def time_features(x: np.ndarray) -> np.ndarray:
    """[mean, std, mad, skew, kurt, min, max, rms] along the last axis.

    Population moments throughout; kurtosis is the raw fourth standardized
    moment (3 for a normal distribution).  A flat window has no shape, so
    skew and kurtosis are defined as 0 there.  An (..., w) input gives an
    (..., 8) output.
    """
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    sq = centered * centered  # products, not **3 / **4: generic pow is ~20x slower
    var = np.mean(sq, axis=-1)
    std = np.sqrt(var)
    mad = np.mean(np.abs(centered), axis=-1)
    shaped = std > 0
    skew = np.divide(np.mean(sq * centered, axis=-1), std**3, out=np.zeros_like(std), where=shaped)
    kurt = np.divide(np.mean(sq * sq, axis=-1), var**2, out=np.zeros_like(std), where=shaped)
    rms = np.sqrt(np.mean(x * x, axis=-1))
    return np.stack(
        [mu[..., 0], std, mad, skew, kurt, x.min(axis=-1), x.max(axis=-1), rms], axis=-1
    )


def mel_filterbank(n_filters: int, n_fft: int, fs: float) -> np.ndarray:
    """Triangular filters spaced evenly on the mel scale over [0, fs/2]."""
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    edges_hz = from_mel(np.linspace(to_mel(0.0), to_mel(fs / 2), n_filters + 2))
    bin_hz = np.fft.rfftfreq(n_fft, 1.0 / fs)
    bank = np.zeros((n_filters, len(bin_hz)))
    for m in range(n_filters):
        lo, mid, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_hz - lo) / max(mid - lo, 1e-12)
        falling = (hi - bin_hz) / max(hi - mid, 1e-12)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


@functools.lru_cache(maxsize=16)
def _cepstral_basis(frame_len: int, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Hann taper and mel bank for one frame geometry, built once (read-only)."""
    win = get_window("hann", frame_len, fftbins=True)
    bank = mel_filterbank(MEL_FILTERS, frame_len, fs)
    win.flags.writeable = False
    bank.flags.writeable = False
    return win, bank


def mfcc_features(x: np.ndarray, fs: float) -> np.ndarray:
    """Five non-overlapping 2 s frames x first ten cepstral coefficients.

    Each frame is Hann-tapered, its power spectrum pooled through 26
    mel-spaced triangular filters, logged (floored at ``LOG_EPS``), then
    decorrelated with an orthonormal DCT-II.  Output is frame-major; an
    (..., w) input gives an (..., 50) output from one FFT, one filterbank
    product and one DCT over all frames.
    """
    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[:-1]
    frame_len = x.shape[-1] // MFCC_FRAMES
    if frame_len < 2:
        raise ValueError("window too short for cepstral frames")
    win, bank = _cepstral_basis(frame_len, float(fs))
    frames = x[..., :MFCC_FRAMES * frame_len].reshape(-1, frame_len) * win
    power = np.abs(np.fft.rfft(frames, axis=-1)) ** 2
    # einsum, not a BLAS product: BLAS picks kernels by batch size, and a
    # window's features must not depend on which windows share its batch
    loge = np.log(np.maximum(np.einsum("nk,fk->nf", power, bank), LOG_EPS))
    coefs = dct(loge, type=2, norm="ortho", axis=-1)[:, :MFCC_COEFS]
    return coefs.reshape(*batch, MFCC_FRAMES * MFCC_COEFS)


def channel_features(x: np.ndarray, fs: float) -> np.ndarray:
    """58 values per channel window: an (..., w) input gives (..., 58)."""
    return np.concatenate([time_features(x), mfcc_features(x, fs)], axis=-1)


def epoch_features(epoch: LabeledEpoch, fs: float) -> np.ndarray:
    """348-value feature vector: 58 per channel, channel-major."""
    return channel_features(epoch.channels, fs).reshape(-1)


def feature_names() -> list[str]:
    """Stable names aligned with :func:`epoch_features`."""
    per_channel = list(TIME_FEATURE_NAMES) + [
        f"mfcc_t{f}_c{c}" for f in range(MFCC_FRAMES) for c in range(MFCC_COEFS)
    ]
    return [f"{role.value}.{name}" for role in SEPARATED_ROLES for name in per_channel]


def features_for_epochs(epochs: list[LabeledEpoch], fs: float) -> np.ndarray:
    """n x 348 feature matrix, computed in batched passes over the windows.

    Windows go through the kernel ``FEATURE_BATCH`` at a time, which bounds
    the kernel's temporaries; a row does not depend on its batch.
    """
    out = np.empty((len(epochs), len(feature_names())))
    for lo in range(0, len(epochs), FEATURE_BATCH):
        windows = np.stack([e.channels for e in epochs[lo:lo + FEATURE_BATCH]])
        out[lo:lo + len(windows)] = channel_features(windows, fs).reshape(len(windows), -1)
    return out


# ---------------------------------------------------------------------------
# Class balancing and normalization
# ---------------------------------------------------------------------------

def parse_ratio(ratio: str) -> int:
    """'1:k' -> k, the number of background epochs kept per seizure epoch."""
    parts = ratio.split(":")
    if len(parts) != 2 or parts[0] != "1" or parts[1] not in ("1", "2", "3"):
        raise ValueError(f"ratio must be one of 1:1, 1:2, 1:3, got {ratio!r}")
    return int(parts[1])


def balance_indices(labels, ratio: str = "1:1", seed: int = 0) -> np.ndarray:
    """Sorted indices of the rows that keep an exact seizure:background ratio.

    All minority rows survive; the majority class is reduced by a seeded
    uniform draw (at most k-1 majority rows may additionally drop when the
    counts do not divide evenly).  Labels are 1 (seizure) or 0 (background).
    """
    k = parse_ratio(ratio)
    labels = np.asarray(labels)
    seiz = np.flatnonzero(labels == 1)
    back = np.flatnonzero(labels == 0)
    if not len(seiz) or not len(back):
        raise ValueError("balancing needs at least one epoch of each class")
    n_seiz = min(len(seiz), len(back) // k)
    if n_seiz == 0:
        raise ValueError(f"too few background epochs for a 1:{k} ratio")
    n_back = k * n_seiz
    rng = np.random.default_rng(seed)
    keep_seiz = seiz if n_seiz == len(seiz) else rng.choice(seiz, size=n_seiz, replace=False)
    keep_back = back if n_back == len(back) else rng.choice(back, size=n_back, replace=False)
    return np.sort(np.concatenate([keep_seiz, keep_back]))


def balance_epochs(
    epochs: list[LabeledEpoch], ratio: str = "1:1", seed: int = 0
) -> list[LabeledEpoch]:
    """:func:`balance_indices` applied to epochs; output keeps temporal order."""
    return [epochs[i] for i in balance_indices([e.label for e in epochs], ratio, seed)]


@dataclass
class NormalizationParams:
    """Per-feature affine transform fitted on training folds only."""

    mode: str  # "zscore" or "minmax"
    center: np.ndarray
    scale: np.ndarray
    passthrough: np.ndarray  # mask of features left untouched (no spread)


def fit_normalizer(x: np.ndarray, mode: str = "zscore") -> NormalizationParams:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("need a nonempty n x d feature matrix")
    if mode == "zscore":
        center = x.mean(axis=0)
        scale = x.std(axis=0)
    elif mode == "minmax":
        center = x.min(axis=0)
        scale = x.max(axis=0) - center
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    passthrough = scale <= 1e-12 * (1.0 + np.abs(center))
    return NormalizationParams(mode=mode, center=center, scale=scale, passthrough=passthrough)


def apply_normalizer(x: np.ndarray, params: NormalizationParams) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = x.copy()
    live = ~params.passthrough
    out[:, live] = (x[:, live] - params.center[live]) / params.scale[live]
    return out
