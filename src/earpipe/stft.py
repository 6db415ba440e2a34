"""Short-time Fourier analysis used by the spectral separation stage.

Frames are Hann-windowed with 50% overlap, which satisfies the constant
overlap-add condition, so the inverse transform reconstructs every covered
sample exactly (the first/last half-window carry reduced weight and are the
only places a round trip can deviate).  The transform works in samples and
bins, so it takes no sample rate: bin k lies at ``k * fs / window_len`` Hz
for a signal sampled at ``fs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sps


@dataclass(frozen=True)
class StftConfig:
    window_len: int = 256
    hop: int = 128

    def __post_init__(self) -> None:
        if self.window_len <= 0 or self.hop <= 0:
            raise ValueError("window_len and hop must be positive")
        if self.hop > self.window_len:
            raise ValueError("hop larger than the window breaks overlap-add")

    @property
    def n_bins(self) -> int:
        """Rows of a spectrogram: the rfft bins from 0 Hz to Nyquist."""
        return self.window_len // 2 + 1


@dataclass
class Spectrogram:
    """Complex STFT plus the bookkeeping needed to invert it."""

    values: np.ndarray  # bins x frames, complex128
    config: StftConfig
    n_samples: int

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    def power(self) -> np.ndarray:
        """Magnitude-squared spectrogram (the NNMF observation matrix)."""
        return np.abs(self.values) ** 2


def _window(cfg: StftConfig) -> np.ndarray:
    return sps.get_window("hann", cfg.window_len, fftbins=True)


def stft(x: np.ndarray, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Hann-windowed STFT of one channel, ``cfg.n_bins`` bins
    by as many frames as cover every sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("stft expects a single channel")
    n = len(x)
    win, hop = cfg.window_len, cfg.hop
    # pad so every sample falls under at least one frame
    n_frames = max(1, int(np.ceil(max(n - win, 0) / hop)) + 1)
    padded = np.zeros((n_frames - 1) * hop + win)
    padded[:n] = x
    frames = np.lib.stride_tricks.sliding_window_view(padded, win)[::hop]
    spec = np.fft.rfft(frames * _window(cfg), axis=1).T
    return Spectrogram(values=spec, config=cfg, n_samples=n)


def istft(spec: Spectrogram) -> np.ndarray:
    cfg = spec.config
    win, hop = cfg.window_len, cfg.hop
    w = _window(cfg)
    w_sq = w**2
    frames = np.fft.irfft(spec.values.T, n=win, axis=1)
    total = (spec.n_frames - 1) * hop + win
    y = np.zeros(total)
    norm = np.zeros(total)
    for k in range(spec.n_frames):
        sl = slice(k * hop, k * hop + win)
        y[sl] += frames[k] * w
        norm[sl] += w_sq
    covered = norm > 1e-12
    y[covered] /= norm[covered]
    return y[:spec.n_samples]
