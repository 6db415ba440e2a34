"""Empirical mode decomposition and the fixed-order modality split.

Sifting follows the classic recipe: cubic-spline envelopes through the
extrema, stopped by a Cauchy-style convergence ratio.  Boundaries are
handled by mirroring two extrema beyond each end so the splines do not
swing wildly at the edges.  Extrema are where the sign of the slope turns;
on a plateau the slope is carried forward from the last nonzero one, by
indexing the signs with a running maximum of the positions of nonzero
slopes.  That copies the same sign values as a sample-by-sample carry (the
reference the tests keep), a leading plateau keeping slope 0, so the
extrema are the same.

The modality split reads IMFs 1-6 only, so sifting stops there
(``MAX_IMFS``): each IMF is sifted from the residual the ones before it
leave, so IMFs 1-6 do not depend on how many follow.  It returns the dict
of ``MODALITIES`` signals that :func:`~earpipe.signals.separate_mixed`
reads; a modality whose IMFs a shallow decomposition lacks is silent, as
``EmdResult.n_imfs`` tells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .signals import Recording, separate_mixed

SD_THRESHOLD = 0.25
MAX_SIFTINGS = 100
EMG_IMF = 0  # the IMFs the modality split reads, 0-based (see assign_modalities)
EEG_IMF = 2
EOG_IMFS = slice(3, 6)
MAX_IMFS = EOG_IMFS.stop  # sifting stops after the last IMF the split reads


@dataclass
class EmdResult:
    imfs: np.ndarray  # n_imfs x n_samples (may be empty: 0 x n)
    residual: np.ndarray

    @property
    def n_imfs(self) -> int:
        return self.imfs.shape[0]


def _local_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of local maxima and minima; a plateau counts once, at its last sample."""
    d = np.sign(np.diff(x))
    # carry the last nonzero slope through flat stretches; leading ones stay 0
    source = np.where(d != 0, np.arange(len(d)), 0)
    d = d[np.maximum.accumulate(source)]
    turn = np.diff(d)
    maxima = np.where(turn < 0)[0] + 1
    minima = np.where(turn > 0)[0] + 1
    return maxima, minima


def _mirrored_envelope(x: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Cubic-spline envelope through ``ext`` with 2 mirrored extrema per end."""
    n = len(x)
    t = ext.astype(float)
    v = x[ext]
    k = min(2, len(ext))
    left_t = -t[:k][::-1]
    left_v = v[:k][::-1]
    right_t = 2.0 * (n - 1) - t[-k:][::-1]
    right_v = v[-k:][::-1]
    ts = np.concatenate([left_t, t, right_t])
    vs = np.concatenate([left_v, v, right_v])
    ts, keep = np.unique(ts, return_index=True)
    vs = vs[keep]
    return CubicSpline(ts, vs)(np.arange(n))


def _sift(x: np.ndarray) -> np.ndarray | None:
    """Extract one IMF from ``x``; None when no envelope pair exists."""
    h = x.copy()
    for _ in range(MAX_SIFTINGS):
        maxima, minima = _local_extrema(h)
        if len(maxima) < 2 or len(minima) < 2:
            return None
        mean = 0.5 * (_mirrored_envelope(h, maxima) + _mirrored_envelope(h, minima))
        denom = float(np.sum(h**2))
        if denom == 0.0:
            return None
        sd = float(np.sum(mean**2)) / denom
        h = h - mean
        if sd < SD_THRESHOLD:
            break
    return h


def emd_decompose(x: np.ndarray) -> EmdResult:
    """Decompose ``x`` into up to ``MAX_IMFS`` IMFs, fast to slow, plus a residual.

    Each IMF is sifted until the Cauchy-style ratio drops below
    ``SD_THRESHOLD`` or ``MAX_SIFTINGS`` passes have run.  The residual is
    literally ``x - sum(imfs)``, so additivity holds to floating-point
    accuracy by construction.  A signal with fewer than four extrema is
    already a residual and yields no IMFs.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("emd_decompose expects a single channel")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains NaN or Inf")

    imfs: list[np.ndarray] = []
    residual = x.copy()
    while len(imfs) < MAX_IMFS:
        # maxima and minima alternate, so fewer than four extrema leave fewer
        # than two of one kind, and _sift's first pass returns None
        imf = _sift(residual)
        if imf is None:
            break
        imfs.append(imf)
        residual = residual - imf
    stack = np.array(imfs) if imfs else np.zeros((0, len(x)))
    return EmdResult(imfs=stack, residual=residual)


def assign_modalities(result: EmdResult) -> dict[str, np.ndarray]:
    """Fixed-order mapping of IMFs onto the modalities, one signal per name
    in ``earpipe.signals.MODALITIES``.

    The first IMF carries the fastest oscillations and is taken as EMG, the
    third as EEG, and IMFs four through six are summed into EOG.  A
    modality with none of its IMFs in ``result`` is all zeros.
    """
    k = result.n_imfs
    zeros = np.zeros(result.residual.shape[0])
    eog_parts = result.imfs[EOG_IMFS]
    return {
        "eeg": result.imfs[EEG_IMF] if k > EEG_IMF else zeros.copy(),
        "emg": result.imfs[EMG_IMF] if k > EMG_IMF else zeros.copy(),
        "eog": eog_parts.sum(axis=0) if len(eog_parts) else zeros.copy(),
    }


def separate_recording_emd(rec: Recording) -> Recording:
    """Split both mixed channels into EEG/EMG/EOG via EMD mode assignment."""
    return separate_mixed(rec, lambda x: assign_modalities(emd_decompose(x)))
