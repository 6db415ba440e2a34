"""Empirical mode decomposition and the fixed-order modality split.

Sifting follows the classic recipe: cubic-spline envelopes through the
extrema, stopped by a Cauchy-style convergence ratio.  Boundaries are
handled by mirroring two extrema beyond each end so the splines do not
swing wildly at the edges.

The modality split reads IMFs 1-6 only and stops sifting there: each IMF is
sifted from the residual the ones before it leave, so IMFs 1-6 do not depend
on how many follow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .signals import Recording, separate_mixed

SD_THRESHOLD = 0.25
MAX_SIFTINGS = 100
MAX_IMFS = 8
EMG_IMF = 0  # the IMFs the modality split reads, 0-based (see ModalityAssignment)
EEG_IMF = 2
EOG_IMFS = slice(3, 6)


@dataclass
class EmdResult:
    imfs: np.ndarray  # n_imfs x n_samples (may be empty: 0 x n)
    residual: np.ndarray

    @property
    def n_imfs(self) -> int:
        return self.imfs.shape[0]


def _local_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of local maxima and minima, plateaus collapsed to midpoints."""
    d = np.sign(np.diff(x))
    # carry the previous slope through flat stretches
    for i in range(1, len(d)):
        if d[i] == 0:
            d[i] = d[i - 1]
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


def _sift(x: np.ndarray, sd_threshold: float, max_siftings: int) -> np.ndarray | None:
    """Extract one IMF from ``x``; None when no envelope pair exists."""
    h = x.copy()
    for _ in range(max_siftings):
        maxima, minima = _local_extrema(h)
        if len(maxima) < 2 or len(minima) < 2:
            return None
        mean = 0.5 * (_mirrored_envelope(h, maxima) + _mirrored_envelope(h, minima))
        denom = float(np.sum(h**2))
        if denom == 0.0:
            return None
        sd = float(np.sum(mean**2)) / denom
        h = h - mean
        if sd < sd_threshold:
            break
    return h


def emd_decompose(
    x: np.ndarray,
    max_imfs: int = MAX_IMFS,
    sd_threshold: float = SD_THRESHOLD,
    max_siftings: int = MAX_SIFTINGS,
) -> EmdResult:
    """Decompose ``x`` into IMFs ordered fast to slow plus a residual.

    The residual is literally ``x - sum(imfs)``, so additivity holds to
    floating-point accuracy by construction.  A signal with fewer than four
    extrema is already a residual and yields no IMFs.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("emd_decompose expects a single channel")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains NaN or Inf")

    imfs: list[np.ndarray] = []
    residual = x.copy()
    while len(imfs) < max_imfs:
        # maxima and minima alternate, so fewer than four extrema leave fewer
        # than two of one kind, and _sift's first pass returns None
        imf = _sift(residual, sd_threshold, max_siftings)
        if imf is None:
            break
        imfs.append(imf)
        residual = residual - imf
    stack = np.array(imfs) if imfs else np.zeros((0, len(x)))
    return EmdResult(imfs=stack, residual=residual)


def orthogonality_index(result: EmdResult) -> float:
    """Sum of cross-IMF inner products relative to total signal energy."""
    total = result.imfs.sum(axis=0) + result.residual
    energy = float(np.sum(total**2))
    if energy == 0.0:
        return 0.0
    gram = result.imfs @ result.imfs.T
    cross = np.sum(np.abs(gram)) - np.sum(np.abs(np.diag(gram)))
    return float(cross / energy)


@dataclass
class ModalityAssignment:
    """Fixed-order mapping of IMFs onto the three modalities.

    The first IMF carries the fastest oscillations and is taken as EMG, the
    third as EEG, and IMFs four through six are summed into EOG.  ``partial_eog``
    flags decompositions with fewer than six IMFs; ``degenerate`` flags those
    too shallow (fewer than three) to place EEG at all.
    """

    emg: np.ndarray
    eeg: np.ndarray
    eog: np.ndarray
    partial_eog: bool = False
    degenerate: bool = False


def assign_modalities(result: EmdResult) -> ModalityAssignment:
    n = result.residual.shape[0]
    k = result.n_imfs
    zeros = np.zeros(n)
    emg = result.imfs[EMG_IMF] if k > EMG_IMF else zeros.copy()
    eeg = result.imfs[EEG_IMF] if k > EEG_IMF else zeros.copy()
    eog_parts = result.imfs[EOG_IMFS]
    eog = eog_parts.sum(axis=0) if len(eog_parts) else zeros.copy()
    return ModalityAssignment(
        emg=emg,
        eeg=eeg,
        eog=eog,
        partial_eog=k < EOG_IMFS.stop,
        degenerate=k <= EEG_IMF,
    )


def separate_recording_emd(rec: Recording) -> Recording:
    """Split both mixed channels into EEG/EMG/EOG via EMD mode assignment."""

    def split(x: np.ndarray) -> dict[str, np.ndarray]:
        assignment = assign_modalities(emd_decompose(x, max_imfs=EOG_IMFS.stop))
        return {"eeg": assignment.eeg, "emg": assignment.emg, "eog": assignment.eog}

    return separate_mixed(rec, split)
