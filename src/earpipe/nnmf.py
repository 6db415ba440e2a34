"""Supervised nonnegative matrix factorization over power spectrograms.

Training learns a per-modality dictionary of spectral templates by
minimizing the Itakura-Saito divergence with multiplicative updates
(Fevotte & Idier, Neural Computation 2011).  The dictionaries are
concatenated into a bank; separating a mixture runs the same update loop
with the bank fixed, fits only the activations, and rebuilds each modality
through a soft Wiener-style mask applied to the complex mixture spectrogram.
Both run the same settings, the module constants ``RANK`` templates per
modality, at most ``MAX_ITER`` updates and the stopping tolerance ``TOL``;
only training's random start takes a seed from its caller, and separation
starts from ``ACTIVATION_SEED``.

The loop is written for Itakura-Saito alone (beta = 0): after each factor
update it forms ``wh = w @ h``, floors it, and takes its reciprocal and the
shared ratio ``v / wh`` once.  The next update's numerator is
``w.T @ (ratio / wh)`` (the textbook ``wh**-2 * v`` without the generic
power), its denominator reads the reciprocal, and the divergence reads the
ratio.  Only the numerator's last bits differ from the textbook loop's:
on full-size spectrograms the factors and masks stay within 1e-12
relative of it, with the same iteration counts.

The IS divergence is the natural fit for audio-like power spectra because
it is scale invariant: quiet time-frequency cells cost as much to misfit
as loud ones.

A bank keeps its dictionary, STFT settings and sample rate.  Its column
blocks follow ``earpipe.signals.MODALITIES`` and its rank is the dictionary's
width over their count, so a bank of the wrong shape is refused when it is
built, never at separation.  A bank is saved as a directory, the way a
recording is (see :mod:`earpipe.io`); loading also refuses a negative
template value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .io import (
    RATE,
    RecordingFormatError,
    exactly,
    integer,
    load_directory,
    read_bin,
    save_directory,
)
from .signals import MODALITIES, Recording, separate_mixed
from .stft import StftConfig, istft, stft

EPS = 1e-12
RANK = 10  # templates learned per modality
MAX_ITER = 200  # update cap, in training and in separation
TOL = 1e-6  # relative divergence drop below which the updates stop
ACTIVATION_SEED = 0  # seed of the activations a separation starts from


def is_divergence(x: np.ndarray, y: np.ndarray) -> float:
    """Itakura-Saito divergence of ``x`` from ``y``, summed; both are
    floored at ``EPS``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("the Itakura-Saito divergence needs nonnegative inputs")
    return _divergence(np.maximum(x, EPS) / np.maximum(y, EPS))


def _divergence(ratio: np.ndarray) -> float:
    """Itakura-Saito divergence summed over the cells of ``ratio = x / y``."""
    return float(np.sum(ratio - np.log(ratio) - 1.0))


def _multiplicative_updates(
    v: np.ndarray, w: np.ndarray, h: np.ndarray, learn_w: bool
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Fit ``v ~ w @ h`` from the given start, keeping ``w`` fixed unless ``learn_w``.

    Runs up to ``MAX_ITER`` updates and stops once the divergence drops by
    less than ``TOL`` of itself.  ``v`` must already be floored at ``EPS``.
    ``inv = 1 / wh`` and ``ratio = v / wh`` are formed once per factor
    update and read by the next update and the divergence.
    """

    def shared(w, h):
        wh = np.maximum(w @ h, EPS)
        return 1.0 / wh, v / wh

    inv, ratio = shared(w, h)
    history = [_divergence(ratio)]
    for _ in range(MAX_ITER):
        h = np.maximum(h * (w.T @ (ratio * inv)) / np.maximum(w.T @ inv, EPS), EPS)
        inv, ratio = shared(w, h)
        if learn_w:
            w = np.maximum(w * ((ratio * inv) @ h.T) / np.maximum(inv @ h.T, EPS), EPS)
            inv, ratio = shared(w, h)
        history.append(_divergence(ratio))
        prev, cur = history[-2], history[-1]
        if prev > 0 and (prev - cur) / prev < TOL:
            break
    return w, h, history


def nnmf_factorize(v: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Factorize ``v ~ w @ h`` at rank ``RANK`` with multiplicative updates,
    from a start drawn with ``seed``.

    Returns the factors plus the divergence recorded after every iteration.
    """
    v = np.maximum(np.asarray(v, dtype=np.float64), EPS)
    bins, frames = v.shape
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, size=(bins, RANK)) * np.sqrt(v.mean() / RANK)
    h = rng.uniform(0.5, 1.5, size=(RANK, frames)) * np.sqrt(v.mean() / RANK)
    return _multiplicative_updates(v, w, h, learn_w=True)


@dataclass
class TemplateBank:
    """Concatenated spectral dictionaries, one contiguous block of ``rank``
    columns per name in ``MODALITIES``, in that order.

    ``w`` has one row per bin of a ``stft_config`` spectrogram; a ``w`` of
    another row count, or of a width that is not a positive multiple of
    ``len(MODALITIES)``, is refused here.
    """

    w: np.ndarray  # bins x (rank * len(MODALITIES)), columns L1-normalized
    stft_config: StftConfig
    sample_rate: float

    def __post_init__(self) -> None:
        bins, width = self.w.shape
        if bins != self.stft_config.n_bins:
            raise ValueError(f"w has {bins} rows, but a {self.stft_config.window_len}-sample "
                             f"STFT window gives {self.stft_config.n_bins} bins")
        if width == 0 or width % len(MODALITIES):
            raise ValueError(f"w has {width} columns, not a positive multiple of "
                             f"{len(MODALITIES)}, one block per modality")

    @property
    def rank(self) -> int:
        """Templates per modality."""
        return self.w.shape[1] // len(MODALITIES)

    def block(self, modality: str) -> slice:
        i = MODALITIES.index(modality)
        return slice(i * self.rank, (i + 1) * self.rank)


def train_templates(
    sources: dict[str, np.ndarray], fs: float, seed: int = 0
) -> tuple[TemplateBank, dict[str, list[float]]]:
    """Learn a template bank of ``RANK`` templates per modality from isolated
    per-modality source signals, each factorization starting from ``seed``.

    ``sources`` maps each modality name to a clean single-channel signal
    representative of that modality (seizure and background alike for EEG).
    """
    missing = [m for m in MODALITIES if m not in sources]
    if missing:
        raise ValueError(f"missing template sources for: {missing}")
    blocks = []
    history: dict[str, list[float]] = {}
    for modality in MODALITIES:
        v = stft(sources[modality]).power()
        w, _, hist = nnmf_factorize(v, seed)
        blocks.append(w)
        history[modality] = hist
    w_all = np.concatenate(blocks, axis=1)
    w_all = w_all / np.maximum(w_all.sum(axis=0, keepdims=True), EPS)
    return TemplateBank(w=w_all, stft_config=StftConfig(), sample_rate=fs), history


@dataclass
class SeparationResult:
    signals: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]
    divergence: list[float]


def separate_channel(x: np.ndarray, bank: TemplateBank) -> SeparationResult:
    """Split one mixed channel into per-modality signals.

    The bank's dictionary stays fixed; only activations are fitted, from a
    start drawn with ``ACTIVATION_SEED``.  Soft masks are ratios of the
    per-modality model power to the total model power, so they always sum
    to one and the masked complex spectrograms sum back to the mixture's
    spectrogram exactly.
    """
    spec = stft(x, bank.stft_config)
    v = np.maximum(spec.power(), EPS)
    rng = np.random.default_rng(ACTIVATION_SEED)
    h = rng.uniform(0.5, 1.5, size=(bank.w.shape[1], v.shape[1]))
    _, h, history = _multiplicative_updates(v, bank.w, h, learn_w=False)
    del v  # the fit is done; freeing it here lowers the peak below

    # each modality's power is divided into its own mask in place, and the
    # total adds them in the order sum() does, so the masks keep their bits
    # with one array per modality fewer alive
    masks = {m: bank.w[:, bank.block(m)] @ h[bank.block(m)] for m in MODALITIES}
    first, *rest = masks.values()
    total = first.copy()
    for power in rest:
        total += power
    # strictly positive by construction (w, h are floored); the tiny guard
    # only dodges literal zero so the masks still sum to one everywhere
    np.maximum(total, np.finfo(float).tiny, out=total)
    for mask in masks.values():
        mask /= total
    del total  # not needed by the inverse transforms, which set the peak
    signals = {m: istft(replace(spec, values=masks[m] * spec.values)) for m in MODALITIES}
    return SeparationResult(signals=signals, masks=masks, divergence=history)


def separate_recording_nnmf(rec: Recording, bank: TemplateBank) -> Recording:
    """Split both mixed channels into the six separated roles."""
    if abs(rec.sample_rate - bank.sample_rate) > 1e-9:
        raise ValueError("recording and template bank sample rates differ")
    return separate_mixed(rec, lambda x: separate_channel(x, bank).signals)


#: The fields of a template bank's header.json; its ``w.bin`` holds the
#: bins x columns dictionary, its shape given by ``stft`` and ``rank``.
BANK_FIELDS = {
    "kind": exactly("nnmf_templates"),
    "modalities": exactly(list(MODALITIES)),
    "rank": integer(1),
    "stft": {"window_len": integer(1), "hop": integer(1)},
    "sample_rate": RATE,
}


def save_templates(bank: TemplateBank, path: str | Path) -> Path:
    """Write ``bank`` as directory ``path`` (``header.json`` and ``w.bin``)."""
    header = {
        "kind": "nnmf_templates",
        "modalities": list(MODALITIES),
        "rank": bank.rank,
        "stft": {"window_len": bank.stft_config.window_len, "hop": bank.stft_config.hop},
        "sample_rate": bank.sample_rate,
    }
    return save_directory(path, header, {"w.bin": bank.w})


def load_templates(path: str | Path) -> TemplateBank:
    """The template bank saved in directory ``path``; a damaged one raises
    :class:`~earpipe.io.RecordingFormatError` starting with the path."""
    return load_directory(path, BANK_FIELDS, _build_bank)


def _build_bank(path: Path, header: dict) -> TemplateBank:
    stft_config = StftConfig(**header["stft"])
    rank = header["rank"]
    w = read_bin(path / "w.bin", stft_config.n_bins, rank * len(MODALITIES))
    negative = np.count_nonzero(w < 0)
    if negative:
        raise RecordingFormatError(f"w.bin: {negative} of {w.size} values are negative")
    return TemplateBank(w, stft_config, float(header["sample_rate"]))
