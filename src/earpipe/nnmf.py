"""Supervised nonnegative matrix factorization over power spectrograms.

Training learns a per-modality dictionary of spectral templates by
minimizing the Itakura-Saito divergence with multiplicative updates
(Fevotte & Idier, Neural Computation 2011).  The dictionaries are
concatenated into a bank; separating a mixture runs the same update loop
with the bank fixed, fits only the activations, and rebuilds each modality
through a soft Wiener-style mask applied to the complex mixture spectrogram.
The loop forms ``w @ h`` once per factor update.

The IS divergence is the natural fit for audio-like power spectra because
it is scale invariant: quiet time-frequency cells cost as much to misfit
as loud ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import io as containers
from .signals import Recording, separate_mixed
from .stft import StftConfig, istft, stft

EPS = 1e-12

#: Modality order of the template bank's column blocks.
MODALITIES = ("eeg", "emg", "eog")


@dataclass(frozen=True)
class NnmfConfig:
    rank_per_modality: int = 10
    beta: int = 0  # 0 = Itakura-Saito, 1 = KL, 2 = Euclidean
    max_iter: int = 200
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.beta not in (0, 1, 2):
            raise ValueError("beta must be 0, 1 or 2")
        if self.rank_per_modality < 1:
            raise ValueError("rank_per_modality must be positive")


def beta_divergence(x: np.ndarray, y: np.ndarray, beta: int) -> float:
    """Elementwise beta-divergence, summed.

    beta = 2 is half the squared Euclidean distance, beta = 1 the
    generalized Kullback-Leibler divergence and beta = 0 the Itakura-Saito
    divergence.  Inputs are floored at ``EPS`` for the ratio-based cases.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if beta == 2:
        return float(0.5 * np.sum((x - y) ** 2))
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("beta < 2 divergences need nonnegative inputs")
    xf = np.maximum(x, EPS)
    yf = np.maximum(y, EPS)
    if beta == 1:
        return float(np.sum(xf * np.log(xf / yf) - xf + yf))
    if beta == 0:
        ratio = xf / yf
        return float(np.sum(ratio - np.log(ratio) - 1.0))
    raise ValueError("beta must be 0, 1 or 2")


def _divergence(v: np.ndarray, wh: np.ndarray, wh_floored: np.ndarray, beta: int) -> float:
    """:func:`beta_divergence` of ``v`` against ``wh`` for the update loop,
    whose ``v`` is floored at ``EPS`` and which passes ``wh`` floored too, as
    ``wh_floored``: nothing is checked or floored again.  Beta 2 reads the
    unfloored ``wh``, as the public function does."""
    if beta == 2:
        return float(0.5 * np.sum((v - wh) ** 2))
    if beta == 1:
        return float(np.sum(v * np.log(v / wh_floored) - v + wh_floored))
    ratio = v / wh_floored
    return float(np.sum(ratio - np.log(ratio) - 1.0))


# ``wh`` is the current ``w @ h`` floored at ``EPS``, formed once by the caller
def _update_h(v: np.ndarray, w: np.ndarray, h: np.ndarray, wh: np.ndarray, beta: int) -> np.ndarray:
    num = w.T @ (wh ** (beta - 2) * v)
    den = np.maximum(w.T @ wh ** (beta - 1), EPS)
    return np.maximum(h * num / den, EPS)


def _update_w(v: np.ndarray, w: np.ndarray, h: np.ndarray, wh: np.ndarray, beta: int) -> np.ndarray:
    num = (wh ** (beta - 2) * v) @ h.T
    den = np.maximum(wh ** (beta - 1) @ h.T, EPS)
    return np.maximum(w * num / den, EPS)


def _multiplicative_updates(
    v: np.ndarray, w: np.ndarray, h: np.ndarray, cfg: NnmfConfig, learn_w: bool
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Fit ``v ~ w @ h`` from the given start, keeping ``w`` fixed unless ``learn_w``.

    ``v`` must already be floored at ``EPS``.
    """
    wh = w @ h
    wh_floored = np.maximum(wh, EPS)  # shared by the divergence and the next update
    history = [_divergence(v, wh, wh_floored, cfg.beta)]
    for _ in range(cfg.max_iter):
        h = _update_h(v, w, h, wh_floored, cfg.beta)
        wh = w @ h
        if learn_w:
            w = _update_w(v, w, h, np.maximum(wh, EPS), cfg.beta)
            wh = w @ h
        wh_floored = np.maximum(wh, EPS)
        history.append(_divergence(v, wh, wh_floored, cfg.beta))
        prev, cur = history[-2], history[-1]
        if prev > 0 and (prev - cur) / prev < cfg.tol:
            break
    return w, h, history


def nnmf_factorize(
    v: np.ndarray, rank: int, cfg: NnmfConfig = NnmfConfig()
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Factorize ``v ~ w @ h`` with multiplicative updates.

    Returns the factors plus the divergence recorded after every iteration.
    """
    v = np.maximum(np.asarray(v, dtype=np.float64), EPS)
    bins, frames = v.shape
    rng = np.random.default_rng(cfg.seed)
    w = rng.uniform(0.5, 1.5, size=(bins, rank)) * np.sqrt(v.mean() / rank)
    h = rng.uniform(0.5, 1.5, size=(rank, frames)) * np.sqrt(v.mean() / rank)
    return _multiplicative_updates(v, w, h, cfg, learn_w=True)


@dataclass
class TemplateBank:
    """Concatenated spectral dictionaries, one contiguous block per modality."""

    w: np.ndarray  # bins x (rank * n_modalities), columns L1-normalized
    modalities: tuple[str, ...]
    rank: int
    stft_config: StftConfig
    sample_rate: float

    def block(self, modality: str) -> slice:
        i = self.modalities.index(modality)
        return slice(i * self.rank, (i + 1) * self.rank)


def train_templates(
    sources: dict[str, np.ndarray],
    fs: float,
    cfg: NnmfConfig = NnmfConfig(),
) -> tuple[TemplateBank, dict[str, list[float]]]:
    """Learn a template bank from isolated per-modality source signals.

    ``sources`` maps each modality name to a clean single-channel signal
    representative of that modality (seizure and background alike for EEG).
    """
    missing = [m for m in MODALITIES if m not in sources]
    if missing:
        raise ValueError(f"missing template sources for: {missing}")
    blocks = []
    history: dict[str, list[float]] = {}
    for modality in MODALITIES:
        v = stft(sources[modality], fs).power()
        w, _, hist = nnmf_factorize(v, cfg.rank_per_modality, cfg)
        blocks.append(w)
        history[modality] = hist
    w_all = np.concatenate(blocks, axis=1)
    w_all = w_all / np.maximum(w_all.sum(axis=0, keepdims=True), EPS)
    bank = TemplateBank(
        w=w_all,
        modalities=MODALITIES,
        rank=cfg.rank_per_modality,
        stft_config=StftConfig(),
        sample_rate=fs,
    )
    return bank, history


@dataclass
class SeparationResult:
    signals: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]
    divergence: list[float]


def separate_channel(
    x: np.ndarray,
    bank: TemplateBank,
    cfg: NnmfConfig = NnmfConfig(),
) -> SeparationResult:
    """Split one mixed channel into per-modality signals.

    The bank's dictionary stays fixed; only activations are fitted.  Soft
    masks are ratios of the per-modality model power to the total model
    power, so they always sum to one and the masked complex spectrograms
    sum back to the mixture's spectrogram exactly.
    """
    spec = stft(x, bank.sample_rate, bank.stft_config)
    v = np.maximum(spec.power(), EPS)
    if bank.w.shape[0] != v.shape[0]:
        raise ValueError("template bank and spectrogram bin counts differ")
    rng = np.random.default_rng(cfg.seed)
    h = rng.uniform(0.5, 1.5, size=(bank.w.shape[1], v.shape[1]))
    _, h, history = _multiplicative_updates(v, bank.w, h, cfg, learn_w=False)

    powers = {m: bank.w[:, bank.block(m)] @ h[bank.block(m)] for m in bank.modalities}
    # strictly positive by construction (w, h are floored); the tiny guard
    # only dodges literal zero so the masks still sum to one everywhere
    total = np.maximum(sum(powers.values()), np.finfo(float).tiny)
    masks = {m: powers[m] / total for m in bank.modalities}
    signals = {m: istft(replace(spec, values=masks[m] * spec.values)) for m in bank.modalities}
    return SeparationResult(signals=signals, masks=masks, divergence=history)


def separate_recording_nnmf(
    rec: Recording, bank: TemplateBank, cfg: NnmfConfig = NnmfConfig()
) -> Recording:
    """Split both mixed channels into the six separated roles."""
    if abs(rec.sample_rate - bank.sample_rate) > 1e-9:
        raise ValueError("recording and template bank sample rates differ")
    return separate_mixed(rec, lambda x: separate_channel(x, bank, cfg).signals)


def save_templates(bank: TemplateBank, path: str | Path) -> Path:
    header = {
        "kind": "nnmf_templates",
        "modalities": list(bank.modalities),
        "rank": bank.rank,
        "stft": {"window_len": bank.stft_config.window_len, "hop": bank.stft_config.hop},
        "sample_rate": bank.sample_rate,
    }
    return containers.write_container(path, header, [bank.w])


def load_templates(path: str | Path) -> TemplateBank:
    header, arrays = containers.read_container(path)
    if header.get("kind") != "nnmf_templates":
        raise ValueError(f"{path}: not a template bank file")
    bank = TemplateBank(
        w=arrays[0],
        modalities=tuple(header["modalities"]),
        rank=int(header["rank"]),
        stft_config=StftConfig(**header["stft"]),
        sample_rate=float(header["sample_rate"]),
    )
    want = (bank.stft_config.window_len // 2 + 1, bank.rank * len(bank.modalities))
    if bank.w.shape != want:
        raise ValueError(
            f"{path}: template payload is {bank.w.shape}, but the header (window_len "
            f"{bank.stft_config.window_len}, rank {bank.rank} x {len(bank.modalities)} "
            f"modalities) needs bins x columns = {want}"
        )
    return bank
