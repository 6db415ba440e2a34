"""Band SNR reporting, leave-one-patient-out evaluation and ablation sweeps.

The experiment pipeline has two stages.  Stage A is per-recording signal
work (conditioning, motion handling, source separation) and is independent
of how windows are cut; stage B segments, balances, normalizes and trains.
A window's features depend only on its recording and start, so stage B
extracts them once per recording and every fold picks its rows by index.
A sweep runs stage A once per distinct setting of the fields stage A reads
(once for stride and ratio sweeps, once per value for motion) and cuts each
recording once for all of its strides.

:func:`screen_motion` is stage A's one motion step, shared with ``earpipe
denoise``: by default it screens each channel with IMU-correlated VMD.
:func:`prepare_corpus` runs stage A as one job graph: it conditions every
recording and submits every VMD block of every channel first, then joins
the recordings in input order and returns each one separated, with the
block reports of its channels.  When motion handling is VMD and more than
one core is available, the blocks go to a process pool opened once per run;
otherwise each runs in this process as it is submitted.  Each join
cross-fades the blocks (warning about zeroed ones) and separates the
sources here, in block and channel order, so pooled and inline runs give
the same bits; on the pool, while NNMF separates one recording, the workers
are already decomposing the next one's blocks.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.signal import welch

from .emd import separate_recording_emd
# balance_epochs is unused here but stays importable from this module:
# perfbench's tracer wraps the stage-B names it finds in this namespace.
from .features import (
    WINDOW_S,
    LabeledEpoch,
    WindowSpec,
    apply_normalizer,
    balance_epochs,
    balance_indices,
    features_for_epochs,
    fit_normalizer,
    segment_recording,
)
from .models import make_model
from .nnmf import TemplateBank, separate_recording_nnmf
from .preprocess import PreprocessConfig, bandpass_filter, preprocess_recording
from .signals import ChannelRole, Recording
from .vmd import (
    MOTION_R_THRESHOLD,
    MotionCorrelation,
    QueuedBlocks,
    join_motion_blocks,
    submit_motion_blocks,
)
# No stage A code calls this: prepare_corpus returns the block reports.  The
# import stays only because perfbench/tracing.py looks every name it wraps up
# in this namespace; ROADMAP item 2 has the tracer read the reports instead.
from .vmd import remove_motion_artifacts  # noqa: F401

SNR_EPS = 1e-20


# ---------------------------------------------------------------------------
# Signal-to-noise reporting
# ---------------------------------------------------------------------------

def band_snr(x: np.ndarray, fs: float, band: tuple[float, float | None]) -> float:
    """In-band over out-of-band mean Welch PSD, in dB.

    The PSD uses 1 s Hann segments with 50% overlap.  An open-ended band
    (hi = None) extends to the Nyquist frequency.
    """
    x = np.asarray(x, dtype=np.float64)
    lo, hi = band
    hi = fs / 2 if hi is None else hi
    nperseg = min(len(x), int(round(fs)))
    freqs, psd = welch(x, fs=fs, window="hann", nperseg=nperseg, noverlap=nperseg // 2)
    inside = (freqs >= lo) & (freqs <= hi)
    if not inside.any() or inside.all():
        raise ValueError(f"band [{lo}, {hi}] Hz leaves nothing to compare at fs={fs}")
    num = max(psd[inside].mean(), SNR_EPS)
    den = max(psd[~inside].mean(), SNR_EPS)
    return float(10.0 * np.log10(num / den))


def epoch_band_snr(
    x: np.ndarray, fs: float, band: tuple[float, float | None], epoch_s: float = 10.0
) -> np.ndarray:
    """Band SNR of each non-overlapping ``epoch_s`` chunk."""
    n = int(round(epoch_s * fs))
    count = len(x) // n
    if count == 0:
        raise ValueError("signal shorter than one epoch")
    return np.array([band_snr(x[i * n:(i + 1) * n], fs, band) for i in range(count)])


def compare_snr(
    raw: np.ndarray,
    processed: np.ndarray,
    fs: float,
    bands: dict[str, tuple[float, float | None]],
    epoch_s: float = 10.0,
) -> dict[str, dict[str, float]]:
    """Epoch-averaged band SNR before/after processing, plus the delta in dB."""
    out = {}
    for name, band in bands.items():
        raw_db = float(np.mean(epoch_band_snr(raw, fs, band, epoch_s)))
        proc_db = float(np.mean(epoch_band_snr(processed, fs, band, epoch_s)))
        out[name] = {"raw_db": raw_db, "processed_db": proc_db, "delta_db": proc_db - raw_db}
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    """Binary confusion counts with the derived rates (seizure = positive)."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        d = self.tp + self.fp
        return self.tp / d if d else 0.0

    @property
    def recall(self) -> float:
        d = self.tp + self.fn
        return self.tp / d if d else 0.0

    @property
    def specificity(self) -> float:
        d = self.tn + self.fp
        return self.tn / d if d else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
            "accuracy": self.accuracy, "precision": self.precision,
            "recall": self.recall, "specificity": self.specificity, "f1": self.f1,
        }


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> Metrics:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise ValueError("label arrays differ in length")
    return Metrics(
        tp=int(np.sum((y_true == 1) & (y_pred == 1))),
        fp=int(np.sum((y_true == 0) & (y_pred == 1))),
        tn=int(np.sum((y_true == 0) & (y_pred == 0))),
        fn=int(np.sum((y_true == 1) & (y_pred == 0))),
    )


def macro_average(folds: list[Metrics]) -> dict[str, float]:
    """Unweighted mean of each derived rate across folds (the headline)."""
    if not folds:
        raise ValueError("no folds to average")
    keys = ("accuracy", "precision", "recall", "specificity", "f1")
    return {k: float(np.mean([getattr(m, k) for m in folds])) for k in keys}


def micro_average(folds: list[Metrics]) -> Metrics:
    """Pooled confusion counts across folds."""
    return Metrics(
        tp=sum(m.tp for m in folds),
        fp=sum(m.fp for m in folds),
        tn=sum(m.tn for m in folds),
        fn=sum(m.fn for m in folds),
    )


# ---------------------------------------------------------------------------
# Fold planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldPlan:
    test_patient: str
    train_patients: tuple[str, ...]


def lopo_folds(patient_ids) -> list[FoldPlan]:
    """One fold per patient, ordered by patient id."""
    unique = sorted(set(patient_ids))
    if len(unique) < 2:
        raise ValueError("leave-one-patient-out needs at least two patients")
    return [
        FoldPlan(test_patient=p, train_patients=tuple(q for q in unique if q != p))
        for p in unique
    ]


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    stride_s: int = 1
    ratio: str = "1:1"
    model: str = "svm"
    separation: str = "nnmf"  # or "emd"
    motion: str = "vmd"  # "vmd", "bandpass" (1-30 Hz baseline) or "off"
    motion_threshold: float = MOTION_R_THRESHOLD
    normalization: str = "zscore"
    mains_hz: float = 60.0
    cnn_epochs: int = 350
    master_seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    folds: list[dict]
    macro: dict[str, float]
    micro: Metrics

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "folds": self.folds,
            "macro": self.macro,
            "micro": self.micro.to_dict(),
        }


@dataclass
class QueuedRecording:
    """A recording with the VMD blocks of its channels in flight.

    ``blocks`` is empty when motion handling is not VMD: then the join is
    ``rec`` itself, with no block reports.
    """

    rec: Recording
    blocks: dict[ChannelRole, QueuedBlocks]

    def join(self) -> tuple[Recording, dict[ChannelRole, list[MotionCorrelation]]]:
        """Cross-fade each channel's blocks, channel after channel.

        Returns the screened recording and each channel's block reports.
        """
        if not self.blocks:
            return self.rec, {}
        channels, reports = {}, {}
        for role, queued in self.blocks.items():
            channels[role], reports[role] = join_motion_blocks(queued)
        return self.rec.with_channels(channels), reports


def screen_motion(
    rec: Recording, cfg: ExperimentConfig, executor: Executor | None = None
) -> QueuedRecording:
    """Stage A's motion step (``cfg.motion``) on every channel of ``rec``.

    For VMD, every block of every channel is submitted to ``executor``
    (without one, each block runs here as it is submitted), and the join
    drops the modes that correlate with the IMU above
    ``cfg.motion_threshold``.  Band-pass and motion off finish here.
    """
    if cfg.motion == "vmd":
        if rec.imu is None:
            raise ValueError(f"recording {rec.patient_id} has no IMU track for motion removal")
        return QueuedRecording(rec, {
            role: submit_motion_blocks(
                x, rec.sample_rate, rec.imu, rec.imu_rate, threshold=cfg.motion_threshold,
                executor=executor, label=f"{rec.patient_id} {role.value}",
            )
            for role, x in rec.channels.items()
        })
    if cfg.motion == "bandpass":
        rec = rec.with_channels({
            role: bandpass_filter(x, rec.sample_rate, 1.0, 30.0)
            for role, x in rec.channels.items()
        })
    elif cfg.motion != "off":
        raise ValueError(f"unknown motion mode {cfg.motion!r}")
    return QueuedRecording(rec, {})


def prepare_recording(
    rec: Recording,
    cfg: ExperimentConfig,
    templates: TemplateBank | None = None,
    screened: Recording | None = None,
) -> Recording:
    """Stage A for one recording: condition, handle motion, separate the sources.

    ``screened`` is ``rec`` conditioned and motion-screened already, as
    :func:`prepare_corpus` joins it.  Without it, both steps run here, the
    VMD blocks one at a time, and the block reports are dropped.
    """
    if screened is None:
        conditioned = preprocess_recording(rec, PreprocessConfig(mains_hz=cfg.mains_hz))
        screened, _ = screen_motion(conditioned, cfg).join()
    return separate_sources(screened, cfg.separation, templates)


def separate_sources(rec: Recording, method: str, templates: TemplateBank | None = None) -> Recording:
    """Split ``rec`` into the six roles by ``method`` ("nnmf" or "emd"), calling the
    splitter through this module's namespace so a caller wrapping it sees each call."""
    if method == "nnmf":
        if templates is None:
            raise ValueError("nnmf separation needs a template bank (--templates)")
        return separate_recording_nnmf(rec, templates)
    if method == "emd":
        return separate_recording_emd(rec)
    raise ValueError(f"unknown separation method {method!r}")


def _fold_seed(master_seed: int, purpose: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, purpose, index]).generate_state(1)[0])


def _check_sample_rates(recordings: list[Recording]) -> None:
    rates = sorted({float(rec.sample_rate) for rec in recordings})
    if len(rates) > 1:
        raise ValueError(
            f"recordings have different sample rates {rates} Hz; their features "
            "are not comparable, so resample them to one rate first"
        )


def prepare_corpus(
    recordings: list[Recording], cfg: ExperimentConfig, templates: TemplateBank | None = None
) -> list[tuple[Recording, dict[ChannelRole, list[MotionCorrelation]]]]:
    """Stage A for every recording, with VMD blocks spread over all cores.

    Returns, in input order, each recording separated into the six roles
    and its channels' VMD block reports (empty unless motion handling is
    VMD).  The pool is opened only for VMD, whose blocks take seconds per
    recording: band-pass and motion-off runs finish stage A in less time
    than the workers take to start.  Pool or not, every recording is
    conditioned and all its blocks are submitted before the first one is
    joined, so the workers never pause; a failure anywhere shuts the pool
    down with every block not yet started cancelled.
    """
    _check_sample_rates(recordings)
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # macOS and Windows have no affinity call
        cores = os.cpu_count() or 1
    pool = None
    if cfg.motion == "vmd" and cores >= 2:
        pool = ProcessPoolExecutor(cores, mp_context=multiprocessing.get_context("spawn"))
    try:
        conditioning = PreprocessConfig(mains_hz=cfg.mains_hz)
        queue = [
            screen_motion(preprocess_recording(rec, conditioning), cfg, pool) for rec in recordings
        ]
        prepared = []
        for i, rec in enumerate(recordings):
            screened, report = queue[i].join()
            queue[i] = None  # drop the joined blocks' results
            prepared.append((prepare_recording(rec, cfg, templates, screened=screened), report))
        return prepared
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class PatientWindows:
    """One patient's windows in recording and time order.

    ``features`` holds one row per window, or is None for models that read
    the raw windows.
    """

    epochs: list[LabeledEpoch]
    labels: np.ndarray
    features: np.ndarray | None


def window_tables(
    separated: list[Recording], strides: list[int], with_features: bool = True
) -> list[dict[str, PatientWindows]]:
    """Per-patient windows (and feature rows) of ``separated`` at each stride.

    Each recording is cut once, at the greatest common divisor g of the
    strides; stride s takes every (s/g)-th window of that cut.  The features
    of the windows some stride uses are extracted in one
    :func:`features_for_epochs` call, and each stride's table indexes its
    rows by position, so no window is cut or extracted twice.  Returns one
    ``patient -> PatientWindows`` table per stride, in the order given.
    """
    _check_sample_rates(separated)
    g = math.gcd(*strides)
    pieces: list[dict[str, list]] = [{} for _ in strides]
    for rec in separated:
        cut = segment_recording(rec, WindowSpec(stride_s=g))
        picks = [np.arange(0, len(cut), s // g) for s in strides]
        used = np.unique(np.concatenate(picks))
        x = features_for_epochs([cut[i] for i in used], rec.sample_rate) if with_features else None
        for table, pick in zip(pieces, picks):
            rows = None if x is None else x[np.searchsorted(used, pick)]
            table.setdefault(rec.patient_id, []).append(([cut[i] for i in pick], rows))

    tables = []
    for table in pieces:
        out = {}
        for patient, parts in table.items():
            epochs = [e for cut, _ in parts for e in cut]
            if not epochs:
                raise ValueError(
                    f"patient {patient} has no full {WINDOW_S:.0f} s window to score; "
                    "drop the patient or supply a longer recording"
                )
            out[patient] = PatientWindows(
                epochs=epochs,
                labels=np.array([e.label for e in epochs]),
                features=np.concatenate([rows for _, rows in parts]) if with_features else None,
            )
        tables.append(out)
    return tables


def run_experiment(
    recordings: list[Recording],
    cfg: ExperimentConfig = ExperimentConfig(),
    templates: TemplateBank | None = None,
    separated: list[Recording] | None = None,
    windows: dict[str, PatientWindows] | None = None,
) -> ExperimentResult:
    """Full pipeline + leave-one-patient-out evaluation.

    ``separated`` may carry precomputed stage A outputs, or ``windows`` the
    per-patient windows and feature rows already cut from them at
    ``cfg.stride_s`` by :func:`window_tables` (as sweeps do); otherwise every
    recording runs through :func:`prepare_corpus` and is windowed here.
    Evaluation folds never balance the held-out patient and normalization
    statistics come from the training folds alone.
    """
    use_windows = cfg.model == "cnn"
    if windows is None:
        if separated is None:
            separated = [rec for rec, _ in prepare_corpus(recordings, cfg, templates)]
        windows = window_tables(separated, [cfg.stride_s], with_features=not use_windows)[0]

    folds = lopo_folds(windows)
    fold_rows: list[dict] = []
    fold_metrics: list[Metrics] = []

    for fold_idx, fold in enumerate(folds):
        train = [windows[p] for p in fold.train_patients]
        test = windows[fold.test_patient]
        train_labels = np.concatenate([w.labels for w in train])
        keep = balance_indices(
            train_labels, cfg.ratio, seed=_fold_seed(cfg.master_seed, 1, fold_idx)
        )
        y_train = train_labels[keep]
        model = make_model(cfg.model, seed=_fold_seed(cfg.master_seed, 2, fold_idx))

        if use_windows:
            train_epochs = [e for w in train for e in w.epochs]
            x_train = np.stack([train_epochs[i].channels for i in keep])
            x_test = np.stack([e.channels for e in test.epochs])
            model.train_config = replace(model.train_config, epochs=cfg.cnn_epochs)
        else:
            x_fold = np.concatenate([w.features for w in train])[keep]
            norm = fit_normalizer(x_fold, mode=cfg.normalization)
            x_train = apply_normalizer(x_fold, norm)
            x_test = apply_normalizer(test.features, norm)

        model.fit(x_train, y_train)
        metrics = confusion(test.labels, model.predict(x_test))
        fold_metrics.append(metrics)
        fold_rows.append({
            "patient": fold.test_patient,
            "n_train": len(keep),
            "n_test": len(test.labels),
            "metrics": metrics.to_dict(),
        })

    return ExperimentResult(
        config=cfg,
        folds=fold_rows,
        macro=macro_average(fold_metrics),
        micro=micro_average(fold_metrics),
    )


SWEEP_AXES = {
    "stride": [1, 2, 3, 4, 5, 6, 7, 8, 9],
    "ratio": ["1:1", "1:2", "1:3"],
    "motion": ["vmd", "off"],
}


def sweep(
    recordings: list[Recording],
    cfg: ExperimentConfig,
    axis: str,
    templates: TemplateBank | None = None,
) -> list[dict]:
    """Rerun the experiment along one ablation axis, one row per value.

    Values that agree on every field stage A reads share one stage A run
    and one :func:`window_tables` call over their strides, so stride and
    ratio sweeps run stage A once and a motion sweep once per value.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    field = "stride_s" if axis == "stride" else axis
    configs = [replace(cfg, **{field: value}) for value in SWEEP_AXES[axis]]
    windows: dict[tuple, dict[str, PatientWindows]] = {}
    rows = []
    for value, sub in zip(SWEEP_AXES[axis], configs):
        stage_a = _stage_a_fields(sub)
        if (stage_a, sub.stride_s) not in windows:  # first value of its group
            group = [c for c in configs if _stage_a_fields(c) == stage_a]
            strides = list(dict.fromkeys(c.stride_s for c in group))
            separated = [rec for rec, _ in prepare_corpus(recordings, sub, templates)]
            tables = window_tables(separated, strides, with_features=cfg.model != "cnn")
            windows.update(((stage_a, s), table) for s, table in zip(strides, tables))
        result = run_experiment(recordings, sub, templates, windows=windows[stage_a, sub.stride_s])
        rows.append(_sweep_row(axis, value, result))
    return rows


def _stage_a_fields(cfg: ExperimentConfig) -> tuple:
    """The fields of ``cfg`` that stage A reads."""
    return cfg.mains_hz, cfg.motion, cfg.motion_threshold, cfg.separation


def _sweep_row(axis: str, value, result: ExperimentResult) -> dict:
    return {
        "axis": axis,
        "value": value,
        "macro_accuracy": result.macro["accuracy"],
        "macro_recall": result.macro["recall"],
        "macro_f1": result.macro["f1"],
        "micro_accuracy": result.micro.accuracy,
    }
