"""Behind-the-ear biosignal pipeline: conditioning, artifact removal,
source separation, feature extraction and patient-held-out evaluation.

The names below are loaded on first use (PEP 562), each from its module,
so ``import earpipe.vmd`` in a process-pool worker imports numpy and
``scipy.fft`` but not ``scipy.signal`` or the rest of the package.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "signals": (
        "BIOPOTENTIAL_RATE_HZ", "ChannelRole", "EEG_BANDS", "EMG_BAND", "EOG_BAND",
        "IMU_RATE_HZ", "MIXED_ROLES", "Recording", "SEPARATED_ROLES",
        "SeizureAnnotation", "SynthComponent", "SynthesisSpec", "synthesize_recording",
    ),
    "io": ("load_recording", "save_recording"),
    "preprocess": (
        "PreprocessConfig", "bandpass_filter", "detrend_linear", "notch_filter",
        "outlier_clip", "preprocess_recording",
    ),
    "stft": ("Spectrogram", "StftConfig", "istft", "stft"),
    "vmd": (
        "MotionCorrelation", "VmdResult", "motion_correlation", "remove_motion_artifacts",
        "vmd_decompose",
    ),
    "emd": (
        "EmdResult", "ModalityAssignment", "assign_modalities", "emd_decompose",
        "separate_recording_emd",
    ),
    "nnmf": (
        "NnmfConfig", "TemplateBank", "is_divergence", "load_templates",
        "nnmf_factorize", "save_templates", "separate_channel",
        "separate_recording_nnmf", "train_templates",
    ),
    "features": (
        "LabeledEpoch", "WindowSpec", "apply_normalizer", "balance_epochs",
        "epoch_features", "feature_names", "fit_normalizer", "mfcc_features",
        "segment_recording", "time_features",
    ),
    "models": ("make_model",),
    "evaluation": (
        "ExperimentConfig", "ExperimentResult", "Metrics", "band_snr", "compare_snr",
        "confusion", "lopo_folds", "run_experiment", "sweep",
    ),
    "corpus": ("make_synthetic_corpus", "template_sources", "train_corpus_templates"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))


class _Namespace(types.ModuleType):
    """Importing submodule ``earpipe.stft`` binds it on this package, which
    would hide the exported function ``stft``; the exported name wins."""

    def __setattr__(self, name: str, value) -> None:
        if name in _MODULE_OF and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
