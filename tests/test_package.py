"""The package namespace: its exported names, loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import earpipe

# the names, by module, that the package exports
EXPORTS = {
    "signals": [
        "BIOPOTENTIAL_RATE_HZ", "ChannelRole", "EEG_BANDS", "EMG_BAND", "EOG_BAND",
        "IMU_RATE_HZ", "MIXED_ROLES", "Recording", "SEPARATED_ROLES",
        "SeizureAnnotation", "SynthComponent", "SynthesisSpec", "synthesize_recording",
    ],
    "io": ["load_recording", "save_recording"],
    "preprocess": [
        "PreprocessConfig", "bandpass_filter", "detrend_linear", "notch_filter",
        "outlier_clip", "preprocess_recording",
    ],
    "stft": ["Spectrogram", "StftConfig", "istft", "stft"],
    "vmd": [
        "MotionCorrelation", "VmdResult", "motion_correlation", "remove_motion_artifacts",
        "vmd_decompose",
    ],
    "emd": [
        "EmdResult", "ModalityAssignment", "assign_modalities", "emd_decompose",
        "separate_recording_emd",
    ],
    "nnmf": [
        "NnmfConfig", "TemplateBank", "is_divergence", "load_templates",
        "nnmf_factorize", "save_templates", "separate_channel",
        "separate_recording_nnmf", "train_templates",
    ],
    "features": [
        "LabeledEpoch", "WindowSpec", "apply_normalizer", "balance_epochs",
        "epoch_features", "feature_names", "fit_normalizer", "mfcc_features",
        "segment_recording", "time_features",
    ],
    "models": ["make_model"],
    "evaluation": [
        "ExperimentConfig", "ExperimentResult", "Metrics", "band_snr", "compare_snr",
        "confusion", "lopo_folds", "run_experiment", "sweep",
    ],
    "corpus": ["make_synthetic_corpus", "template_sources", "train_corpus_templates"],
}


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports earpipe from this tree."""
    src = str(Path(earpipe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


class TestNamespace:
    def test_all_is_the_eager_export_list(self):
        names = [name for group in EXPORTS.values() for name in group]
        assert len(names) == 67
        assert sorted(earpipe.__all__) == sorted(names)

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_its_module_object(self, module):
        source = importlib.import_module(f"earpipe.{module}")
        for name in EXPORTS[module]:
            assert getattr(earpipe, name) is getattr(source, name)

    def test_star_import(self):
        namespace = {}
        exec("from earpipe import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(earpipe.__all__)
        assert namespace["stft"] is importlib.import_module("earpipe.stft").stft

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'run_everything'"):
            earpipe.run_everything

    def test_submodules_reachable_from_a_fresh_import(self):
        out = _fresh_python(
            "import earpipe\n"
            "print(earpipe.evaluation.__name__, earpipe.models.make_model.__module__)\n"
            "import earpipe.stft\n"
            "print(earpipe.stft.__module__)\n"
        )
        assert out.split() == ["earpipe.evaluation", "earpipe.models", "earpipe.stft"]


HEAVY = ("scipy.signal", "scipy.interpolate", "earpipe.evaluation")


def _heavy_modules_after(code: str) -> list[str]:
    """The modules of ``HEAVY`` that a new interpreter holds after ``code``."""
    out = _fresh_python(f"{code}\nimport sys\nprint(*[m for m in {HEAVY!r} if m in sys.modules])\n")
    return out.split()


class TestLightWorker:
    """A spawned pool worker re-imports the main module of the process that
    opened the pool (as ``__mp_main__``), then imports earpipe.vmd to
    unpickle its blocks.  None of that may pull in scipy.signal,
    scipy.interpolate or the evaluation stack, which would double a
    worker's start-up cost."""

    def test_vmd_imports_no_signal_module(self):
        assert _heavy_modules_after("import earpipe.vmd") == []

    def test_cli_worker_imports_no_signal_module(self):
        """The console script's __main__ imports earpipe.cli."""
        assert _heavy_modules_after("import earpipe.cli, earpipe.vmd") == []

    def test_ablation_demo_worker_imports_no_signal_module(self):
        demo = Path(__file__).resolve().parents[1] / "demos" / "ablation_run.py"
        assert _heavy_modules_after(
            f"import runpy\nrunpy.run_path({str(demo)!r}, run_name='__mp_main__')\n"
            "import earpipe.vmd"
        ) == []
