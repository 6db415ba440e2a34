"""Importing a worker's modules stays light: no signal stack, no evaluation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import earpipe


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports earpipe from this tree."""
    src = str(Path(earpipe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


HEAVY = ("scipy.signal", "scipy.interpolate", "earpipe.evaluation")


def _heavy_modules_after(code: str) -> list[str]:
    """The modules of ``HEAVY`` that a new interpreter holds after ``code``."""
    out = _fresh_python(f"{code}\nimport sys\nprint(*[m for m in {HEAVY!r} if m in sys.modules])\n")
    return out.split()


class TestLightWorker:
    """A pool worker runs the main module of the process that opened the
    pool (as ``__mp_main__``), and earpipe.vmd is imported to unpickle its
    channels: once in the forkserver, or in each worker where workers are
    spawned.  None of that may pull in scipy.signal, scipy.interpolate or
    the evaluation stack, which would double that import's cost."""

    def test_vmd_imports_no_signal_module(self):
        assert _heavy_modules_after("import earpipe.vmd") == []

    def test_cli_worker_imports_no_signal_module(self):
        """The console script's __main__ imports earpipe.cli."""
        assert _heavy_modules_after("import earpipe.cli, earpipe.vmd") == []

    @pytest.mark.parametrize("demo", ["ablation_run.py", "feature_space.py"])
    def test_demo_worker_imports_no_signal_module(self, demo):
        """Both demos open a pool; they import the pipeline inside ``main``."""
        demo = Path(__file__).resolve().parents[1] / "demos" / demo
        assert _heavy_modules_after(
            f"import runpy\nrunpy.run_path({str(demo)!r}, run_name='__mp_main__')\n"
            "import earpipe.vmd"
        ) == []
