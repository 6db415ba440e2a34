"""Behind-the-ear biosignal pipeline: conditioning, artifact removal,
source separation, feature extraction and patient-held-out evaluation.

Each name is imported from the module that defines it, for instance
``from earpipe.evaluation import run_experiment``.  Importing the package
itself loads none of them, so ``import earpipe.vmd`` in the server that
stage A's pool workers are forked from imports numpy and ``scipy.fft``
but not ``scipy.signal`` or the rest of the package.
"""

__version__ = "0.1.0"
