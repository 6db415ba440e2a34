"""Self-describing model files: a kind tag, hyperparameters, float64 payload.

Each classifier hands over its own header fields and arrays through
``state()`` and is rebuilt by ``from_state()``; this module adds the kind
tag and owns the container.
"""

from __future__ import annotations

from pathlib import Path

from .. import io as containers
from .cnn import CnnClassifier
from .forest import RandomForestClassifier
from .knn import KnnClassifier
from .svm import SvmClassifier

MODEL_CLASSES = {
    "svm": SvmClassifier,
    "knn": KnnClassifier,
    "rfc": RandomForestClassifier,
    "cnn": CnnClassifier,
}


def save_model(model, path: str | Path) -> Path:
    kind = next((k for k, cls in MODEL_CLASSES.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    header, arrays = model.state()
    return containers.write_container(path, {"kind": kind, **header}, arrays)


def load_model(path: str | Path):
    """The classifier saved at ``path``; a damaged file raises
    :class:`~earpipe.io.RecordingFormatError` starting with the path."""
    header, arrays = containers.read_container(path)
    kind = header.get("kind")
    if kind not in MODEL_CLASSES:
        raise containers.RecordingFormatError(f"{path}: unknown model kind {kind!r}")
    try:
        return MODEL_CLASSES[kind].from_state(header, arrays)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise containers.RecordingFormatError(f"{path}: damaged {kind} model: {exc!r}") from exc
