"""Classifiers trained from scratch: kernel SVM, KNN, random forest, 1-D CNN."""

from .cnn import EPOCHS, CnnClassifier
from .forest import RandomForestClassifier
from .knn import KnnClassifier
from .svm import SvmClassifier

# each kind's builder, from the fold's seed and the CNN's epoch count
MODELS = {
    "svm": lambda seed, cnn_epochs: SvmClassifier(),
    "knn": lambda seed, cnn_epochs: KnnClassifier(),
    "rfc": lambda seed, cnn_epochs: RandomForestClassifier(seed),
    "cnn": lambda seed, cnn_epochs: CnnClassifier(epochs=cnn_epochs, seed=seed),
}


def make_model(kind: str, seed: int = 0, cnn_epochs: int = EPOCHS):
    """Instantiate a classifier with its published default settings."""
    if kind not in MODELS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(MODELS)}")
    return MODELS[kind](seed, cnn_epochs)
