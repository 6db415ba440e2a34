"""Classifiers trained from scratch: kernel SVM, KNN, random forest, 1-D CNN."""

from .svm import SvmClassifier, SvmConfig
from .knn import KnnClassifier, KnnConfig
from .forest import RandomForestClassifier, ForestConfig
from .cnn import Cnn1d, CnnConfig, CnnClassifier, TrainConfig, focal_loss
from .store import MODEL_CLASSES, save_model, load_model


def make_model(kind: str, seed: int = 0):
    """Instantiate a classifier with its published default settings."""
    if kind == "svm":
        return SvmClassifier(SvmConfig())
    if kind == "knn":
        return KnnClassifier(KnnConfig())
    if kind == "rfc":
        return RandomForestClassifier(ForestConfig(seed=seed))
    if kind == "cnn":
        return CnnClassifier(train=TrainConfig(seed=seed))
    raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(MODEL_CLASSES)}")
