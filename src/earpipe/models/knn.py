"""Brute-force k-nearest-neighbor voting with deterministic tie handling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import majority_vote, training_set
from .svm import squared_distances


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5


class KnnClassifier:
    def __init__(self, config: KnnConfig = KnnConfig()):
        if config.k < 1:
            raise ValueError("k must be at least 1")
        self.config = config
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KnnClassifier":
        x, y = training_set(x, y)
        if len(x) < self.config.k:
            raise ValueError(f"need at least k={self.config.k} training points")
        self._x = x.copy()
        self._y = y.copy()
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("classifier is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        d2 = squared_distances(x, self._x)
        # stable sort so equal distances resolve to the earlier training row
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.config.k]
        return majority_vote(self._y[nearest])
