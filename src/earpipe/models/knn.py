"""Brute-force k-nearest-neighbor voting with deterministic tie handling."""

from __future__ import annotations

import numpy as np

from .forest import majority_vote, query_rows, training_set
from .svm import squared_distances

K = 5  # neighbours that vote on each query


class KnnClassifier:
    def __init__(self):
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KnnClassifier":
        x, y = training_set(x, y)
        if len(x) < K:
            raise ValueError(f"need at least k={K} training points")
        self._x = x.copy()
        self._y = y.copy()
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("classifier is not fitted")
        x = query_rows(x, self._x.shape[1])
        d2 = squared_distances(x, self._x)
        # stable sort so equal distances resolve to the earlier training row
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :K]
        return majority_vote(self._y[nearest])
