"""Brute-force k-nearest-neighbor voting with deterministic tie handling."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .forest import majority_vote


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
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=int)
        if len(x) < self.config.k:
            raise ValueError(f"need at least k={self.config.k} training points")
        self._x = x.copy()
        self._y = y.copy()
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("classifier is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        a2 = np.sum(x**2, axis=1)[:, None]
        b2 = np.sum(self._x**2, axis=1)[None, :]
        d2 = a2 + b2 - 2.0 * (x @ self._x.T)
        # stable sort so equal distances resolve to the earlier training row
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.config.k]
        return majority_vote(self._y[nearest])

    def state(self) -> tuple[dict, list[np.ndarray]]:
        """Header fields and arrays from which :meth:`from_state` rebuilds the model."""
        if self._x is None:
            raise ValueError("cannot save an unfitted model")
        return {"config": asdict(self.config)}, [self._x, self._y.astype(np.float64)]

    @classmethod
    def from_state(cls, header: dict, arrays: list[np.ndarray]) -> "KnnClassifier":
        model = cls(KnnConfig(**header["config"]))
        model._x = arrays[0]
        model._y = arrays[1].ravel().astype(int)
        return model
