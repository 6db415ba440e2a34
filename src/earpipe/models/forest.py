"""Random forest of Gini-greedy decision trees, grown from scratch.

Each tree sees a bootstrap resample of the training set and, at every
split, a fresh random subset of ceil(sqrt(d)) features.  Candidate
thresholds are midpoints between consecutive unique values.  All
randomness flows from one seed, so a forest is reproducible bit for bit.
A tree is grown, walked and saved as one node table: a row per node in
preorder, ``[feature, threshold, left row, right row, class]``, with class
-1 on inner nodes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 10
    max_depth: int = 100
    seed: int = 0


def gini(labels: np.ndarray) -> float:
    counts = np.bincount(labels)
    p = counts / labels.size
    return float(1.0 - np.sum(p**2))


def majority_vote(votes: np.ndarray) -> np.ndarray:
    """Most frequent of the non-negative labels along the last axis.

    Ties fall to the lower label, as ``argmax(bincount(row))`` breaks them.
    """
    counts = (votes[..., None] == np.arange(votes.max(initial=0) + 1)).sum(axis=-2)
    return counts.argmax(axis=-1)


def _best_split(x: np.ndarray, y: np.ndarray, feat_ids: np.ndarray) -> tuple[int, float, float]:
    """Greedy (feature, threshold) minimizing weighted child impurity."""
    n = len(y)
    best = (-1, 0.0, gini(y))
    for f in feat_ids:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        distinct = np.nonzero(np.diff(xs))[0]
        if distinct.size == 0:
            continue
        ones = np.cumsum(ys == 1)
        total_ones = ones[-1]
        for cut in distinct:
            n_left = cut + 1
            n_right = n - n_left
            l1 = ones[cut]
            r1 = total_ones - l1
            pl = l1 / n_left
            pr = r1 / n_right
            score = (n_left * 2 * pl * (1 - pl) + n_right * 2 * pr * (1 - pr)) / n
            if score < best[2] - 1e-12:
                best = (int(f), float((xs[cut] + xs[cut + 1]) / 2.0), score)
    return best


class DecisionTree:
    def __init__(self, max_depth: int = 100, rng: np.random.Generator | None = None):
        self.max_depth = max_depth
        self.rng = rng or np.random.default_rng(0)
        self.nodes: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTree":
        self.n_features = x.shape[1]
        self.m_features = int(np.ceil(np.sqrt(self.n_features)))
        rows: list[list[float]] = []
        self._grow(x, y, 0, rows)
        self.nodes = np.array(rows)
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int, rows: list[list[float]]) -> None:
        """Append the subtree of ``(x, y)`` to ``rows``: its root, then left, then right."""
        feature = -1
        if depth < self.max_depth and len(y) >= 2 and len(np.unique(y)) > 1:
            feat_ids = np.sort(self.rng.choice(self.n_features, self.m_features, replace=False))
            feature, threshold, _ = _best_split(x, y, feat_ids)
        mask = x[:, feature] <= threshold if feature >= 0 else None
        if mask is None or not mask.any() or mask.all():
            rows.append([-1.0, 0.0, -1.0, -1.0, float(majority_vote(y))])
            return
        here = len(rows)
        rows.append([])  # filled in once the left subtree's size is known
        self._grow(x[mask], y[mask], depth + 1, rows)
        right = len(rows)
        self._grow(x[~mask], y[~mask], depth + 1, rows)
        rows[here] = [float(feature), threshold, float(here + 1), float(right), -1.0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        feature, threshold, left, right, klass = self.nodes.T
        feature, left, right, klass = (a.astype(int) for a in (feature, left, right, klass))
        at = np.zeros(len(x), dtype=int)
        walking = np.flatnonzero(klass[at] < 0)
        while walking.size:  # one tree level per pass
            node = at[walking]
            goes_left = x[walking, feature[node]] <= threshold[node]
            at[walking] = np.where(goes_left, left[node], right[node])
            walking = walking[klass[at[walking]] < 0]
        return klass[at]


class RandomForestClassifier:
    def __init__(self, config: ForestConfig = ForestConfig()):
        self.config = config
        self.trees: list[DecisionTree] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=int)
        n = len(y)
        seeds = np.random.SeedSequence(self.config.seed).spawn(self.config.n_trees)
        self.trees = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            pick = rng.integers(0, n, size=n)
            tree = DecisionTree(max_depth=self.config.max_depth, rng=rng)
            tree.fit(x[pick], y[pick])
            self.trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise RuntimeError("classifier is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return majority_vote(np.stack([t.predict(x) for t in self.trees], axis=1))

    def state(self) -> tuple[dict, list[np.ndarray]]:
        """Header fields and arrays from which :meth:`from_state` rebuilds the model."""
        if not self.trees:
            raise ValueError("cannot save an unfitted model")
        return {"config": asdict(self.config)}, [t.nodes for t in self.trees]

    @classmethod
    def from_state(cls, header: dict, arrays: list[np.ndarray]) -> "RandomForestClassifier":
        model = cls(ForestConfig(**header["config"]))
        model.trees = [DecisionTree(model.config.max_depth) for _ in arrays]
        for tree, nodes in zip(model.trees, arrays):
            tree.nodes = nodes
        return model
