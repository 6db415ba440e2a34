"""Random forest of Gini-greedy decision trees, grown from scratch.

Each tree sees a bootstrap resample of the training set and, at every
split, a fresh random subset of ceil(sqrt(d)) features.  Candidate
thresholds are midpoints between consecutive unique values.  All
randomness flows from one seed, so a forest is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 10
    max_depth: int = 100
    seed: int = 0


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    klass: int = -1  # leaf prediction when >= 0

    @property
    def is_leaf(self) -> bool:
        return self.klass >= 0


def gini(labels: np.ndarray) -> float:
    counts = np.bincount(labels)
    p = counts / labels.size
    return float(1.0 - np.sum(p**2))


def _majority(labels: np.ndarray) -> int:
    # ties fall to the lower class id via argmax
    return int(np.argmax(np.bincount(labels)))


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
        self.root: _Node | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTree":
        self.n_features = x.shape[1]
        self.m_features = int(np.ceil(np.sqrt(self.n_features)))
        self.root = self._grow(x, y, depth=0)
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        if depth >= self.max_depth or len(np.unique(y)) == 1 or len(y) < 2:
            return _Node(klass=_majority(y))
        feat_ids = np.sort(self.rng.choice(self.n_features, self.m_features, replace=False))
        feature, threshold, _ = _best_split(x, y, feat_ids)
        if feature < 0:
            return _Node(klass=_majority(y))
        mask = x[:, feature] <= threshold
        if not mask.any() or mask.all():
            return _Node(klass=_majority(y))
        return _Node(
            feature=feature,
            threshold=threshold,
            left=self._grow(x[mask], y[mask], depth + 1),
            right=self._grow(x[~mask], y[~mask], depth + 1),
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(len(x), dtype=int)
        for i, row in enumerate(x):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.klass
        return out

    def to_matrix(self) -> np.ndarray:
        """Preorder rows of [feature, threshold, left row, right row, class]."""
        rows: list[list[float]] = []

        def walk(node: _Node) -> int:
            my_id = len(rows)
            rows.append([0.0] * 5)
            if node.is_leaf:
                rows[my_id] = [-1.0, 0.0, -1.0, -1.0, float(node.klass)]
            else:
                left_id = walk(node.left)
                right_id = walk(node.right)
                rows[my_id] = [
                    float(node.feature), node.threshold, float(left_id), float(right_id), -1.0
                ]
            return my_id

        walk(self.root)
        return np.array(rows)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, max_depth: int) -> "DecisionTree":
        def build(idx: int) -> _Node:
            feature, threshold, left, right, klass = matrix[idx]
            if klass >= 0:
                return _Node(klass=int(klass))
            return _Node(
                feature=int(feature),
                threshold=float(threshold),
                left=build(int(left)),
                right=build(int(right)),
            )

        tree = cls(max_depth=max_depth)
        tree.root = build(0)
        return tree


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
        votes = np.stack([t.predict(x) for t in self.trees])
        out = np.empty(len(x), dtype=int)
        for i in range(len(x)):
            out[i] = int(np.argmax(np.bincount(votes[:, i])))
        return out

    def state(self) -> tuple[dict, list[np.ndarray]]:
        """Header fields and arrays from which :meth:`from_state` rebuilds the model."""
        if not self.trees:
            raise ValueError("cannot save an unfitted model")
        return {"config": asdict(self.config)}, [t.to_matrix() for t in self.trees]

    @classmethod
    def from_state(cls, header: dict, arrays: list[np.ndarray]) -> "RandomForestClassifier":
        model = cls(ForestConfig(**header["config"]))
        model.trees = [DecisionTree.from_matrix(m, model.config.max_depth) for m in arrays]
        return model
