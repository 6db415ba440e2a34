"""Random forest of Gini-greedy decision trees, grown from scratch.

Each tree sees a bootstrap resample of the training set and, at every
split, a fresh random subset of ceil(sqrt(d)) features.  Candidate
thresholds are midpoints between consecutive unique values.  All
randomness flows from one seed, so a forest is reproducible bit for bit.
A tree is grown and walked as one node table: a row per node in
preorder, ``[feature, threshold, left row, right row, class]``, with class
-1 on inner nodes.

The split search scores every cut of the chosen features at once: one
stable sort of their columns, one cumulative count of class 1, then the
weighted Gini of each cut with the same operations in the same order as the
per-cut loop the tests keep as a reference, so every score has its bits.
Cuts are visited feature by feature, and a cut wins only when its score
beats the best so far by more than 1e-12, which is not an argmin.  ``_scan``
finds that winner from a running minimum of the scores (its docstring says
why that is exact) and steps in Python only through the few cuts that
minimum cannot settle, so the search stays linear in the number of cuts.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def training_set(x: np.ndarray, y: np.ndarray, ndim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as float rows and ``y`` as int labels, once they make a training set.

    Rejects an empty set, shapes other than an ``ndim``-D x of n rows and n
    labels, a NaN or infinite value in x, and labels outside {0, 1}.  A row
    is a feature vector, or the CNN's channels x samples window.  Labels are
    checked before the cast, so 0.5 is rejected, not truncated.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != ndim or y.ndim != 1 or len(x) != len(y):
        raise ValueError(
            f"fit needs a {ndim}-D x of n rows and y of n labels, got x of shape {x.shape} "
            f"and y of shape {y.shape}"
        )
    if not len(y):
        raise ValueError("fit needs at least one training row, got 0")
    bad = np.count_nonzero(~np.isfinite(x))
    if bad:
        raise ValueError(f"fit needs finite x: {bad} of {x.size} values are NaN or infinite")
    outside = np.setdiff1d(y, [0, 1])
    if outside.size:
        raise ValueError(f"fit needs labels in {{0, 1}}, got {outside.tolist()}")
    return x, y.astype(int)


def _scan(scores: np.ndarray, start: float) -> tuple[int, float]:
    """Index and value of the score that a scan in order keeps last, or (-1, start).

    The scan starts from ``start`` and keeps a score only when it lies more
    than 1e-12 below the best kept so far.  Its best before score j lies in
    [low[j], low[j] + 1e-12], low being the running minimum of ``start`` and
    the scores before j.  So a score below low[j] - 1e-12 is always kept and
    one at or above low[j] never is: the scan runs in Python only after the
    last sure keep, over the scores that set a new running minimum.
    """
    low = np.minimum.accumulate(np.concatenate(([start], scores)))[:-1]
    sure = np.flatnonzero(scores < low - 1e-12)
    at, best = (int(sure[-1]), scores[sure[-1]]) if sure.size else (-1, start)
    for j in np.flatnonzero(scores[at + 1:] < low[at + 1:]) + at + 1:
        if scores[j] < best - 1e-12:
            at, best = int(j), scores[j]
    return at, best


def _best_split(x: np.ndarray, y: np.ndarray, feat_ids: np.ndarray) -> tuple[int, float, float]:
    """Greedy (feature, threshold) minimizing weighted child impurity.

    Every cut of every feature is scored at once, from one sort and one
    cumulative count; :func:`_scan` then picks the cut a per-cut scan keeps,
    visiting features in ``feat_ids`` order and each one's cuts in sorted order.
    """
    n = len(y)
    cols = x[:, feat_ids]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    ones = np.cumsum(y[order] == 1, axis=0)
    # cut c puts the first c + 1 sorted rows on the left
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    l1 = ones[:-1]
    r1 = ones[-1] - l1
    pl = l1 / n_left
    pr = r1 / n_right
    scores = (n_left * 2 * pl * (1 - pl) + n_right * 2 * pr * (1 - pr)) / n
    scores[np.diff(xs, axis=0) == 0] = np.inf  # no threshold between equal values
    feature_cut, best_score = _scan(scores.T.ravel(), gini(y))  # feature, then cut
    if feature_cut < 0:
        return (-1, 0.0, best_score)
    f, cut = divmod(feature_cut, n - 1)
    return (int(feat_ids[f]), float((xs[cut, f] + xs[cut + 1, f]) / 2.0), best_score)


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
        # split scores count class 1 against the rest, which is Gini only for two classes
        x, y = training_set(x, y)
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
