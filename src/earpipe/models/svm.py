"""RBF-kernel support vector machine solved by sequential minimal optimization.

The dual problem, minimise 1/2 a'Qa - sum(a) with Q = yy' * K, 0 <= a <= C
and y'a = 0, is driven to the stopping tolerance by repeatedly picking the
most-violating pair (i, j) of multipliers (first-order selection over the
gradient) and taking one clipped step along y_i e_i - y_j e_j, the direction
that keeps y'a fixed (Platt 1998; Fan, Chen & Lin 2005).  Along it the
objective falls with slope -gap, the pair's KKT violation, and curves by
K_ii + K_jj - 2 K_ij whatever the labels, so the exact minimiser is
t = gap / curvature, cut short where either multiplier meets 0 or C.
Labels are handled internally as -1/+1; the public interface speaks 0/1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .forest import training_set

_TINY = 1e-12  # multipliers this close to 0 or C count as at the bound
MAX_ITER = 200_000  # SMO steps before fit gives up on the tolerance and warns


@dataclass(frozen=True)
class SvmConfig:
    c: float = 20.0
    gamma: float = 0.5
    tol: float = 1e-3


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_i - b_j||^2 for all pairs, expanded as a^2 + b^2 - 2ab, which
    rounding can leave slightly below 0."""
    a2 = np.sum(a**2, axis=1)[:, None]
    b2 = np.sum(b**2, axis=1)[None, :]
    return a2 + b2 - 2.0 * (a @ b.T)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for all pairs."""
    return np.exp(-gamma * np.maximum(squared_distances(a, b), 0.0))


def _violations(
    alpha: np.ndarray, ys: np.ndarray, grad: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-y * grad, and which multipliers can still move up or down along y.

    ``up`` marks the multipliers whose y * alpha can grow (alpha below C for
    y = +1, above 0 for y = -1), ``low`` those whose y * alpha can shrink.
    """
    viol = -ys * grad
    up = np.where(ys > 0, alpha < c - _TINY, alpha > _TINY)
    low = np.where(ys > 0, alpha > _TINY, alpha < c - _TINY)
    return viol, up, low


class SvmClassifier:
    def __init__(self, config: SvmConfig = SvmConfig()):
        self.config = config
        self.alpha: np.ndarray | None = None
        self.b: float = 0.0
        self.support_: np.ndarray | None = None
        self._sv_x: np.ndarray | None = None
        self._sv_coef: np.ndarray | None = None  # alpha_i * y_i at the support vectors

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SvmClassifier":
        x, y01 = training_set(x, y)
        if len(np.unique(y01)) < 2:
            raise ValueError("fit needs both classes 0 and 1 present")
        ys = np.where(y01 == 1, 1.0, -1.0)
        c = self.config.c
        kernel = rbf_kernel(x, x, self.config.gamma)

        alpha = np.zeros(len(ys))
        grad = -np.ones(len(ys))  # gradient of 1/2 a'Qa - sum(a), Q = yy' * K

        for _ in range(MAX_ITER):
            viol, up, low = _violations(alpha, ys, grad, c)
            if not up.any() or not low.any():
                break
            up_vals = np.where(up, viol, -np.inf)
            low_vals = np.where(low, viol, np.inf)
            i = int(np.argmax(up_vals))
            j = int(np.argmin(low_vals))
            gap = up_vals[i] - low_vals[j]
            if gap <= self.config.tol:
                break

            curvature = max(kernel[i, i] + kernel[j, j] - 2 * kernel[i, j], _TINY)
            room_i = c - alpha[i] if ys[i] > 0 else alpha[i]
            room_j = alpha[j] if ys[j] > 0 else c - alpha[j]
            t = min(gap / curvature, room_i, room_j)  # the clip below only absorbs rounding
            old_i, old_j = alpha[i], alpha[j]
            alpha[i] = min(max(old_i + ys[i] * t, 0.0), c)
            alpha[j] = min(max(old_j - ys[j] * t, 0.0), c)
            grad += ys * (kernel[:, i] * (ys[i] * (alpha[i] - old_i))
                          + kernel[:, j] * (ys[j] * (alpha[j] - old_j)))
        else:
            warnings.warn("SMO hit the iteration cap before reaching tolerance", stacklevel=2)

        # bias from the final violation bounds (midpoint of the KKT interval)
        viol, up, low = _violations(alpha, ys, grad, c)
        m_up = viol[up].max() if up.any() else 0.0
        m_low = viol[low].min() if low.any() else 0.0
        self.b = float((m_up + m_low) / 2.0)

        self.alpha = alpha
        keep = alpha > _TINY
        self.support_ = np.where(keep)[0]
        self._sv_x = x[keep].copy()
        self._sv_coef = (alpha * ys)[keep]
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        if self._sv_x is None:
            raise RuntimeError("classifier is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        k = rbf_kernel(x, self._sv_x, self.config.gamma)
        return k @ self._sv_coef + self.b

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.decision_function(x) >= 0.0).astype(int)
