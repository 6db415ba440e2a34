"""RBF-kernel support vector machine solved by sequential minimal optimization.

The dual problem is driven to the stopping tolerance by repeatedly picking
the most-violating pair of multipliers (first-order selection over the
gradient) and solving that two-variable subproblem in closed form, with box
clipping.  Labels are handled internally as -1/+1; the public interface
speaks 0/1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .forest import training_set


@dataclass(frozen=True)
class SvmConfig:
    c: float = 20.0
    gamma: float = 0.5
    tol: float = 1e-3
    max_iter: int = 200_000


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for all pairs."""
    a2 = np.sum(a**2, axis=1)[:, None]
    b2 = np.sum(b**2, axis=1)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * (a @ b.T), 0.0)
    return np.exp(-gamma * d2)


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
        n = len(ys)
        c = self.config.c
        kernel = rbf_kernel(x, x, self.config.gamma)
        q = kernel * np.outer(ys, ys)

        alpha = np.zeros(n)
        grad = -np.ones(n)  # gradient of 1/2 a'Qa - sum(a)
        tiny = 1e-12

        for it in range(self.config.max_iter):
            viol = -ys * grad
            up = ((ys > 0) & (alpha < c - tiny)) | ((ys < 0) & (alpha > tiny))
            low = ((ys < 0) & (alpha < c - tiny)) | ((ys > 0) & (alpha > tiny))
            if not up.any() or not low.any():
                break
            up_vals = np.where(up, viol, -np.inf)
            low_vals = np.where(low, viol, np.inf)
            i = int(np.argmax(up_vals))
            j = int(np.argmin(low_vals))
            m_up, m_low = up_vals[i], low_vals[j]
            if m_up - m_low <= self.config.tol:
                break

            old_i, old_j = alpha[i], alpha[j]
            if ys[i] != ys[j]:
                quad = max(kernel[i, i] + kernel[j, j] + 2 * kernel[i, j], tiny)
                delta = (-grad[i] - grad[j]) / quad
                diff = alpha[i] - alpha[j]
                alpha[i] += delta
                alpha[j] += delta
                if diff > 0 and alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = diff
                elif diff <= 0 and alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
                if diff > 0 and alpha[i] > c:
                    alpha[i] = c
                    alpha[j] = c - diff
                elif diff <= 0 and alpha[j] > c:
                    alpha[j] = c
                    alpha[i] = c + diff
            else:
                quad = max(kernel[i, i] + kernel[j, j] - 2 * kernel[i, j], tiny)
                delta = (grad[i] - grad[j]) / quad
                total = alpha[i] + alpha[j]
                alpha[i] -= delta
                alpha[j] += delta
                if total > c and alpha[i] > c:
                    alpha[i] = c
                    alpha[j] = total - c
                elif total <= c and alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = total
                if total > c and alpha[j] > c:
                    alpha[j] = c
                    alpha[i] = total - c
                elif total <= c and alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = total
            grad += q[:, i] * (alpha[i] - old_i) + q[:, j] * (alpha[j] - old_j)
        else:
            warnings.warn("SMO hit the iteration cap before reaching tolerance", stacklevel=2)

        # bias from the final violation bounds (midpoint of the KKT interval)
        viol = -ys * grad
        up = ((ys > 0) & (alpha < c - tiny)) | ((ys < 0) & (alpha > tiny))
        low = ((ys < 0) & (alpha < c - tiny)) | ((ys > 0) & (alpha > tiny))
        m_up = viol[up].max() if up.any() else 0.0
        m_low = viol[low].min() if low.any() else 0.0
        self.b = float((m_up + m_low) / 2.0)

        self.alpha = alpha
        keep = alpha > tiny
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

    def state(self) -> tuple[dict, list[np.ndarray]]:
        """Header fields and arrays from which :meth:`from_state` rebuilds the model."""
        if self._sv_x is None:
            raise ValueError("cannot save an unfitted model")
        cfg = self.config
        header = {"config": {"c": cfg.c, "gamma": cfg.gamma, "tol": cfg.tol}, "b": self.b}
        return header, [self._sv_x, self._sv_coef]

    @classmethod
    def from_state(cls, header: dict, arrays: list[np.ndarray]) -> "SvmClassifier":
        model = cls(SvmConfig(**header["config"]))
        model._sv_x, model._sv_coef = arrays[0], arrays[1].ravel()
        model.b = float(header["b"])
        model.support_ = np.arange(len(model._sv_x))
        return model
