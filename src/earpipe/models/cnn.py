"""1-D convolutional network with focal loss, written on bare numpy.

Three conv/ReLU/maxpool stages feed a small fully connected stack; training
uses Adam on a class-weighted focal loss so the rare seizure class is not
drowned out.  Layer widths are configurable because the finite-difference
gradient check runs on a shrunken copy of the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .forest import query_rows, training_set


@dataclass(frozen=True)
class CnnConfig:
    """Layer geometry of :class:`Cnn1d`.

    ``in_channels`` and ``input_len`` fix the window shape a network built
    directly accepts; :meth:`CnnClassifier.fit` replaces both with the shape
    of its training windows, so the defaults (six channels, 10 s at 250 Hz)
    bind only a network built without one.  A length that the pooling
    stages shrink to nothing is rejected.
    """

    in_channels: int = 6
    input_len: int = 2500
    conv_filters: tuple[int, ...] = (32, 64, 128)
    kernel: int = 3
    pool: int = 2
    fc_units: tuple[int, ...] = (128, 128, 64)
    n_classes: int = 2
    dropout: float = 0.5

    def __post_init__(self) -> None:
        if self.conv_output_len() < 1:
            raise ValueError(
                f"input_len {self.input_len} leaves no samples after "
                f"{len(self.conv_filters)} pooling stages of {self.pool}"
            )

    def conv_output_len(self) -> int:
        length = self.input_len
        for _ in self.conv_filters:
            length = length // self.pool
        return length


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
LR = 1e-3  # Adam's step size
BATCH_SIZE = 32  # training windows per Adam step
EPOCHS = 350  # passes over the training windows unless the caller asks for fewer
FOCAL_GAMMA = 2.0  # the focusing exponent training uses
VAL_FRACTION = 0.2  # share of the training windows held out for validation loss


def focal_alpha(counts: np.ndarray) -> np.ndarray:
    """Class weights inversely proportional to frequency, summing to one."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts <= 0):
        raise ValueError("every class needs at least one example")
    w = 1.0 / counts
    return w / w.sum()


def focal_loss(
    logits: np.ndarray,
    targets: np.ndarray,
    alpha: np.ndarray,
    gamma: float = FOCAL_GAMMA,
) -> tuple[float, np.ndarray]:
    """Mean focal loss and its gradient with respect to the logits.

    loss_i = -alpha[t_i] * (1 - p_t)**gamma * log(p_t), with p the softmax
    of the logits.  gamma = 0 recovers weighted cross-entropy.
    """
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    n = len(targets)
    rows = np.arange(n)
    pt = np.clip(p[rows, targets], 1e-12, 1.0)
    at = alpha[targets]
    one_minus = 1.0 - pt
    loss = float(np.mean(-at * one_minus**gamma * np.log(pt)))

    # dL/dp_t, then through the softmax jacobian row for the target class
    if gamma == 0.0:
        dpt = -at / pt
    else:
        dpt = at * (gamma * one_minus ** (gamma - 1) * np.log(pt) - one_minus**gamma / pt)
    dlogits = p * (dpt * pt)[:, None]
    dlogits[rows, targets] -= dpt * pt
    dlogits *= -1.0 / n
    return loss, dlogits


def _he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


class Cnn1d:
    """Forward/backward passes over a parameter dictionary."""

    def __init__(self, config: CnnConfig = CnnConfig(), seed: int = 0):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        self.params: dict[str, np.ndarray] = {}
        c_in = config.in_channels
        for i, f in enumerate(config.conv_filters):
            fan_in = c_in * config.kernel
            self.params[f"conv{i}_w"] = _he_init(rng, (f, c_in, config.kernel), fan_in)
            self.params[f"conv{i}_b"] = np.zeros(f)
            c_in = f
        fan_in = config.conv_filters[-1] * config.conv_output_len()
        for i, units in enumerate(config.fc_units):
            self.params[f"fc{i}_w"] = _he_init(rng, (units, fan_in), fan_in)
            self.params[f"fc{i}_b"] = np.zeros(units)
            fan_in = units
        self.params["out_w"] = _he_init(rng, (config.n_classes, fan_in), fan_in)
        self.params["out_b"] = np.zeros(config.n_classes)

    # -- forward ----------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        train: bool = False,
        drop_rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, dict]:
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != cfg.in_channels or x.shape[2] != cfg.input_len:
            raise ValueError(
                f"expected (batch, {cfg.in_channels}, {cfg.input_len}), got {x.shape}"
            )
        cache: dict = {"x": x}
        a = x
        pad = cfg.kernel // 2
        for i in range(len(cfg.conv_filters)):
            w = self.params[f"conv{i}_w"]
            ap = np.pad(a, ((0, 0), (0, 0), (pad, pad)))
            windows = np.lib.stride_tricks.sliding_window_view(ap, cfg.kernel, axis=2)
            z = np.einsum("bclk,fck->bfl", windows, w, optimize=True)
            z += self.params[f"conv{i}_b"][None, :, None]
            relu_mask = z > 0
            a = z * relu_mask
            crop = a.shape[2] // cfg.pool * cfg.pool
            pooled = a[:, :, :crop].reshape(a.shape[0], a.shape[1], -1, cfg.pool)
            idx = pooled.argmax(axis=3)
            cache[f"conv{i}"] = (ap, relu_mask, idx, a.shape[2])
            a = np.take_along_axis(pooled, idx[..., None], axis=3)[..., 0]
        batch = a.shape[0]
        a = a.reshape(batch, -1)
        for i in range(len(cfg.fc_units)):
            w = self.params[f"fc{i}_w"]
            z = a @ w.T + self.params[f"fc{i}_b"]
            relu_mask = z > 0
            h = z * relu_mask
            if train and cfg.dropout > 0 and i < 2:
                if drop_rng is None:
                    raise ValueError("training forward pass needs a dropout rng")
                mask = (drop_rng.random(h.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
                h = h * mask
            else:
                mask = None
            cache[f"fc{i}"] = (a, relu_mask, mask)
            a = h
        cache["out_in"] = a
        logits = a @ self.params["out_w"].T + self.params["out_b"]
        return logits, cache

    # -- backward ---------------------------------------------------------

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        cfg = self.config
        grads: dict[str, np.ndarray] = {}
        a = cache["out_in"]
        grads["out_w"] = dlogits.T @ a
        grads["out_b"] = dlogits.sum(axis=0)
        da = dlogits @ self.params["out_w"]

        for i in reversed(range(len(cfg.fc_units))):
            a_in, relu_mask, mask = cache[f"fc{i}"]
            if mask is not None:
                da = da * mask
            dz = da * relu_mask
            grads[f"fc{i}_w"] = dz.T @ a_in
            grads[f"fc{i}_b"] = dz.sum(axis=0)
            da = dz @ self.params[f"fc{i}_w"]

        batch = da.shape[0]
        length = cfg.conv_output_len()
        da = da.reshape(batch, cfg.conv_filters[-1], length)

        pad = cfg.kernel // 2
        for i in reversed(range(len(cfg.conv_filters))):
            ap, relu_mask, idx, pre_pool_len = cache[f"conv{i}"]
            w = self.params[f"conv{i}_w"]
            # un-pool: route each gradient to the argmax position
            dpost = np.zeros((batch, da.shape[1], pre_pool_len))
            crop = pre_pool_len // cfg.pool * cfg.pool
            dpooled = np.zeros((batch, da.shape[1], crop // cfg.pool, cfg.pool))
            np.put_along_axis(dpooled, idx[..., None], da[..., None], axis=3)
            dpost[:, :, :crop] = dpooled.reshape(batch, da.shape[1], crop)
            dz = dpost * relu_mask
            windows = np.lib.stride_tricks.sliding_window_view(ap, cfg.kernel, axis=2)
            grads[f"conv{i}_w"] = np.einsum("bfl,bclk->fck", dz, windows, optimize=True)
            grads[f"conv{i}_b"] = dz.sum(axis=(0, 2))
            dap = np.zeros_like(ap)
            for k in range(cfg.kernel):
                dap[:, :, k:k + dz.shape[2]] += np.einsum("bfl,fc->bcl", dz, w[:, :, k], optimize=True)
            da = dap[:, :, pad:ap.shape[2] - pad] if pad else dap
        return grads


class Adam:
    def __init__(self, params: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for k in params:
            g = grads[k]
            self.m[k] = ADAM_BETA1 * self.m[k] + (1 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1 - ADAM_BETA2) * g**2
            m_hat = self.m[k] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[k] / (1 - ADAM_BETA2**self.t)
            params[k] -= LR * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    alpha: np.ndarray | None = None
    epochs_run: int = 0


class CnnClassifier:
    """Trains :class:`Cnn1d` on raw multichannel windows (not features)."""

    def __init__(self, config: CnnConfig = CnnConfig(), epochs: int = EPOCHS, seed: int = 0):
        self.config = config
        self.epochs = epochs
        self.seed = seed
        self.net: Cnn1d | None = None
        self.report = TrainReport()

    def fit(self, windows: np.ndarray, y: np.ndarray) -> "CnnClassifier":
        windows, y = training_set(windows, y, ndim=3)
        self.config = replace(self.config, in_channels=windows.shape[1], input_len=windows.shape[2])
        seeds = np.random.SeedSequence(self.seed).spawn(4)
        self.net = Cnn1d(self.config, seed=self.seed)
        split_rng = np.random.default_rng(seeds[0])
        drop_rng = np.random.default_rng(seeds[1])
        epoch_rng = np.random.default_rng(seeds[2])

        order = split_rng.permutation(len(y))
        n_val = int(round(VAL_FRACTION * len(order)))
        val_idx = order[:n_val]
        train_idx = order[n_val:]
        if len(train_idx) == 0 or len(np.unique(y[train_idx])) < 2:
            raise ValueError("training split ended up without both classes")

        alpha = focal_alpha(np.bincount(y[train_idx], minlength=self.config.n_classes))
        self.report = TrainReport(alpha=alpha)
        opt = Adam(self.net.params)

        for _ in range(self.epochs):
            perm = epoch_rng.permutation(train_idx)
            losses = []
            for lo in range(0, len(perm), BATCH_SIZE):
                batch = perm[lo:lo + BATCH_SIZE]
                logits, cache = self.net.forward(windows[batch], train=True, drop_rng=drop_rng)
                loss, dlogits = focal_loss(logits, y[batch], alpha, FOCAL_GAMMA)
                grads = self.net.backward(cache, dlogits)
                opt.step(self.net.params, grads)
                losses.append(loss)
            self.report.train_loss.append(float(np.mean(losses)))
            if len(val_idx):
                logits, _ = self.net.forward(windows[val_idx])
                val, _ = focal_loss(logits, y[val_idx], alpha, FOCAL_GAMMA)
                self.report.val_loss.append(val)
            self.report.epochs_run += 1
        return self

    def predict(self, windows: np.ndarray) -> np.ndarray:
        if self.net is None:
            raise RuntimeError("classifier is not fitted")
        windows = query_rows(windows, None)
        out = []
        for lo in range(0, len(windows), 256):
            logits, _ = self.net.forward(windows[lo:lo + 256])
            out.append(np.argmax(logits, axis=1))
        return np.concatenate(out) if out else np.zeros(0, dtype=int)
