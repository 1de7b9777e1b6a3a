"""Feed-forward network trained by error backpropagation.

Hidden layers use the logistic sigmoid, the single output is linear.
Training is plain stochastic gradient descent on squared error with a
seeded per-epoch shuffle, so a given (data, config, seed) triple always
produces the bit-identical model.  Inputs are z-scored and the target is
min-max scaled to [0, 1] before training; predictions are mapped back to
ppm on the way out.

`mlp_train` runs its per-sample steps inline under one `np.errstate`,
since numpy's per-call overhead, not arithmetic, bounds a one-row step.
Its weights, biases and loss trace are bit for bit those of one
`loss_and_grads` call per step, the batch form the central-difference
gradient check covers: every sum over more than one product stays the
same matmul, and the other steps act on single products, exact in any
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preprocess import Standardizer, fit_standardizer

LOSS_IMPROVEMENT_FLOOR = 1e-9


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_layers: tuple[int, ...] = (16,)
    lr: float = 0.01
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or any(h < 1 for h in self.hidden_layers):
            raise ValueError("layer sizes must be >= 1")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class MlpModel:
    weights: tuple[np.ndarray, ...]   # per layer, shape (fan_in, fan_out)
    biases: tuple[np.ndarray, ...]
    standardizer: Standardizer
    target_min: float
    target_scale: float
    loss_trace: np.ndarray
    config: MlpConfig


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp is only taken of -|z|.

    `minimum(z, -z)` rather than `-abs(z)` keeps the sign of a nan input,
    so every output bit, nan included, equals that of the two-branch form
    1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) otherwise.
    """
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def init_layers(config: MlpConfig):
    """Uniform +-1/sqrt(fan_in) weights, zero biases, from the seeded RNG."""
    rng = np.random.default_rng(config.seed)
    sizes = (config.input_dim, *config.hidden_layers, 1)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward(weights, biases, x: np.ndarray):
    """Activations per layer for a batch; last layer is linear."""
    acts = [x]
    a = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        a = z if i == last else sigmoid(z)
        acts.append(a)
    return acts


def loss_and_grads(weights, biases, x: np.ndarray, y: np.ndarray):
    """Mean squared-error loss 0.5*(yhat-y)^2 over a batch, with gradients.

    On a one-row batch this is the step `mlp_train` inlines.
    """
    x = np.atleast_2d(x)
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        acts = _forward(weights, biases, x)
        yhat = acts[-1]
        diff = yhat - y
        loss = float(0.5 * np.mean(diff**2))

        grads_w = [np.zeros_like(w) for w in weights]
        grads_b = [np.zeros_like(b) for b in biases]
        delta = diff / n
        for layer in reversed(range(len(weights))):
            grads_w[layer] = acts[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                a_prev = acts[layer]
                delta = (delta @ weights[layer].T) * a_prev * (1.0 - a_prev)
    return loss, grads_w, grads_b


def mlp_train(x, targets_ppm, config: MlpConfig) -> MlpModel:
    """Stochastic gradient descent until the epoch limit or a loss plateau."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.asarray(targets_ppm, dtype=float)
    if x.shape[0] < 1:
        raise ValueError("training set is empty")
    if x.shape[0] != t.size:
        raise ValueError("targets do not match the training matrix")
    if not np.all(np.isfinite(t)):
        raise ValueError("targets must be finite")
    if x.shape[1] != config.input_dim:
        raise ValueError(f"config expects input_dim={config.input_dim}, "
                         f"data has {x.shape[1]}")

    std = fit_standardizer(x)
    xs = std.transform(x)
    t_min = float(t.min())
    t_scale = float(t.max() - t.min()) or 1.0
    ys = (t - t_min) / t_scale

    weights, biases = init_layers(config)
    rng = np.random.default_rng(config.seed)
    n = xs.shape[0]
    lr = config.lr
    rows = [xs[i:i + 1] for i in range(n)]
    targets = ys.tolist()
    trace = []
    prev = None
    # overflow on a diverging run produces inf, which the epoch check
    # turns into an abort with diagnostics
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            total = 0.0
            for i in rng.permutation(n).tolist():
                acts = _forward(weights, biases, rows[i])
                delta = acts[-1] - targets[i]
                d = delta.item()
                # d * d is numpy's square; d ** 2 goes through pow(), which
                # rounds differently for about 1 in 1000 values
                total += 0.5 * (d * d)
                for layer in reversed(range(len(weights))):
                    w, a = weights[layer], acts[layer]
                    grad_w = a.T @ delta
                    # delta[0] differs from the batch sum delta.sum(axis=0)
                    # only in the sign of a zero, and a bias is never -0.0
                    biases[layer] -= lr * delta[0]
                    if layer > 0:
                        delta = (delta @ w.T) * a * (1.0 - a)
                    w -= lr * grad_w
            epoch_loss = total / n
            if not np.isfinite(epoch_loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch} "
                    f"(lr={config.lr}, hidden={config.hidden_layers})")
            trace.append(epoch_loss)
            # plateau: epoch-mean loss no longer moving (stochastic jitter on
            # a noisy task keeps |change| above the floor, so this fires on
            # convergence rather than on a single worsening epoch)
            if prev is not None and abs(prev - epoch_loss) < LOSS_IMPROVEMENT_FLOOR:
                break
            prev = epoch_loss

    return MlpModel(
        weights=tuple(w.copy() for w in weights),
        biases=tuple(b.copy() for b in biases),
        standardizer=std,
        target_min=t_min,
        target_scale=t_scale,
        loss_trace=np.array(trace),
        config=config,
    )


def mlp_forward(model: MlpModel, x) -> np.ndarray:
    """Predicted concentration in ppm for one sample or a batch."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.config.input_dim:
        raise ValueError(f"expected {model.config.input_dim} inputs, got {x.shape[1]}")
    xs = model.standardizer.transform(x)
    out = _forward(list(model.weights), list(model.biases), xs)[-1][:, 0]
    return out * model.target_scale + model.target_min


def evaluate_regression(model: MlpModel, x, targets_ppm) -> dict:
    """rmse/mae in ppm plus r2 against the test-set target variance."""
    t = np.asarray(targets_ppm, dtype=float)
    if t.size == 0:
        raise ValueError("empty test set")
    preds = mlp_forward(model, x)
    err = preds - t
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    sst = float(np.sum((t - t.mean()) ** 2))
    r2 = None if sst == 0.0 else 1.0 - float(np.sum(err**2)) / sst
    return {"rmse_ppm": rmse, "mae_ppm": mae, "r2": r2}
