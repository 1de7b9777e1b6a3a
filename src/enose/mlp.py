"""Feed-forward network trained by error backpropagation.

The one hidden layer uses the logistic sigmoid, the single output is linear.
Training is plain stochastic gradient descent on squared error with a
seeded per-epoch shuffle, so a given (data, config, seed) triple always
produces the bit-identical model.  Inputs are z-scored and the target is
min-max scaled to [0, 1] before training; predictions are mapped back to
ppm on the way out.

In the detector chain the inputs are PCA or KPCA scores of features that
`bench.fit_front` has already z-scored, so they are centred, but each
score's variance is its component's eigenvalue, not 1.  The model's own
standardizer rescales them to unit variance.  It stays: without it every
regression artifact and every saved MLP chain changes.

`mlp_train` runs its per-sample steps inline under one `np.errstate`,
since numpy's per-call overhead, not arithmetic, bounds a one-row step.
Each of the two layers keeps one (fan_in + 1, fan_out) block, its
weights over its bias row, and each layer input (the training row, then
the hidden activations `h`) sits in a buffer with a trailing 1.0, so one
outer product, scaled by the rate and subtracted in place, updates
weights and bias together (exact, since lr * (1.0 * delta) == lr * delta).
Every buffer is allocated once per fit.  The weights, biases and loss trace are bit for bit those of one
`loss_and_grads` call per step, the batch form the central-difference
gradient check covers: each forward `a @ W` stays the same matmul on the
same shapes, and every other step is an in-place elementwise ufunc,
applied in the batch form's order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_positive, check_sizes
from .preprocess import Standardizer, fit_standardizer

LOSS_IMPROVEMENT_FLOOR = 1e-9


@dataclass(frozen=True)
class MlpConfig:
    """No defaults: a run's values come from `bench.PipelineConfig.mlp_config`,
    the one declaration of the MLP settings.  The input width is the
    training matrix's."""

    hidden: int   # width of the one hidden layer
    lr: float
    epochs: int
    seed: int

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("layer sizes must be >= 1")
        check_positive("lr", self.lr)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class MlpModel:
    weights: tuple[np.ndarray, ...]   # hidden, then output; each (fan_in, fan_out)
    biases: tuple[np.ndarray, ...]
    standardizer: Standardizer
    target_min: float
    target_scale: float
    loss_trace: np.ndarray
    config: MlpConfig

    def __post_init__(self):
        # sizes are named as a model file names them
        sizes = (len(self.standardizer.mean), self.config.hidden, 1)
        shapes = tuple(w.shape for w in self.weights)
        if shapes != tuple(zip(sizes, sizes[1:])):
            raise ValueError(f"standardizer width, hidden and one output {sizes} "
                             f"do not match the weight shapes {shapes}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases, strict=True)):
            check_sizes({f"bias{i}": len(b), f"weight{i} columns": w.shape[1]})
        check_positive("target_scale", self.target_scale)


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: exp is only taken of -|z|.

    `minimum(z, -z)` rather than `-abs(z)` keeps the sign of a nan input,
    so every output bit, nan included, equals that of the two-branch form
    1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) otherwise.  `out` may
    be `z` itself: the sign mask is taken before anything is written.
    """
    pos = z >= 0
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    d = np.add(1.0, e)
    np.putmask(e, pos, 1.0)   # numerator: 1 where z >= 0, else e
    return np.divide(e, d, out=e if out is None else out)


def init_layers(input_dim: int, config: MlpConfig):
    """Uniform +-1/sqrt(fan_in) weights, zero biases, from the seeded RNG."""
    rng = np.random.default_rng(config.seed)
    sizes = (input_dim, config.hidden, 1)
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

    On a one-row batch this is the step `mlp_train` inlines, there with
    preallocated buffers: the weight gradient and the bias gradient come
    from one outer product of the trailing-1.0 layer input with the delta,
    applied to the layer's weight-and-bias block in place.
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
    if x.shape[1] < 1:
        raise ValueError("training matrix has no columns")

    std = fit_standardizer(x)
    xs = std.transform(x)
    t_min = float(t.min())
    t_scale = float(t.max() - t.min()) or 1.0
    ys = (t - t_min) / t_scale

    # one (fan_in + 1, fan_out) block per layer, the weights over the bias
    # row, so that one outer product with a trailing-1.0 input updates both
    (w0, w1), (b0, b1) = init_layers(x.shape[1], config)
    block0, block1 = np.vstack((w0, b0)), np.vstack((w1, b1))
    grad0, grad1 = np.empty_like(block0), np.empty_like(block1)
    w0, w1 = block0[:-1], block1[:-1]
    b0, b1 = block0[-1:], block1[-1:]
    w1_t = w1.T
    # each layer's input with its trailing 1.0, as a row view for the
    # forward matmul and as a column view for the update: the training
    # rows, then the hidden activations, which the logistic writes in place
    n = xs.shape[0]
    xs_aug = np.ones((n, x.shape[1] + 1))
    xs_aug[:, :-1] = xs
    x_rows = [xs_aug[i:i + 1, :-1] for i in range(n)]
    x_cols = [xs_aug[i:i + 1].T for i in range(n)]
    h_aug = np.ones((1, config.hidden + 1))
    h, h_col = h_aug[:, :-1], h_aug.T
    delta = np.empty((1, config.hidden))
    slope = np.empty((1, config.hidden))
    z_out = np.empty((1, 1))
    lr = np.array(config.lr)   # a 0-d array skips a per-call scalar conversion
    targets = ys.tolist()
    rng = np.random.default_rng(config.seed)
    trace = []
    prev = None
    # overflow on a diverging run produces inf, which the epoch check
    # turns into an abort with diagnostics
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            total = 0.0
            for i in rng.permutation(n).tolist():
                np.matmul(x_rows[i], w0, out=h)
                h += b0
                sigmoid(h, out=h)
                np.matmul(h, w1, out=z_out)
                d = (z_out.item() + b1.item()) - targets[i]
                # d * d is numpy's square; d ** 2 goes through pow(), which
                # rounds differently for about 1 in 1000 values
                total += 0.5 * (d * d)
                # the output delta is passed down before its block is updated
                np.multiply(h_col, d, out=grad1)
                np.multiply(w1_t, d, out=delta)
                grad1 *= lr
                block1 -= grad1
                delta *= h
                np.subtract(1.0, h, out=slope)
                delta *= slope
                np.multiply(x_cols[i], delta, out=grad0)
                grad0 *= lr
                block0 -= grad0
            epoch_loss = total / n
            if not np.isfinite(epoch_loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch} "
                    f"(lr={config.lr}, hidden={config.hidden})")
            trace.append(epoch_loss)
            # plateau: epoch-mean loss no longer moving (stochastic jitter on
            # a noisy task keeps |change| above the floor, so this fires on
            # convergence rather than on a single worsening epoch)
            if prev is not None and abs(prev - epoch_loss) < LOSS_IMPROVEMENT_FLOOR:
                break
            prev = epoch_loss

    return MlpModel(
        weights=(w0.copy(), w1.copy()),
        biases=(b0[0].copy(), b1[0].copy()),
        standardizer=std,
        target_min=t_min,
        target_scale=t_scale,
        loss_trace=np.array(trace),
        config=config,
    )


def mlp_forward(model: MlpModel, x) -> np.ndarray:
    """Predicted concentration in ppm for one sample or a batch."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.weights[0].shape[0]:
        raise ValueError(f"expected {model.weights[0].shape[0]} inputs, got {x.shape[1]}")
    xs = model.standardizer.transform(x)
    out = _forward(list(model.weights), list(model.biases), xs)[-1][:, 0]
    return out * model.target_scale + model.target_min


def evaluate_regression(preds_ppm, targets_ppm) -> dict:
    """rmse/mae in ppm plus r2 against the test-set target variance."""
    t = np.asarray(targets_ppm, dtype=float)
    if t.size == 0:
        raise ValueError("empty test set")
    err = np.asarray(preds_ppm, dtype=float) - t
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    sst = float(np.sum((t - t.mean()) ** 2))
    r2 = None if sst == 0.0 else 1.0 - float(np.sum(err**2)) / sst
    return {"rmse_ppm": rmse, "mae_ppm": mae, "r2": r2}
