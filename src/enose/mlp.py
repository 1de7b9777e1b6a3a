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
All parameters sit in one flat vector: the hidden block, stored negated
as -[W0; b0], then the output block [w1; b1].  Each layer input carries a
trailing 1.0 (the training row, then the hidden activations), so one
matmul sums the bias with the weights, one outer product gives the
weight and bias gradients together, and one in-place subtraction applies
the whole step.  The stored sign makes the forward matmul give -z, the
logistic's exp argument, and lets the hidden delta use (h - 1) * h.
Every buffer is allocated once per fit, and a step costs 11 numpy calls.
The step is the one `loss_and_grads` takes on a one-row batch, the batch
form the central-difference gradient check covers, up to rounding: the
bias is summed inside the matmul, the logistic is 1/(1 + exp(-z)), and
the rate multiplies the scalar error before the outer products.
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


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp is only taken of -|z|.

    `minimum(z, -z)` rather than `-abs(z)` keeps the sign of a nan input,
    so every output bit, nan included, equals that of the two-branch form
    1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) otherwise.
    """
    pos = z >= 0
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    d = np.add(1.0, e)
    np.putmask(e, pos, 1.0)   # numerator: 1 where z >= 0, else e
    return np.divide(e, d, out=e)


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

    On a one-row batch this is the step `mlp_train` inlines, up to
    rounding: there the weight and bias gradients of a layer come from one
    outer product of its trailing-1.0 input with the rate-scaled delta.
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

    # one flat parameter vector: the hidden block -[W0; b0], (d + 1, H),
    # then the output block [w1; b1], (H + 1,)
    (w0, w1), (b0, b1) = init_layers(x.shape[1], config)
    hidden = config.hidden
    params = np.concatenate((-w0.ravel(), -b0, w1[:, 0], b1))
    size0 = b0.size + w0.size
    neg0 = params[:size0].reshape(-1, hidden)
    block1 = params[size0:]
    # buf is [h, 1.0, ws]: one multiply by lr * d writes the output block's
    # gradient and the hidden delta into the tail of grads, which follows
    # the hidden block's gradient; `step` is grads without the delta
    buf = np.ones(2 * hidden + 1)
    h, h_aug, ws = buf[:hidden], buf[:hidden + 1], buf[hidden + 1:]
    grads = np.empty(params.size + hidden)
    grad0 = grads[:size0].reshape(-1, hidden)
    tail, delta = grads[size0:], grads[params.size:]
    step = grads[:params.size]
    w1 = block1[:-1]
    slope = np.empty(hidden)
    ones = np.ones(hidden)   # an array operand skips a per-call scalar conversion
    # each training row with its trailing 1.0, as a row for the forward
    # matmul and as a column for the outer product
    n = xs.shape[0]
    xs_aug = np.ones((n, x.shape[1] + 1))
    xs_aug[:, :-1] = xs
    x_rows = list(xs_aug)
    x_cols = [row[:, None] for row in x_rows]
    lr = config.lr
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
                x_rows[i].dot(neg0, out=h)   # -z
                np.exp(h, out=h)
                h += ones
                np.divide(ones, h, out=h)
                d = float(h_aug.dot(block1)) - targets[i]
                # d * d is numpy's square; d ** 2 goes through pow(), which
                # rounds differently for about 1 in 1000 values
                total += 0.5 * (d * d)
                # minus the logistic's slope, for the negated hidden block;
                # the output delta is passed down before its block is updated
                np.subtract(h, ones, out=slope)
                slope *= h
                np.multiply(w1, slope, out=ws)
                np.multiply(buf, lr * d, out=tail)
                np.multiply(x_cols[i], delta, out=grad0)
                params -= step
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
        weights=(-neg0[:-1], w1[:, None].copy()),
        biases=(-neg0[-1], block1[-1:].copy()),
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
