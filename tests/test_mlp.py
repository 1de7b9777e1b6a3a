import gc
import math
import sys

import numpy as np
import pytest

from enose import mlp
from enose.preprocess import Standardizer

from oracles import masked_sigmoid, mlp_train_per_call


def identity_standardizer(d):
    return Standardizer(mean=np.zeros(d), std=np.ones(d),
                        constant=np.zeros(d, dtype=bool))


def hand_model(weights, biases, d, t_min=0.0, t_scale=1.0):
    ws = tuple(np.asarray(w, dtype=float) for w in weights)
    bs = tuple(np.asarray(b, dtype=float) for b in biases)
    cfg = mlp.MlpConfig(hidden=ws[0].shape[1], lr=0.01, epochs=200, seed=0)
    return mlp.MlpModel(weights=ws, biases=bs,
                        standardizer=identity_standardizer(d),
                        target_min=t_min, target_scale=t_scale,
                        loss_trace=np.array([]), config=cfg)


class TestForward:
    def test_zero_network_with_zero_offset(self):
        model = hand_model(
            weights=[np.zeros((3, 4)), np.zeros((4, 1))],
            biases=[np.zeros(4), np.zeros(1)],
            d=3, t_min=0.0, t_scale=7.5)
        assert mlp.mlp_forward(model, np.zeros((1, 3)))[0] == 0.0

    def test_hand_computed_sigmoid_chain(self):
        w1, b1, w2, b2 = 0.7, -0.2, 1.3, 0.4
        model = hand_model(
            weights=[np.array([[w1]]), np.array([[w2]])],
            biases=[np.array([b1]), np.array([b2])],
            d=1, t_min=1.0, t_scale=2.0)
        x = 0.5
        hidden = 1.0 / (1.0 + math.exp(-(w1 * x + b1)))
        expected = (w2 * hidden + b2) * 2.0 + 1.0
        assert mlp.mlp_forward(model, [[x]])[0] == pytest.approx(expected, abs=1e-12)

    def test_pure_function(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (6, 4))
        t = rng.uniform(0, 10, 6)
        model = mlp.mlp_train(x, t, mlp.MlpConfig(hidden=16,
                                                  lr=0.01, epochs=5, seed=1))
        assert np.array_equal(mlp.mlp_forward(model, x), mlp.mlp_forward(model, x))

    def test_dimension_mismatch_rejected(self):
        model = hand_model([np.zeros((2, 3)), np.zeros((3, 1))],
                           [np.zeros(3), np.zeros(1)], d=2)
        with pytest.raises(ValueError):
            mlp.mlp_forward(model, np.zeros((1, 3)))


class TestTraining:
    def test_constant_target_converges(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (10, 2))
        t = np.full(10, 42.0)
        model = mlp.mlp_train(x, t, mlp.MlpConfig(hidden=16,
                                                  lr=0.3, epochs=2000, seed=0))
        preds = mlp.mlp_forward(model, x)
        assert float(np.mean((preds - t) ** 2)) < 1e-6

    def test_noiseless_linear_map(self):
        x = np.linspace(0.0, 1.0, 16).reshape(-1, 1)
        t = 2.0 * x[:, 0]
        cfg = mlp.MlpConfig(hidden=16, lr=0.05,
                            epochs=5000, seed=3)
        model = mlp.mlp_train(x, t, cfg)
        err = np.abs(mlp.mlp_forward(model, x) - t)
        assert err.max() < 0.02 * (t.max() - t.min())

    def test_bit_identical_reproducibility(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (25, 5))
        t = rng.uniform(0, 100, 25)
        cfg = mlp.MlpConfig(hidden=16, lr=0.01, epochs=40, seed=9)
        a = mlp.mlp_train(x, t, cfg)
        b = mlp.mlp_train(x, t, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)
        assert np.array_equal(a.loss_trace, b.loss_trace)

    def test_loss_trace_finite_and_non_increasing_when_gentle(self):
        x = np.linspace(-1.0, 1.0, 40).reshape(-1, 1)
        t = 3.0 * x[:, 0] + 5.0
        cfg = mlp.MlpConfig(hidden=16, lr=1e-3, epochs=120, seed=0)
        model = mlp.mlp_train(x, t, cfg)
        trace = model.loss_trace
        assert np.all(np.isfinite(trace))
        tail = trace[10:]
        assert np.all(np.diff(tail) <= 1e-9)

    def test_divergence_aborts_with_diagnostics(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (10, 2))
        t = rng.uniform(0, 1, 10)
        with pytest.raises(RuntimeError, match="non-finite"):
            mlp.mlp_train(x, t, mlp.MlpConfig(hidden=16,
                                              lr=1e12, epochs=50, seed=0))

    def test_step_calls_no_python_function(self):
        """A step is numpy calls only: the Python function calls a fit makes
        do not grow with the number of rows."""
        def python_calls(n):
            rng = np.random.default_rng(0)
            x, t = rng.normal(0, 1, (n, 3)), rng.uniform(0, 1, n)
            cfg = mlp.MlpConfig(hidden=4, lr=0.01, epochs=2, seed=0)
            calls = []
            # a collection inside the fit would run finalizers of garbage
            # that earlier tests left, and count their calls as the fit's
            gc.collect()
            gc.disable()
            sys.setprofile(lambda frame, event, arg: calls.append(event == "call"))
            try:
                mlp.mlp_train(x, t, cfg)
            finally:
                sys.setprofile(None)
                gc.enable()
            return sum(calls)

        assert python_calls(10) == python_calls(200)

    def test_shape_validation(self):
        settings = dict(hidden=16, lr=0.01, epochs=200, seed=0)
        with pytest.raises(ValueError):
            mlp.mlp_train(np.zeros((4, 3)), np.zeros(5),
                          mlp.MlpConfig(**settings))
        with pytest.raises(ValueError, match="no columns"):
            mlp.mlp_train(np.zeros((4, 0)), np.zeros(4), mlp.MlpConfig(**settings))
        with pytest.raises(ValueError):
            mlp.MlpConfig(**{**settings, "lr": 0.0})


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# The fused step rounds differently from one `loss_and_grads` per step: it
# sums the bias inside the matmul, takes the logistic as 1/(1 + exp(-z))
# and scales the error by the rate before the outer products.  Over the
# 72 width x dim cases below the weights moved by at most 3.3e-16 and the
# loss trace by at most 1.3e-15 relative; the bounds leave room above that.
WEIGHT_ATOL = 1e-12
LOSS_RTOL = 1e-12


def assert_close_model(model, reference):
    assert len(model.loss_trace) == len(reference.loss_trace)   # same epochs run
    for got, want in zip(model.weights + model.biases,
                         reference.weights + reference.biases, strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=WEIGHT_ATOL)
    np.testing.assert_allclose(model.loss_trace, reference.loss_trace,
                               rtol=LOSS_RTOL, atol=0)


class TestAgainstPerCallLoop:
    """The fused SGD step matches one `loss_and_grads` per step within the
    bounds above, for hidden widths from 1 to 32, and stops and diverges
    at the same epoch."""

    # explicit ids keep each case's name from when its slot held a tuple of
    # layer sizes: 8, 3 and 4 hold the slots of (8, 4), () and (4, 3, 2)
    @pytest.mark.parametrize("hidden", [16, 8, 32, 3, 1, 4],
                             ids=[f"hidden{i}" for i in range(6)])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_same_weights_biases_and_trace(self, dim, hidden):
        seed = 7 * dim + 1
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (24, dim))
        t = x @ rng.normal(0, 1, dim) * 20.0 + rng.normal(0, 1, 24)
        cfg = mlp.MlpConfig(hidden=hidden, lr=0.05, epochs=8, seed=seed)
        assert_close_model(mlp.mlp_train(x, t, cfg), mlp_train_per_call(x, t, cfg))

    def test_same_plateau_stop(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (10, 2))
        t = np.full(10, 42.0)
        cfg = mlp.MlpConfig(hidden=3, lr=0.8, epochs=3000, seed=0)
        model = mlp.mlp_train(x, t, cfg)
        assert len(model.loss_trace) < cfg.epochs
        assert_close_model(model, mlp_train_per_call(x, t, cfg))

    @pytest.mark.parametrize("lr, constant", [(30.0, False), (1e12, False), (1.0, True)])
    def test_same_divergence(self, lr, constant):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (10, 2))
        t = np.full(10, 42.0) if constant else rng.uniform(0, 1, 10)
        cfg = mlp.MlpConfig(hidden=16, lr=lr, epochs=100, seed=0)
        with pytest.raises(RuntimeError, match="non-finite") as lean:
            mlp.mlp_train(x, t, cfg)
        with pytest.raises(RuntimeError) as per_call:
            mlp_train_per_call(x, t, cfg)
        assert str(lean.value) == str(per_call.value)

    def test_sigmoid_matches_masked_form(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                            745.0, -745.0, 746.0, -746.0, 36.7, -36.7, 5e-324, -5e-324])
        rng = np.random.default_rng(0)
        z = np.concatenate([special, rng.normal(0, 1, 500), rng.normal(0, 300, 500)])
        for batch in (z, rng.permutation(z).reshape(-1, 6), z[:, None]):
            assert same_bits(mlp.sigmoid(batch), masked_sigmoid(batch))
        for value in special:
            one = np.array([[value]])
            assert same_bits(mlp.sigmoid(one), masked_sigmoid(one))


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_analytic_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        sizes = (4, 6, 1)
        weights = [rng.normal(0, 0.5, (a, b))
                   for a, b in zip(sizes, sizes[1:])]
        biases = [rng.normal(0, 0.2, b) for b in sizes[1:]]
        x = rng.normal(0, 1, (3, 4))
        y = rng.uniform(0, 1, 3)

        _, gw, gb = mlp.loss_and_grads(weights, biases, x, y)
        h = 1e-5
        worst = 0.0
        for layer in range(len(weights)):
            for arr, grads in ((weights, gw), (biases, gb)):
                flat = arr[layer].reshape(-1)
                gflat = grads[layer].reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp, _, _ = mlp.loss_and_grads(weights, biases, x, y)
                    flat[idx] = orig - h
                    lm, _, _ = mlp.loss_and_grads(weights, biases, x, y)
                    flat[idx] = orig
                    numeric = (lp - lm) / (2 * h)
                    denom = max(abs(numeric) + abs(gflat[idx]), 1e-8)
                    worst = max(worst, abs(numeric - gflat[idx]) / denom)
        assert worst < 1e-4


class TestEvaluate:
    def test_perfect_predictor(self):
        out = mlp.evaluate_regression([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out == {"rmse_ppm": 0.0, "mae_ppm": 0.0, "r2": 1.0}

    def test_mean_predictor_scores_zero_r2(self):
        targets = np.array([1.0, 2.0, 3.0])
        model = hand_model(
            weights=[np.zeros((1, 2)), np.zeros((2, 1))],
            biases=[np.zeros(2), np.zeros(1)],
            d=1, t_min=float(targets.mean()), t_scale=1.0)
        out = mlp.evaluate_regression(mlp.mlp_forward(model, np.zeros((3, 1))),
                                       targets)
        assert out["r2"] == pytest.approx(0.0, abs=1e-12)

    def test_hand_three_point_example(self):
        out = mlp.evaluate_regression([1.0, 2.0, 4.0], [1.0, 2.0, 3.0])
        assert out["rmse_ppm"] == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)
        assert out["mae_ppm"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_variance_targets_leave_r2_undefined(self):
        out = mlp.evaluate_regression([1.0, 2.0], [5.0, 5.0])
        assert out["r2"] is None

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty test set"):
            mlp.evaluate_regression([], [])
