from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enose import features as ft
from enose import svm
from enose.svm import (BinarySvm, ConvergenceError, SvmModel, SvmParams,
                       svm_train_binary, svm_train_multiclass, svm_predict)
from oracles import (SmoPerStepMasks, default_gamma, full_duals, kkt_max_violation,
                     projected_gradient_dual, svm_predict_per_row)


def separable_dataset(seed, n_per=4, gap=3.0, d=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, (n_per, d))
    b = rng.normal(gap, 0.5, (n_per, d))
    x = np.vstack([a, b])
    y = np.array([-1.0] * n_per + [1.0] * n_per)
    return x, y


class TestBinaryTraining:
    def test_symmetric_two_point_margin(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = svm_train_binary(x, y, SvmParams(c_penalty=1e6, kernel="linear", gamma=None))
        assert model.decision([[0.0]])[0] == pytest.approx(0.0, abs=1e-3)
        f = model.decision(x)
        assert np.sign(f).tolist() == [-1.0, 1.0]
        assert np.abs(np.abs(f) - 1.0).max() < 1e-3

    def test_xor_needs_the_rbf_kernel(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        rbf = svm_train_binary(x, y, SvmParams(c_penalty=10.0, kernel="rbf", gamma=1.0))
        assert np.array_equal(np.sign(rbf.decision(x)), y)
        linear = svm_train_binary(x, y, SvmParams(c_penalty=10.0, kernel="linear", gamma=None))
        assert (np.sign(linear.decision(x)) == y).sum() < 4

    def test_single_class_rejected(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            svm_train_binary(x, np.ones(3), SvmParams(c_penalty=10.0, kernel="rbf", gamma=None))

    def test_non_convergence_carries_iteration_count(self, monkeypatch):
        monkeypatch.setattr(svm, "MAX_STEPS", 1)
        x, y = separable_dataset(0, n_per=6, gap=1.0)
        with pytest.raises(ConvergenceError) as err:
            svm_train_binary(x, y, SvmParams(c_penalty=10.0, kernel="rbf", gamma=None))
        assert err.value.n_iter == 1

    def test_only_positive_duals_stored(self):
        x, y = separable_dataset(1)
        model = svm_train_binary(x, y, SvmParams(c_penalty=10.0, kernel="rbf", gamma=None))
        alpha, _ = full_duals(model, x, y)
        assert np.all(np.abs(model.dual_coef) > 1e-12 * 10.0)
        assert np.all(alpha >= 0) and np.all(alpha <= 10.0)

    def test_machine_c_penalty_and_lengths_checked(self):
        def machine(c_penalty, n_duals):
            return BinarySvm(support_vectors=np.zeros((2, 2)), dual_coef=np.ones(n_duals),
                             bias=0.0, kernel="linear", gamma=None, c_penalty=c_penalty,
                             n_iter=0, objective=0.0)

        assert machine(1.0, 2).decision(np.ones((1, 2))).tolist() == [0.0]
        for c_penalty, n_duals, message in [(-5.0, 2, "c_penalty must be > 0"),
                                            (0.0, 2, "c_penalty must be > 0"),
                                            (float("nan"), 2, "c_penalty must be > 0"),
                                            (float("inf"), 2, "c_penalty must be finite"),
                                            (1.0, 1, "2 support_vectors rows but 1 dual_coef")]:
            with pytest.raises(ValueError, match=message):
                machine(c_penalty, n_duals)

    def test_machine_kernel_and_gamma_checked(self):
        def machine(kernel, gamma):
            return BinarySvm(support_vectors=np.zeros((1, 2)), dual_coef=np.ones(1),
                             bias=0.0, kernel=kernel, gamma=gamma, c_penalty=1.0,
                             n_iter=0, objective=0.0)

        assert machine("linear", None).decision(np.ones((1, 2))).tolist() == [0.0]
        assert machine("rbf", 0.5).decision(np.zeros((1, 2))).tolist() == [1.0]
        for kernel, gamma, message in [("poly", 0.5, "unknown kernel 'poly'"),
                                       ("rbf", None, "gamma must be set"),
                                       ("rbf", 0.0, "gamma must be > 0"),
                                       ("rbf", float("nan"), "gamma must be > 0"),
                                       ("linear", float("inf"), "gamma must be finite")]:
            with pytest.raises(ValueError, match=message):
                machine(kernel, gamma)
        with pytest.raises(ValueError, match="unknown kernel"):
            svm.kernel_matrix(np.zeros((1, 2)), np.zeros((1, 2)), "poly", 0.5)


class TestDualOptimality:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_projected_gradient_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        x = rng.normal(0, 1, (n, 2))
        y = np.where(x[:, 0] + 0.5 * x[:, 1] + rng.normal(0, 0.3, n) > 0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        params = SvmParams(c_penalty=5.0, kernel="rbf", gamma=0.7)
        model = svm_train_binary(x, y, params)
        alpha, k = full_duals(model, x, y)
        _, obj_pg = projected_gradient_dual(k, y, 5.0)
        assert model.objective == pytest.approx(obj_pg, abs=1e-4)
        f = model.decision(x)
        # oracle decision from its own duals
        alpha_pg, _ = projected_gradient_dual(k, y, 5.0)
        g = k @ (alpha_pg * y)
        free = (alpha_pg > 1e-6) & (alpha_pg < 5.0 - 1e-6)
        b = float(np.mean(y[free] - g[free])) if free.any() else model.bias
        assert np.array_equal(np.sign(f), np.sign(g + b))

    @pytest.mark.parametrize("seed", range(6))
    def test_kkt_residuals_within_tol(self, seed):
        x, y = separable_dataset(seed, n_per=8, gap=2.0)
        params = SvmParams(c_penalty=10.0, kernel="rbf", gamma=None)
        model = svm_train_binary(x, y, params)
        alpha, k = full_duals(model, x, y)
        assert kkt_max_violation(k, y, alpha, model.bias, 10.0) <= 1e-3

    @pytest.mark.parametrize("seed", range(4))
    def test_equality_constraint_preserved(self, seed):
        x, y = separable_dataset(seed, n_per=10, gap=1.5)
        model = svm_train_binary(x, y, SvmParams(c_penalty=10.0, kernel="rbf", gamma=None))
        assert abs(model.dual_coef.sum()) < 1e-8


class TestInvariances:
    def test_row_permutation_leaves_predictions_unchanged(self):
        x, y = separable_dataset(3, n_per=10, gap=2.5)
        params = SvmParams(c_penalty=10.0, kernel="rbf", gamma=None)
        probe = np.random.default_rng(0).normal(1.5, 1.0, (20, 2))
        base = svm_train_binary(x, y, params).decision(probe)
        perm = np.random.default_rng(1).permutation(x.shape[0])
        permuted = svm_train_binary(x[perm], y[perm], params).decision(probe)
        assert np.array_equal(np.sign(base), np.sign(permuted))

    def test_duplicating_points_with_halved_c_keeps_predictions(self):
        x, y = separable_dataset(5, n_per=8, gap=2.0)
        probe = np.random.default_rng(2).normal(1.5, 1.5, (20, 2))
        a = svm_train_binary(x, y, SvmParams(c_penalty=10.0, kernel="rbf", gamma=0.5))
        x2 = np.vstack([x, x])
        y2 = np.concatenate([y, y])
        b = svm_train_binary(x2, y2, SvmParams(c_penalty=5.0, kernel="rbf", gamma=0.5))
        assert np.array_equal(np.sign(a.decision(probe)), np.sign(b.decision(probe)))


class _RecordingSmo(svm._Smo):
    """`svm._Smo` that records (step, i1, i2, eta, moved) for each pair it tries."""

    def __init__(self, k, y, c):
        super().__init__(k, y, c)
        self.tried = []

    def _take_step(self, i1, i2):
        moved = super()._take_step(i1, i2)
        eta = self.k[i1, i1] + self.k[i2, i2] - 2.0 * self.k[i1, i2]
        self.tried.append((self.n_steps, i1, i2, eta, moved))
        return moved


class TestSmoAgainstPerStepOracle:
    """`_Smo` keeps its eligibility masks and does its step scalars in
    Python floats; the oracle rebuilds both in numpy on every step.  The
    two must agree bit for bit: alpha, bias, f, step count and outcome."""

    @staticmethod
    def solve_both(k, y, c):
        solvers = (_RecordingSmo(k, y, c), SmoPerStepMasks(k, y, c))
        errors = []
        for smo in solvers:
            try:
                smo.solve()
                errors.append(None)
            except ConvergenceError as exc:
                errors.append(str(exc))
        got, ref = solvers
        assert got.alpha.tobytes() == ref.alpha.tobytes()
        assert got.f.tobytes() == ref.f.tobytes()
        assert got.bias == ref.bias and got.n_steps == ref.n_steps
        assert errors[0] == errors[1]
        return got, errors[0]

    @pytest.mark.parametrize("c", [1.0, 10.0])
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_problems(self, seed, kernel, c):
        rng = np.random.default_rng(seed)
        n = 60
        x = rng.normal(0, 1, (n, 3))
        y = np.where(x[:, 0] - x[:, 2] + rng.normal(0, 0.7, n) > 0, 1.0, -1.0)
        k = (ft.rbf_kernel(x, x, default_gamma(x)) if kernel == "rbf" else x @ x.T)
        smo, error = self.solve_both(k, y, c)
        assert error is None and smo.n_steps > 20

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_duplicate_points(self, kernel):
        # points on a 3 x 3 grid, so many pairs are one point twice (eta = 0)
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, (20, 2)).astype(float)
        y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
        k = ft.rbf_kernel(x, x, 0.5) if kernel == "rbf" else x @ x.T
        smo, error = self.solve_both(k, y, 10.0)
        assert error is None
        assert any(eta <= 0 and moved for _, _, _, eta, moved in smo.tried)

    @pytest.mark.parametrize("c, error", [
        (1.0, None),
        (10.0, "SMO stalled on a violating pair (after 106 iterations)"),
    ])
    def test_stall_fallback(self, c, error):
        # the 1e26 diagonal entry makes every step with point 1 too small
        # to take, so the extreme pair fails and the fallback walks on
        x = np.array([[1.0, 0.0], [0.0, 1e13], [0.0, -1.0], [2.0, 1.0], [-1.0, 0.5]])
        y = np.array([1.0, -1.0, -1.0, 1.0, -1.0])
        smo, got_error = self.solve_both(x @ x.T, y, c)
        assert got_error == error
        first = [(i1, i2, moved) for step, i1, i2, _, moved in smo.tried if step == 0]
        assert first == [(1, 0, False), (1, 0, False), (2, 0, True)]


class TestOneDistanceMatrix:
    def test_one_pass_per_machine(self, monkeypatch):
        calls = []
        sq_dists = ft.pairwise_sq_dists

        def counting(a, b):
            calls.append((len(a), len(b)))
            return sq_dists(a, b)

        # svm imports the name; features' own callers read it from features
        monkeypatch.setattr(ft, "pairwise_sq_dists", counting)
        monkeypatch.setattr(svm, "pairwise_sq_dists", counting)
        x, y = separable_dataset(2, n_per=6)
        for gamma in (None, 0.5):
            calls.clear()
            svm_train_binary(x, y, SvmParams(c_penalty=10.0, kernel="rbf", gamma=gamma))
            assert calls == [(12, 12)]
        calls.clear()
        svm_train_binary(x, y, SvmParams(c_penalty=10.0, kernel="linear", gamma=None))
        assert calls == []

    def test_default_gamma_from_the_same_matrix(self):
        x, y = separable_dataset(4, n_per=6)
        model = svm_train_binary(x, y, SvmParams(c_penalty=10.0, kernel="rbf", gamma=None))
        assert model.gamma == default_gamma(x)


def three_clusters(seed=0, n_per=15):
    rng = np.random.default_rng(seed)
    x = np.vstack([
        rng.normal((0, 0), 0.3, (n_per, 2)),
        rng.normal((4, 0), 0.3, (n_per, 2)),
        rng.normal((0, 4), 0.3, (n_per, 2)),
    ])
    y = np.repeat([1, 2, 3], n_per)
    return x, y


class TestMulticlass:
    def test_separable_clusters_are_perfect(self):
        x, y = three_clusters()
        model = svm_train_multiclass(x, y, SvmParams(c_penalty=10.0, kernel="rbf", gamma=None))
        assert (svm_predict(model, x) == y).all()
        assert [pair for pair, _ in model.machines] == [(1, 2), (1, 3), (2, 3)]

    def test_two_classes_reduce_to_binary(self):
        x, y = separable_dataset(7, n_per=10)
        labels = np.where(y > 0, 1, 2)
        params = SvmParams(c_penalty=10.0, kernel="rbf", gamma=0.5)
        multi = svm_train_multiclass(x, labels, params)
        binary = svm_train_binary(x, np.where(labels == 1, 1.0, -1.0), params)
        assert len(multi.machines) == 1
        pred = svm_predict(multi, x)
        assert np.array_equal(pred, np.where(binary.decision(x) > 0, 1, 2))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            svm_train_multiclass(np.zeros((3, 2)), np.ones(3),
                                 SvmParams(c_penalty=10.0, kernel="rbf", gamma=None))

    def test_vote_cycle_tie_break_uses_decision_sums(self):
        def constant_machine(value):
            return BinarySvm(support_vectors=np.zeros((1, 2)),
                             dual_coef=np.zeros(1), bias=value,
                             kernel="linear", gamma=None, c_penalty=1.0,
                             n_iter=0, objective=0.0)

        # votes cycle 1 -> 2 -> 3 -> 1; signed decision sums:
        #   class 1: +0.3 - 0.9 = -0.6
        #   class 2: -0.3 + 0.5 = +0.2
        #   class 3: +0.9 - 0.5 = +0.4   -> winner
        model = SvmModel(classes=(1, 2, 3), machines=(
            ((1, 2), constant_machine(+0.3)),
            ((1, 3), constant_machine(-0.9)),
            ((2, 3), constant_machine(+0.5)),
        ))
        assert svm_predict(model, np.zeros((1, 2)))[0] == 3

    def test_equal_decision_sums_go_to_the_smallest_label(self):
        # votes cycle 1 -> 2 -> 3 -> 1, and every decision sum is 0
        model = vote_model((4, 7, 9))
        assert svm_predict(model, [[1.0, -1.0, 1.0]])[0] == 4

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_votes_match_per_row_oracle(self, data):
        # decisions from a few dyadic values, so vote counts and decision
        # sums tie often and exactly
        n_cls = data.draw(st.sampled_from([3, 4]))
        classes = sorted(data.draw(st.sets(st.integers(-5, 20), min_size=n_cls,
                                           max_size=n_cls)))
        n_pairs = n_cls * (n_cls - 1) // 2
        rows = data.draw(st.lists(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0]),
                                           min_size=n_pairs, max_size=n_pairs),
                                  min_size=1, max_size=20))
        model = vote_model(tuple(classes))
        x = np.array(rows)
        got, expected = svm_predict(model, x), svm_predict_per_row(model, x)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def vote_model(classes):
    """A one-vs-one model of linear machines whose decision on a row x is
    x[m] for the m-th pair, in `combinations` order."""
    pairs = list(combinations(classes, 2))
    unit = np.eye(len(pairs))
    return SvmModel(classes=classes, machines=tuple(
        (pair, BinarySvm(support_vectors=unit[m:m + 1], dual_coef=np.ones(1), bias=0.0,
                         kernel="linear", gamma=None, c_penalty=1.0, n_iter=0,
                         objective=0.0))
        for m, pair in enumerate(pairs)))
