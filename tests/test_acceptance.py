"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
synthetic mixture-table analogues run the full pipeline end to end on
the default simulator noise with fixed seeds.
"""

import sys
import time

import numpy as np

from enose import features as ft
from enose import mlp
from enose import preprocess as pp
from enose.acquisition import Session
from enose.bench import PipelineConfig, run_experiment
from enose.cli import main as cli_main
from enose.svm import SvmParams, svm_train_binary
from oracles import charpoly_eigvalsh, full_duals, kkt_max_violation, projected_gradient_dual

SEED = 42


def _criterion(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status}  {description}  {detail}".rstrip()
    # write through the real stdout so the line survives pytest's capture
    print(line, file=sys.__stdout__)
    assert passed, f"criterion {num}: {description} {detail}"


def test_criterion_01_binary_ethanol_analogue():
    t0 = time.perf_counter()
    rep = run_experiment("binary_ethanol", PipelineConfig(), seed=SEED)
    wall = time.perf_counter() - t0
    split_ok = rep.confusion.sum() == 80 and dict(rep.config_echo)["n_train"] == "600"
    _criterion(1, "binary ethanol analogue: accuracy >= 0.95, 600/80, < 60 s",
               rep.accuracy >= 0.95 and split_ok and wall < 60.0,
               f"(accuracy={rep.accuracy:.4f}, wall={wall:.1f}s)")


def test_criterion_02_binary_methanol_analogue():
    rep = run_experiment("binary_methanol", PipelineConfig(), seed=SEED)
    split_ok = rep.confusion.sum() == 100 and dict(rep.config_echo)["n_train"] == "700"
    _criterion(2, "binary methanol analogue: accuracy >= 0.95, 700/100",
               rep.accuracy >= 0.95 and split_ok,
               f"(accuracy={rep.accuracy:.4f})")


def test_criterion_03_ternary_analogue():
    rep = run_experiment("ternary", PipelineConfig(), seed=SEED)
    quiet = run_experiment("ternary", PipelineConfig(noise_sigma=0.0), seed=SEED)
    split_ok = rep.confusion.sum() == 50 and dict(rep.config_echo)["n_train"] == "550"
    _criterion(3, "ternary analogue: accuracy >= 0.88, 550/50; noiseless = 1.00",
               rep.accuracy >= 0.88 and split_ok and quiet.accuracy == 1.0,
               f"(accuracy={rep.accuracy:.4f}, noiseless={quiet.accuracy:.4f})")


def test_criterion_04_adc_conversion():
    codes = np.arange(4096)
    volts = Session(np.arange(1024), codes.reshape(1024, 4)).voltages().ravel().tolist()
    exact = volts[4095] == 4095 * 3.3 / 4096 == 3.2991943359375
    monotone = all(b > a for a, b in zip(volts, volts[1:]))
    _criterion(4, "ADC conversion exact at full scale; monotone over 4096 codes",
               exact and monotone)


def test_criterion_05_pca_oracle():
    rng = np.random.default_rng(SEED)
    worst_eig, worst_orth = 0.0, 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        # n > d keeps the covariance simple-rooted, where the closed-form
        # characteristic-polynomial oracle holds its own 1e-8 accuracy
        # (degenerate spectra are covered by the dedicated eigensolver tests)
        n = int(rng.integers(d + 1, 11))
        x = rng.normal(0, 1, (n, d)) * rng.uniform(0.5, 3.0, d)
        model = ft.pca_fit(x)
        cov = np.cov(x, rowvar=False, bias=True).reshape(d, d)
        expected = charpoly_eigvalsh(cov)
        worst_eig = max(worst_eig, float(np.abs(model.eigenvalues - expected).max()))
        gram = model.components @ model.components.T
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(d)).max()))
    _criterion(5, "PCA eigenvalues match char-poly oracle (200 matrices)",
               worst_eig < 1e-8 and worst_orth < 1e-9,
               f"(max eig err={worst_eig:.2e}, max orth err={worst_orth:.2e})")


def test_criterion_06_kpca_centering_and_consistency():
    rng = np.random.default_rng(SEED)
    worst_row, worst_cons = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(3, 21))
        d = int(rng.integers(1, 5))
        x = rng.normal(0, 1, (n, d))
        model = ft.kpca_fit(x)
        k = ft.rbf_kernel(x, x, model.gamma)
        kc = k - k.mean(1)[:, None] - k.mean(0)[None, :] + k.mean()
        worst_row = max(worst_row, float(np.abs(kc.sum(axis=1)).max()))
        direct = ft.kpca_transform(model, x)
        fitted = model.alphas[:, :model.retained_k] * model.eigenvalues[:model.retained_k]
        worst_cons = max(worst_cons, float(np.abs(direct - fitted).max()))
    _criterion(6, "KPCA centred row sums and train-transform consistency (100 sets)",
               worst_row < 1e-9 and worst_cons < 1e-9,
               f"(max row sum={worst_row:.2e}, max inconsistency={worst_cons:.2e})")


def test_criterion_07_svm_oracle():
    rng = np.random.default_rng(SEED)
    worst_gap, signs_ok, worst_kkt = 0.0, True, 0.0
    for _ in range(50):
        n = int(rng.integers(6, 13))
        x = rng.normal(0, 1, (n, 2))
        y = np.where(x[:, 0] + 0.6 * x[:, 1] + rng.normal(0, 0.3, n) > 0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        c = 5.0
        params = SvmParams(c_penalty=c, kernel="rbf", gamma=0.8)
        model = svm_train_binary(x, y, params)
        alpha, k = full_duals(model, x, y)
        alpha_pg, obj_pg = projected_gradient_dual(k, y, c)
        worst_gap = max(worst_gap, abs(model.objective - obj_pg))

        g = k @ (alpha_pg * y)
        free = (alpha_pg > 1e-6 * c) & (alpha_pg < (1 - 1e-6) * c)
        b_pg = float(np.mean(y[free] - g[free])) if free.any() else model.bias
        signs_ok &= bool(np.array_equal(np.sign(model.decision(x)),
                                        np.sign(g + b_pg)))
        worst_kkt = max(worst_kkt,
                        kkt_max_violation(k, y, alpha, model.bias, c))
    _criterion(7, "SMO dual within 1e-4 of projected-gradient oracle; KKT at 1e-3",
               worst_gap <= 1e-4 and signs_ok and worst_kkt <= 1e-3,
               f"(max dual gap={worst_gap:.2e}, max KKT={worst_kkt:.2e})")


def test_criterion_08_mlp_gradient_check():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    h = 1e-5
    for _ in range(20):
        d = int(rng.integers(3, 13))
        hidden = tuple(int(v) for v in rng.integers(2, 9, rng.integers(1, 3)))
        sizes = (d, *hidden, 1)
        weights = [rng.normal(0, 0.6, (a, b)) for a, b in zip(sizes, sizes[1:])]
        biases = [rng.normal(0, 0.3, b) for b in sizes[1:]]
        batch = int(rng.integers(1, 6))
        x = rng.normal(0, 1, (batch, d))
        y = rng.uniform(0, 1, batch)
        _, gw, gb = mlp.loss_and_grads(weights, biases, x, y)
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
    _criterion(8, "MLP analytic gradients match central differences (20 pairs)",
               worst < 1e-4, f"(max rel err={worst:.2e})")


def test_criterion_09_pipeline_determinism(tmp_path):
    both = ("metrics.csv", "predictions.csv", "features_train.csv", "features_test.csv")
    classification = both + ("scatter.svg", "classification.svg")
    small = tmp_path / "small.cfg"
    small.write_text("mlp_epochs = 5\n")   # keeps the regression route fast
    routes = {
        "pca": (["--table", "ternary", "--features", "pca"], classification),
        "kpca": (["--table", "ternary", "--features", "kpca"], classification),
        "mlp": (["--table", "binary-ethanol", "--regression", "--config", str(small)],
                both + ("loss_trace.csv",)),
    }
    identical = True
    for route, (argv, report_files) in routes.items():
        runs = [tmp_path / f"{route}{i}" for i in (1, 2)]
        rcs = [cli_main(["bench", *argv, "--seed", str(SEED), "--out", str(out)])
               for out in runs]
        identical &= rcs == [0, 0] and all(
            (runs[0] / f).read_bytes() == (runs[1] / f).read_bytes()
            for f in report_files)
    _criterion(9, "two identical-seed bench runs emit byte-identical reports "
                  "(PCA, KPCA and MLP regression routes)", identical)


def test_criterion_10_preprocessing_algebra():
    rng = np.random.default_rng(SEED)
    lin_ok = bounds_ok = ident_ok = True
    for _ in range(50):
        n = int(rng.integers(3, 60))
        x = rng.uniform(-10, 10, n)
        y = rng.uniform(-10, 10, n)
        a, b = rng.uniform(-2, 2, 2)
        m = int(rng.choice([1, 3, 5, 7]))
        combined = pp.moving_average(a * x + b * y, m)
        split = a * pp.moving_average(x, m) + b * pp.moving_average(y, m)
        lin_ok &= bool(np.abs(combined - split).max() <= 1e-12)
        out = pp.moving_average(x, m)
        bounds_ok &= bool(out.min() >= x.min() and out.max() <= x.max())
        ident_ok &= bool(np.array_equal(pp.moving_average(x, 1), x))

    poly_ok = True
    worst_resid = 0.0
    for _ in range(30):
        n = int(rng.integers(6, 80))
        t = np.sort(rng.uniform(0, 50, n))
        t[0] -= 1.0  # guard against duplicate-heavy draws
        coeffs = rng.uniform(-3, 3, 3)
        series = coeffs[0] + coeffs[1] * t + coeffs[2] * t**2
        resid = pp.remove_baseline(series, t, degree=2, anchors=np.arange(n))
        worst_resid = max(worst_resid, float(np.abs(resid).max()))
    poly_ok = worst_resid < 1e-9
    _criterion(10, "moving-average algebra; degree<=2 baselines annihilated",
               lin_ok and bounds_ok and ident_ok and poly_ok,
               f"(max poly residual={worst_resid:.2e})")
