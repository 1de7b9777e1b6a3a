import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enose import features as ft
from enose.bench import PipelineConfig
from enose.preprocess import process_session
from enose.sensors import (BASELINE_S, EXPOSURE_S, GasMixture, SensorSpec,
                           clean_traces, divider_voltage, simulate_session,
                           standard_protocol, steady_sensitivity)
from oracles import (charpoly_eigvalsh, default_gamma, eigvec_3x3,
                     extract_features_per_channel, jacobi_eigh)

RATE = 10.0


def features_of(channels):
    """The one feature row of a single session's `(n, 4)` channels."""
    return ft.extract_features(np.asarray(channels, dtype=float), RATE)[0]


class TestExtractFeatures:
    def test_flat_session_gives_zero_features(self):
        values = features_of(np.zeros((700, 4)))
        assert values == pytest.approx(np.zeros(12), abs=1e-12)

    def test_analytic_step_response(self):
        # first-order rise of height h starting at the exposure window
        n = 700
        t = np.arange(n) / RATE
        tau, h = 4.0, 0.8
        rise = np.where(t >= BASELINE_S,
                        h * (1.0 - np.exp(-(t - BASELINE_S) / tau)), 0.0)
        steady, slope, area = features_of(np.column_stack([rise] * 4))[0:3]
        assert abs(steady - h) < 0.01 * h
        # max rise rate of the sampled curve is its first step
        expected_slope = h * (1.0 - math.exp(-0.1 / tau)) * RATE
        assert slope == pytest.approx(expected_slope, rel=1e-6)
        expected_area = np.trapezoid(
            rise[int(BASELINE_S * RATE):int((BASELINE_S + EXPOSURE_S) * RATE)],
            dx=1.0 / RATE)
        assert area == pytest.approx(expected_area, rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        channels = rng.normal(0, 1, (700, 4))
        a = features_of(channels)
        b = features_of(channels.copy())
        assert np.array_equal(a, b)

    def test_short_session_rejected(self):
        with pytest.raises(ValueError, match="exposure"):
            features_of(np.zeros((100, 4)))

    @given(
        k=st.integers(1, 20),
        rate=st.sampled_from([1.0, 4.0, 10.0, 16.0, 50.0]),
        extra=st.integers(0, 40),
        scale=st.sampled_from([1e-6, 1.0, 3.3, 1e3]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_stacked_sessions_match_the_per_channel_oracle(self, k, rate, extra,
                                                          scale, seed):
        n = int(round((BASELINE_S + EXPOSURE_S) * rate)) + extra
        rng = np.random.default_rng(seed)
        sessions = [scale * rng.normal(0.0, 1.0, (n, 4)).cumsum(axis=0)
                    for _ in range(k)]
        got = ft.extract_features(np.hstack(sessions), rate)
        assert got.shape == (k, ft.N_FEATURES)
        for row, channels in zip(got, sessions):
            assert np.array_equal(row, extract_features_per_channel(channels, rate))

    def test_end_to_end_simulated_steady_value(self):
        specs = tuple(
            SensorSpec(r_air=r, sens_coeff=(0.5, 0.1, 0.1),
                       sens_exp=(0.6, 0.6, 0.6), noise_sigma=0.0, drift_rate=0.0)
            for r in (120.0, 45.0, 30.0, 60.0))
        mix = GasMixture(100, 0, 0)
        proto = standard_protocol(mix)
        t_ms, counts = simulate_session(specs, clean_traces(specs, proto)[None], [0], RATE)
        from enose.acquisition import Session
        session = Session(t_ms, counts[0], label=1, mixture=mix, sample_rate_hz=RATE)
        channels = process_session(session.voltages(), session.t_ms,
                                   PipelineConfig().filter_config())
        values = features_of(channels)
        for ch, spec in enumerate(specs):
            s = steady_sensitivity(spec, mix)
            height = (divider_voltage(spec.r_air, spec.r_air / s)
                      - divider_voltage(spec.r_air, spec.r_air))
            # trailing baseline anchors sit on the recovery tail, which
            # biases the fitted baseline up by a few percent of the height;
            # the bias is identical across sessions of a mixture
            assert values[3 * ch] == pytest.approx(height, rel=0.10)


class TestPca:
    def test_rank_one_data(self):
        t = np.linspace(-2, 2, 30)
        x = np.column_stack([t, 3.0 * t])
        model = ft.pca_fit(x)
        assert model.eigenvalues[0] > 0
        assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
        assert model.retained_k == 1

    def test_isotropic_data_has_equal_ratios(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30000, 3))
        model = ft.pca_fit(x)
        ratios = model.eigenvalues / model.eigenvalues.sum()
        assert ratios == pytest.approx([1 / 3] * 3, abs=0.02)

    def test_random_5x3_matches_charpoly_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 2, (5, 3))
        model = ft.pca_fit(x)
        cov = np.cov(x, rowvar=False, bias=True)
        expected = charpoly_eigvalsh(cov)
        assert model.eigenvalues == pytest.approx(expected, abs=1e-8)
        for k in range(3):
            v_oracle = eigvec_3x3(cov, expected[k])
            dot = abs(float(v_oracle @ model.components[k]))
            assert dot == pytest.approx(1.0, abs=1e-8)

    def test_scores_zero_mean_and_variance_equals_eigenvalue(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (50, 6)) @ np.diag([3, 2, 1.5, 1, 0.5, 0.1])
        model = ft.pca_fit(x)
        scores = ft.pca_transform(dataclasses.replace(model, retained_k=6), x)
        assert np.abs(scores.mean(axis=0)).max() < 1e-9
        var = scores.var(axis=0)  # population, matching the fit convention
        assert var == pytest.approx(model.eigenvalues, rel=1e-8)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (20, 4))
        model = ft.pca_fit(x)
        every = dataclasses.replace(model, retained_k=4)
        back = ft.pca_transform(every, x) @ model.components + model.mean
        assert np.abs(back - x).max() < 1e-8

    def test_rotation_leaves_spectrum_unchanged(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (40, 5)) @ np.diag([2.0, 1.5, 1.0, 0.7, 0.2])
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        a = ft.pca_fit(x)
        b = ft.pca_fit(x @ q)
        assert a.eigenvalues == pytest.approx(b.eigenvalues, abs=1e-8)

    def test_components_orthonormal_and_signed(self):
        rng = np.random.default_rng(13)
        x = rng.normal(0, 1, (30, 5))
        model = ft.pca_fit(x)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(5)).max() < 1e-9
        for row in model.components:
            assert row[int(np.argmax(np.abs(row)))] > 0

    def test_equal_eigenvalues_keep_stable_order(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = ft.pca_fit(x)
        assert model.eigenvalues.tolist() == [0.5, 0.5]
        assert np.abs(model.components - np.eye(2)).max() < 1e-12

    def test_retained_k_threshold(self):
        x = np.diag([10.0, 3.0, 0.1]) @ np.eye(3)
        x = np.vstack([x, -x])  # zero mean, cov = diag([100, 9, .01])/3
        model = ft.pca_fit(x, variance_threshold=0.95)
        ratios = np.cumsum(model.eigenvalues) / model.eigenvalues.sum()
        assert ratios[model.retained_k - 1] >= 0.95
        assert model.retained_k == 1 or ratios[model.retained_k - 2] < 0.95

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            ft.pca_fit(np.ones((1, 3)))

    def test_retained_k_within_the_components(self):
        model = ft.pca_fit(np.random.default_rng(3).normal(0, 1, (10, 3)))
        for k in (0, 4, 99):
            with pytest.raises(ValueError, match="retained_k"):
                dataclasses.replace(model, retained_k=k)
        assert dataclasses.replace(model, retained_k=3).retained_k == 3


def jacobi_pca(x, variance_threshold=0.95):
    """pca_fit on the Jacobi oracle's spectrum."""
    mean = x.mean(axis=0)
    xc = x - mean
    w, v = jacobi_eigh(xc.T @ xc / x.shape[0])
    w = np.maximum(w, 0.0)
    cum = np.cumsum(w) / w.sum()
    retained = min(int(np.searchsorted(cum, variance_threshold - 1e-12) + 1), w.size)
    return ft.PcaModel(mean=mean, components=ft.orient_columns(v).T, eigenvalues=w,
                       retained_k=retained)


class TestPcaAgainstJacobi:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_jacobi_reference(self, d):
        # data whose covariance is exactly q diag(lam) q.T, with each
        # eigenvalue twice the next, so every eigenvector is well defined
        rng = np.random.default_rng(200 + d)
        n = 40 + 5 * d
        z = rng.standard_normal((n, d))
        z, _ = np.linalg.qr(z - z.mean(axis=0))   # orthonormal, zero-mean columns
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = 4.0 * 0.5 ** np.arange(d)
        x = math.sqrt(n) * z * np.sqrt(lam) @ q.T + rng.normal(0, 3, d)
        model, ref = ft.pca_fit(x), jacobi_pca(x)
        assert model.retained_k == ref.retained_k
        assert model.eigenvalues == pytest.approx(ref.eigenvalues, abs=1e-12 * lam[0])
        assert model.eigenvalues == pytest.approx(lam, rel=1e-9)
        assert np.abs(model.components - ref.components).max() < 1e-9
        probe = rng.normal(0, 3, (15, d))
        for pts in (x, probe):
            got, want = ft.pca_transform(model, pts), ft.pca_transform(ref, pts)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def dense_kpca(x, variance_threshold=0.95):
    """kpca_fit on the Jacobi oracle's full spectrum, with variance
    fractions against the sum of the eigenvalues kept."""
    gamma = default_gamma(x)
    k = ft.rbf_kernel(x, x, gamma)
    row_means, total_mean = k.mean(axis=1), float(k.mean())
    kc = k - row_means[:, None] - row_means[None, :] + total_mean
    w, v = jacobi_eigh(kc)
    v = ft.orient_columns(v)
    keep = w > ft.EIGENVALUE_FLOOR * max(float(w[0]), 0.0)
    w, v = w[keep], v[:, keep]
    cum = np.cumsum(w) / w.sum()
    retained = min(int(np.searchsorted(cum, variance_threshold - 1e-12) + 1), w.size)
    return ft.KpcaModel(x_train=x.copy(), gamma=gamma, alphas=v / np.sqrt(w),
                        eigenvalues=w, train_row_means=row_means,
                        train_total_mean=total_mean, retained_k=retained)


class TestKpca:
    @pytest.mark.parametrize("n", [3, 10, 20, 33, 45, 70, 100, 120])
    def test_matches_dense_reference(self, n):
        rng = np.random.default_rng(100 + n)
        x = rng.normal(0, 1, (n, 1 + n % 4))
        probe = rng.normal(0, 1, (15, x.shape[1]))
        model, ref = ft.kpca_fit(x), dense_kpca(x)
        k = ref.retained_k
        assert model.retained_k == k
        assert model.eigenvalues[:k] == pytest.approx(ref.eigenvalues[:k],
                                                      abs=1e-9 * ref.eigenvalues[0])
        for pts in (x, probe):
            got, want = ft.kpca_transform(model, pts), ft.kpca_transform(ref, pts)
            for j in range(k):
                err = min(np.abs(got[:, j] - want[:, j]).max(),
                          np.abs(got[:, j] + want[:, j]).max())
                assert err <= 1e-6 * np.abs(want[:, j]).max(), (j, err)

    def test_tiny_gamma_degenerates(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (10, 2))
        k = ft.rbf_kernel(x, x, gamma=1e-12)
        kc = k - k.mean(0) - k.mean(1)[:, None] + k.mean()
        assert np.abs(kc).max() < 1e-9

    def test_train_transform_consistency(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (15, 3))
        model = ft.kpca_fit(x, gamma=0.5)
        direct = ft.kpca_transform(model, x)
        # fitted training scores are sqrt(eig) * eigvec = alphas * eig
        expected = model.alphas[:, :model.retained_k] * model.eigenvalues[:model.retained_k]
        assert np.abs(direct - expected).max() < 1e-9

    def test_three_point_hand_oracle(self):
        x = np.array([[0.0], [1.0], [3.0]])
        gamma = 0.25
        k = np.exp(-gamma * (x - x.T) ** 2)
        h = np.eye(3) - np.ones((3, 3)) / 3.0
        kc = h @ k @ h
        expected = charpoly_eigvalsh(kc)

        model = ft.kpca_fit(x, gamma=gamma, variance_threshold=1.0)
        assert model.eigenvalues == pytest.approx(expected[:model.eigenvalues.size],
                                                  abs=1e-10)
        # centred Gram row sums vanish
        assert np.abs(kc.sum(axis=1)).max() < 1e-12
        # fitted scores reproduce sqrt(eig) * eigvec up to sign
        scores = ft.kpca_transform(model, x)
        for j in range(model.retained_k):
            v = eigvec_3x3(kc, expected[j])
            expected_col = math.sqrt(expected[j]) * v
            got = scores[:, j]
            assert min(np.abs(got - expected_col).max(),
                       np.abs(got + expected_col).max()) < 1e-10

    @given(st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_centered_gram_row_sums_vanish(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (rng.integers(3, 15), rng.integers(1, 4)))
        k = ft.rbf_kernel(x, x, default_gamma(x))
        kc = k - k.mean(1)[:, None] - k.mean(0)[None, :] + k.mean()
        assert np.abs(kc.sum(axis=1)).max() < 1e-9

    def test_retained_eigenvalues_positive(self):
        rng = np.random.default_rng(21)
        x = rng.normal(0, 1, (12, 2))
        model = ft.kpca_fit(x)
        floor = ft.EIGENVALUE_FLOOR * model.eigenvalues[0]
        assert np.all(model.eigenvalues > floor)

    def test_retained_k_within_the_alphas_columns(self):
        model = ft.kpca_fit(np.random.default_rng(21).normal(0, 1, (12, 2)))
        for k in (0, model.alphas.shape[1] + 1):
            with pytest.raises(ValueError, match="retained_k"):
                dataclasses.replace(model, retained_k=k)

    def test_gamma_validation(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            ft.kpca_fit(np.random.default_rng(0).normal(0, 1, (5, 2)), gamma=-1.0)
        # degenerate identical points: heuristic falls back to 1/d
        assert default_gamma(x) == pytest.approx(0.5)


def one_line_sq_dists(a, b):
    """The distance matrix as one expression, before it was built in two buffers."""
    d = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0)


class TestKernelBuffers:
    """The in-place distance, gamma and Gram computations against the
    whole-array expressions they replace, bit for bit."""

    SHAPES = [(1, 1, 1), (2, 3, 1), (5, 5, 12), (7, 4, 3), (40, 40, 12), (3, 9, 2)]

    @pytest.mark.parametrize("n_a, n_b, d", SHAPES)
    def test_sq_dists_match_the_one_line_expression(self, n_a, n_b, d):
        rng = np.random.default_rng(n_a * 100 + n_b * 10 + d)
        # an offset far from 0 makes the expression cancel, often below 0
        a = rng.normal(50.0, 1.0, (n_a, d))
        b = np.vstack([a, rng.normal(50.0, 1.0, (n_b, d))])[:n_b]
        got = ft.pairwise_sq_dists(a, b)
        assert got.tobytes() == one_line_sq_dists(a, b).tobytes()
        gamma = 0.37
        assert (ft.rbf_kernel(a, b, gamma).tobytes()
                == np.exp(-gamma * one_line_sq_dists(a, b)).tobytes())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 48, 51])
    @pytest.mark.parametrize("grid", [False, True])
    def test_gamma_is_np_median_of_the_upper_triangle(self, n, grid):
        # n points give n(n-1)/2 pairs: odd for n = 2, 3, 7, 51, even for
        # 4, 5, 48, none for 1; grid points repeat distances and points
        rng = np.random.default_rng(n)
        x = (rng.integers(0, 3, (n, 3)).astype(float) if grid
             else rng.normal(0.0, 1.0, (n, 3)))
        sq = one_line_sq_dists(x, x)
        if n == 1:
            expected = 1.0 / 3
        else:
            med = float(np.median(sq[np.triu_indices(n, k=1)]))
            expected = 1.0 / (3 * med) if med > 0.0 else 1.0 / 3
        assert default_gamma(x) == expected
        assert ft.median_gamma(ft.pairwise_sq_dists(x, x), 3) == expected

    def test_gamma_of_a_nan_distance_is_nan(self):
        x = np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0], [1.0, 1.0]])
        assert math.isnan(default_gamma(x))

    def test_one_distance_matrix_per_kpca_fit(self, monkeypatch):
        calls = []
        sq_dists = ft.pairwise_sq_dists

        def counting(a, b):
            calls.append((len(a), len(b)))
            return sq_dists(a, b)

        monkeypatch.setattr(ft, "pairwise_sq_dists", counting)
        x = np.random.default_rng(8).normal(0, 1, (12, 3))
        for gamma in (None, 0.4):
            calls.clear()
            ft.kpca_fit(x, gamma=gamma)
            assert calls == [(12, 12)]

    @pytest.mark.parametrize("n", [3, 30, 90])
    def test_kpca_fit_matches_the_whole_array_route(self, n):
        x = np.random.default_rng(n).normal(0, 1, (n, 4))
        model = ft.kpca_fit(x)
        gamma = 1.0 / (4 * float(np.median(one_line_sq_dists(x, x)[np.triu_indices(n, 1)])))
        k = np.exp(-gamma * one_line_sq_dists(x, x))
        row_means = k.mean(axis=1)
        kc = k - row_means[:, None] - row_means[None, :] + float(k.mean())
        w, v = ft._eigh_descending(kc)
        r = model.retained_k
        assert model.gamma == gamma
        assert model.train_row_means.tobytes() == row_means.tobytes()
        assert model.eigenvalues.tobytes() == w[:r].tobytes()
        alphas = np.asfortranarray(ft.orient_columns(v[:, :r]) / np.sqrt(w[:r])[None, :])
        assert model.alphas.tobytes() == alphas.tobytes()
        for pts in (x, x[: n // 3] + 0.1):
            # against the model's copy of x: `x @ x.T` of one array is a
            # symmetric product, which BLAS rounds differently
            kt = np.exp(-gamma * one_line_sq_dists(pts, model.x_train))
            ktc = kt - kt.mean(axis=1)[:, None] - row_means[None, :] + float(k.mean())
            assert ft.kpca_transform(model, pts).tobytes() == (ktc @ alphas).tobytes()


class TestFeatureCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (7, ft.N_FEATURES))
        y = rng.integers(1, 4, 7)
        conc = rng.uniform(0, 100, (7, 3))
        path = tmp_path / "features.csv"
        ft.write_features_csv(path, x, y, conc)
        x2, y2, conc2 = ft.read_features_csv(path)
        assert np.array_equal(x, x2)
        assert np.array_equal(y, y2)
        assert np.array_equal(conc, conc2)

    def test_row_may_end_in_a_comment(self, tmp_path):
        path = tmp_path / "features.csv"
        ft.write_features_csv(path, np.ones((2, ft.N_FEATURES)), [1, 2], np.zeros((2, 3)))
        plain = ft.read_features_csv(path)
        lines = path.read_text().splitlines()
        lines[1] += "  # r\xe9p\xe9t\xe9"
        path.write_text("\n".join(lines) + "\n")
        for a, b in zip(ft.read_features_csv(path), plain, strict=True):
            assert np.array_equal(a, b)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "features.csv"
        ft.write_features_csv(path, np.zeros((1, 12)), [1], np.zeros((1, 3)))
        head = path.read_text().splitlines()[0]
        assert head == ("f1,f2,f3,f4,f5,f6,f7,f8,f9,f10,f11,f12,"
                        "label,acetone_ppm,ethanol_ppm,methanol_ppm")
