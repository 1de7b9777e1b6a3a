import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enose import preprocess as pp
from enose.acquisition import SESSION_HEADER, Session, read_meta
from enose.bench import PipelineConfig
from enose.sensors import GasMixture
from oracles import (brute_moving_average, moving_average_1d, normal_eq_polyfit,
                     process_session_per_channel, remove_baseline_1d)

series_st = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=30).map(np.array)
windows_st = st.sampled_from([1, 3, 5, 7, 9])


class TestMovingAverage:
    def test_window_one_is_identity(self):
        x = np.array([3.0, -1.0, 4.0, 1.5])
        assert np.array_equal(pp.moving_average(x, 1), x)

    def test_constant_series_unchanged(self):
        x = np.full(11, 2.5)
        assert pp.moving_average(x, 5) == pytest.approx(x, abs=1e-15)

    def test_hand_computed_shrink_window(self):
        out = pp.moving_average([1, 2, 3, 4, 5], 3)
        assert out == pytest.approx([1.5, 2, 3, 4, 4.5], abs=1e-12)

    @given(series_st, windows_st)
    @settings(max_examples=150)
    def test_matches_brute_force(self, x, m):
        assert pp.moving_average(x, m) == pytest.approx(
            brute_moving_average(x, m), abs=1e-12)

    @given(series_st, series_st, windows_st,
           st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=100)
    def test_linearity(self, x, y, m, a, b):
        n = min(x.size, y.size)
        x, y = x[:n], y[:n]
        combined = pp.moving_average(a * x + b * y, m)
        split = a * pp.moving_average(x, m) + b * pp.moving_average(y, m)
        assert np.max(np.abs(combined - split)) <= 1e-12

    @given(series_st, windows_st)
    @settings(max_examples=100)
    def test_bounded_by_input_range(self, x, m):
        out = pp.moving_average(x, m)
        assert out.min() >= x.min()
        assert out.max() <= x.max()

    @given(st.integers(1, 40), st.integers(1, 5), windows_st, st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_columns_match_the_1d_oracle(self, n, k, m, seed):
        x = np.random.default_rng(seed).normal(0.0, 3.0, (n, k))
        out = pp.moving_average(x, m)
        assert out.shape == (n, k)
        for j in range(k):
            assert np.array_equal(out[:, j], moving_average_1d(x[:, j], m))
            assert np.array_equal(out[:, j], pp.moving_average(x[:, j], m))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pp.moving_average([], 3)
        with pytest.raises(ValueError):
            pp.moving_average([1.0], 2)


class TestRemoveBaseline:
    def test_exact_line_is_annihilated(self):
        t = np.linspace(0.0, 10.0, 40)
        y = 3.0 - 0.25 * t
        resid = pp.remove_baseline(y, t, degree=1, anchors=np.arange(t.size))
        assert np.max(np.abs(resid)) < 1e-9

    def test_constant_degree_zero(self):
        t = np.arange(8.0)
        resid = pp.remove_baseline(np.full(8, 4.2), t, degree=0)
        assert np.max(np.abs(resid)) < 1e-9

    def test_bump_isolated_and_coeffs_match_normal_equations(self):
        t = np.linspace(0.0, 20.0, 101)
        bump = np.where((t > 8) & (t < 12), 2.0, 0.0)
        y = 0.5 + 0.1 * t + bump
        anchors = np.flatnonzero((t <= 8) | (t >= 12))
        resid = pp.remove_baseline(y, t, degree=1, anchors=anchors)
        assert resid[anchors] == pytest.approx(np.zeros(anchors.size), abs=1e-9)
        assert resid == pytest.approx(bump, abs=1e-9)

        _, coeffs, (t0, tscale) = pp.fit_baseline(y, t, 1, anchors)
        s = (t - t0) / tscale
        expected = normal_eq_polyfit(s[anchors], y[anchors], 1)
        assert coeffs == pytest.approx(expected, abs=1e-9)

    @given(st.integers(0, 3))
    def test_idempotent(self, degree):
        rng = np.random.default_rng(degree)
        t = np.linspace(0.0, 30.0, 60)
        y = rng.normal(0, 1, 60) + 0.3 * t
        first = pp.remove_baseline(y, t, degree=degree)
        second = pp.remove_baseline(first, t, degree=degree)
        assert second == pytest.approx(first, abs=1e-9)

    def test_rank_deficient_fit_rejected(self):
        t = np.zeros(5)
        with pytest.raises(ValueError, match="rank"):
            pp.remove_baseline(np.arange(5.0), t, degree=1,
                               anchors=np.arange(5))

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            pp.remove_baseline([1.0, 2.0], [0.0, 1.0], degree=2)
        with pytest.raises(ValueError, match="shape"):
            pp.remove_baseline(np.zeros((4, 2, 2)), np.arange(4.0), degree=0)

    @given(st.integers(0, 5), st.integers(1, 5), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_each_column_matches_its_own_fit(self, degree, k, seed):
        # a column of a stacked solve rounds differently from its 1-D fit
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.05, 1.0, 60))
        y = rng.normal(0.0, 1.0, (60, k)) + 0.3 * t[:, None]
        baseline, coeffs, _ = pp.fit_baseline(y, t, degree)
        assert baseline.shape == (60, k) and coeffs.shape == (degree + 1, k)
        resid = pp.remove_baseline(y, t, degree)

        def close(got, ref):
            return np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

        for j in range(k):
            one, one_coeffs, _ = pp.fit_baseline(y[:, j], t, degree)
            assert close(baseline[:, j], one)
            assert close(coeffs[:, j], one_coeffs)
            assert close(resid[:, j], remove_baseline_1d(y[:, j], t, degree))

    def test_one_solve_per_call(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counting(a, b, rcond=None):
            calls.append(b.shape)
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        rng = np.random.default_rng(5)
        n, k = 120, 3
        t_ms = np.arange(n) * 100
        volts = np.hstack([Session(t_ms, drifting_counts(rng, n)).voltages()
                           for _ in range(k)])
        channels = pp.process_session(volts, t_ms, PipelineConfig().filter_config())
        assert channels.shape == (n, 4 * k)
        assert calls == [(pp.default_anchors(n).size, 4 * k)]


def drifting_counts(rng, n):
    """(n, 4) noisy ADC counts on a random linear trend per channel."""
    k = np.arange(n)[:, None]
    trend = rng.uniform(500, 3500, 4) + rng.uniform(-2, 2, 4) * k
    return np.clip(np.rint(trend + rng.normal(0, 40, (n, 4))), 0, 4095).astype(np.int64)


class TestProcessSessionOracle:
    @given(
        n=st.integers(30, 400),   # 6 anchors at least, for degree 5
        rate=st.sampled_from([1.0, 4.0, 10.0, 16.0, 50.0]),
        window_m=st.sampled_from([1, 3, 5, 7, 9, 15, 31]),
        degree=st.integers(0, 5),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_channel_oracle(self, n, rate, window_m, degree, seed):
        rng = np.random.default_rng(seed)
        t_ms = np.rint(np.arange(n) * 1000.0 / rate).astype(np.int64)
        session = Session(t_ms, drifting_counts(rng, n), sample_rate_hz=rate)
        channels = pp.process_session(session.voltages(), t_ms,
                                      pp.FilterConfig(window_m, degree))
        # volts; a column of the one stacked baseline solve rounds differently
        # from the oracle's 1-D fit
        np.testing.assert_allclose(
            channels, process_session_per_channel(session, window_m, degree),
            rtol=0, atol=1e-12)

    @given(
        k=st.integers(1, 20),
        n=st.integers(30, 200),
        rate=st.sampled_from([1.0, 4.0, 10.0, 16.0, 50.0]),
        window_m=st.sampled_from([1, 3, 5, 9, 31]),
        degree=st.integers(0, 5),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_sessions_match_per_session_calls(self, k, n, rate, window_m,
                                                      degree, seed):
        rng = np.random.default_rng(seed)
        t_ms = np.rint(np.arange(n) * 1000.0 / rate).astype(np.int64)
        volts = [Session(t_ms, drifting_counts(rng, n)).voltages() for _ in range(k)]
        config = pp.FilterConfig(window_m, degree)
        stacked = pp.process_session(np.hstack(volts), t_ms, config)
        assert stacked.shape == (n, 4 * k)
        assert np.array_equal(stacked, np.hstack([pp.process_session(v, t_ms, config)
                                                  for v in volts]))


class TestStandardizer:
    def test_constant_feature_flagged_and_passed_through(self):
        x = np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 5.0]])
        std = pp.fit_standardizer(x)
        assert std.constant.tolist() == [True, False]
        out = std.transform(x)
        assert out[:, 0].tolist() == [2.0, 2.0, 2.0]

    def test_population_convention(self):
        std = pp.fit_standardizer(np.array([[0.0], [2.0]]))
        assert std.mean[0] == 1.0
        assert std.std[0] == 1.0  # population: sqrt(((0-1)^2+(2-1)^2)/2)
        assert std.transform([[0.0], [2.0]])[:, 0].tolist() == [-1.0, 1.0]

    def test_training_set_maps_to_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(40, 6))
        std = pp.fit_standardizer(x)
        z = std.transform(x)
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-9

    @given(st.integers(0, 100))
    @settings(max_examples=30)
    def test_inverse_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 10, size=(12, 4))
        std = pp.fit_standardizer(x)
        back = std.transform(x) * std.std + std.mean
        assert np.abs(back - x).max() < 1e-9


class TestFilterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            pp.FilterConfig(window_m=4, baseline_degree=2)
        with pytest.raises(ValueError):
            pp.FilterConfig(window_m=5, baseline_degree=6)


def make_session(n=700, rate=10.0):
    rng = np.random.default_rng(1)
    raw = rng.integers(500, 3500, size=(n, 4))
    t_ms = (np.arange(n) * 1000 / rate).astype(np.int64)
    return Session(t_ms, raw, label=1, mixture=GasMixture(50, 0, 0),
                   sample_rate_hz=rate)


class TestProcessedSessionIo:
    def test_process_and_round_trip(self, tmp_path):
        session = make_session()
        config = pp.FilterConfig(window_m=3, baseline_degree=1)
        channels = pp.process_session(session.voltages(), session.t_ms, config)
        path = tmp_path / "processed.csv"
        pp.write_processed(session, channels, config, path)
        lines = path.read_text().splitlines()
        assert lines[:4] == ["# window_m = 3", "# baseline_degree = 1",
                             "# edge_policy = shrink", SESSION_HEADER]

        rows = np.loadtxt(path, delimiter=",", comments="#", skiprows=4)
        assert np.array_equal(rows[:, 0], session.t_ms)
        assert np.array_equal(rows[:, 1:], channels)  # repr round trip
        meta = read_meta(path)
        assert meta == {"label": 1, "mixture": session.mixture, "sample_rate_hz": 10.0}

    def test_processing_removes_linear_drift(self):
        # synthetic drifting flat signal: residual should hug zero
        n, rate = 400, 10.0
        t = np.arange(n) / rate
        drift = 1000 + 2.0 * t
        raw = np.clip(np.round(drift), 0, 4095).astype(int)
        session = Session(np.arange(n) * 100, np.repeat(raw[:, None], 4, axis=1),
                          sample_rate_hz=rate)
        channels = pp.process_session(session.voltages(), session.t_ms,
                                      PipelineConfig().filter_config())
        lsb = 3.3 / 4096
        assert np.abs(channels).max() < 5 * lsb
