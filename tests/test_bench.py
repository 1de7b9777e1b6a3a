import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enose import bench
from enose.bench import (ExperimentTable, PipelineConfig, StageError,
                         row_counts, stratified_split)
from enose.report import emit_report
from enose.sensors import GasMixture, session_seed, standard_protocol
from oracles import prepare_features_whole_table, simulate_session_per_session

FAST = PipelineConfig(noise_sigma=0.0, mlp_epochs=40)

TINY = ExperimentTable(
    id="tiny",
    rows=(GasMixture(100, 0, 0), GasMixture(0, 100, 0)),
    n_train=16, n_test=8,
)


class TestTables:
    def test_registry_splits_are_pinned(self):
        t = bench.TABLES
        assert (t["binary_ethanol"].n_train, t["binary_ethanol"].n_test) == (600, 80)
        assert (t["binary_methanol"].n_train, t["binary_methanol"].n_test) == (700, 100)
        assert (t["ternary"].n_train, t["ternary"].n_test) == (550, 50)

    def test_base_rows_present_unchanged(self):
        be = bench.TABLES["binary_ethanol"].rows
        assert be[:8] == tuple(
            GasMixture(a, e, 0.0) for a, e in
            ((100, 0), (99, 1), (90, 10), (50, 50),
             (50, 0), (49.5, 0.5), (45, 5), (25, 25)))
        bm = bench.TABLES["binary_methanol"].rows
        assert bm[5] == GasMixture(49.5, 0.0, 0.5)
        tern = bench.TABLES["ternary"].rows
        assert tern[5] == GasMixture(98.0, 0.5, 0.5)
        assert any("98ppm" in n for n in bench.TABLES["ternary"].notes)

    def test_every_class_is_populated(self):
        from enose.sensors import dominant_gas_label
        labels = {dominant_gas_label(m) for m in bench.TABLES["binary_ethanol"].rows}
        assert labels == {1, 2}
        labels = {dominant_gas_label(m) for m in bench.TABLES["binary_methanol"].rows}
        assert labels == {1, 3}
        labels = {dominant_gas_label(m) for m in bench.TABLES["ternary"].rows}
        assert labels == {1, 2, 3}

    def test_table_lookup_accepts_cli_spelling(self):
        assert bench.get_table("binary-ethanol").id == "binary_ethanol"
        with pytest.raises(KeyError):
            bench.get_table("nope")


class TestSplitting:
    def test_row_counts_round_robin(self):
        assert row_counts(10, 4) == [3, 3, 2, 2]
        assert row_counts(680, 16) == [43] * 8 + [42] * 8
        assert row_counts(600, 24) == [25] * 24

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_counts_disjoint_and_stratified(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.choice([1, 2, 3], size=130, p=[0.5, 0.3, 0.2])
        train, test = stratified_split(y, 100, 30, seed)
        assert train.size == 100 and test.size == 30
        assert np.intersect1d(train, test).size == 0
        assert np.union1d(train, test).size == 130
        for c in (1, 2, 3):
            frac_all = (y == c).mean()
            frac_test = (y[test] == c).mean()
            assert abs(frac_all - frac_test) < 0.05

    def test_deterministic(self):
        y = np.repeat([1, 2], 20)
        a = stratified_split(y, 30, 10, 7)
        b = stratified_split(y, 30, 10, 7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_wrong_total_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(np.ones(10), 5, 4, 0)


class TestRunExperiment:
    def test_noiseless_tiny_table_is_perfect(self):
        rep = bench.run_experiment(TINY, FAST, seed=1)
        assert rep.accuracy == 1.0
        assert rep.classes == (1, 2)
        assert rep.confusion.sum() == TINY.n_test
        assert rep.y_true.size == TINY.n_test
        assert rep.scores_2d.shape == (TINY.n_test, 2)

    def test_confusion_row_sums_match_class_counts(self):
        rep = bench.run_experiment(TINY, FAST, seed=1)
        for i, c in enumerate(rep.classes):
            assert rep.confusion[i].sum() == (rep.y_true == c).sum()

    def test_kpca_route(self):
        cfg = dataclasses.replace(FAST, features="kpca")
        rep = bench.run_experiment(TINY, cfg, seed=1)
        assert rep.accuracy == 1.0

    def test_deterministic_reports_byte_identical(self, tmp_path):
        a = bench.run_experiment(TINY, FAST, seed=3)
        b = bench.run_experiment(TINY, FAST, seed=3)
        emit_report(a, tmp_path / "a")
        emit_report(b, tmp_path / "b")
        for name in ("metrics.csv", "predictions.csv", "scatter.svg",
                     "classification.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_stage_errors_carry_the_stage_name(self):
        single = ExperimentTable(id="single", rows=(GasMixture(100, 0, 0),),
                                 n_train=8, n_test=4)
        with pytest.raises(StageError, match=r"\[stage=train\]"):
            bench.run_experiment(single, FAST, seed=0)

    def test_config_echo_and_notes_propagate(self):
        rep = bench.run_experiment(TINY, FAST, seed=1)
        echo = dict(rep.config_echo)
        assert echo["features"] == "pca"
        assert echo["n_train"] == "16"
        assert echo["noise_sigma"] == "0.0"


class TestRegressionExperiment:
    def test_noiseless_tiny_table(self):
        cfg = dataclasses.replace(FAST, mlp_epochs=200)
        rep = bench.run_regression_experiment(TINY, cfg, seed=1)
        acetone_range = 100.0
        assert rep.rmse_ppm < 0.02 * acetone_range
        assert rep.r2 is not None and rep.r2 > 0.99
        assert np.all(np.isfinite(rep.loss_trace))

    def test_single_level_table_reports_undefined_r2(self):
        single = ExperimentTable(id="flat", rows=(GasMixture(100, 0, 0),),
                                 n_train=8, n_test=4)
        rep = bench.run_regression_experiment(single, FAST, seed=0)
        assert rep.r2 is None
        assert np.isfinite(rep.rmse_ppm)


class TestBuildSessions:
    def test_per_row_counts_and_labels(self):
        sessions = list(bench.build_sessions(TINY, FAST, seed=5, per_row=3))
        assert len(sessions) == 6
        assert [s.label for s in sessions] == [1, 1, 1, 2, 2, 2]
        n = standard_protocol(GasMixture()).n_samples
        assert all(s.t_ms.shape == (n,) and s.counts.shape == (n, 4) for s in sessions)

    def test_default_counts_follow_the_table_split(self):
        sessions = list(bench.build_sessions(TINY, FAST, seed=5))
        assert [s.label for s in sessions] == [1] * 12 + [2] * 12

    def test_rejects_zero_per_row(self):
        with pytest.raises(ValueError, match="per_row"):
            bench.build_sessions(TINY, FAST, seed=0, per_row=0)

    def test_sessions_differ_across_reps_with_noise(self):
        one_row = ExperimentTable(id="one", rows=(GasMixture(100, 0, 0),),
                                  n_train=1, n_test=1)
        a, b = bench.build_sessions(one_row, PipelineConfig(), seed=5, per_row=2)
        assert not np.array_equal(a.counts, b.counts)

    def test_per_row_prefix_matches_the_table_split(self):
        # session (row, rep) has its own seed, so the two counts agree on shared reps
        split = list(bench.build_sessions(TINY, PipelineConfig(), seed=5))
        per_row = list(bench.build_sessions(TINY, PipelineConfig(), seed=5, per_row=2))
        for a, b in zip(per_row, [split[0], split[1], split[12], split[13]]):
            assert np.array_equal(a.counts, b.counts) and a.label == b.label

    @given(
        noise_sigma=st.sampled_from([0.0, 0.02, 0.1]),
        drift_rate=st.sampled_from([0.0, 0.05, -0.5]),
        tau_rise=st.none() | st.floats(0.5, 20.0),
        tau_fall=st.none() | st.floats(0.5, 20.0),
        rate=st.sampled_from([2.0, 10.0, 16.0, 25.0]),
        per_row=st.integers(1, 3),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_the_per_session_oracle(self, noise_sigma, drift_rate, tau_rise,
                                            tau_fall, rate, per_row, seed):
        config = PipelineConfig(noise_sigma=noise_sigma, drift_rate=drift_rate,
                                tau_rise=tau_rise, tau_fall=tau_fall, sample_rate_hz=rate)
        table = ExperimentTable(id="three", n_train=4, n_test=2, rows=(
            GasMixture(100, 0, 0), GasMixture(0, 40, 60), GasMixture(0, 0, 0)))
        sessions = list(bench.build_sessions(table, config, seed, per_row=per_row))
        specs = bench.sensor_array_for(config)
        expected = [simulate_session_per_session(specs, standard_protocol(mix, rate),
                                                 session_seed(seed, row, rep))
                    for row, mix in enumerate(table.rows) for rep in range(per_row)]
        assert len(sessions) == len(expected)
        for session, (t_ms, counts) in zip(sessions, expected):
            assert np.array_equal(session.t_ms, t_ms)
            assert np.array_equal(session.counts, counts)


MIXTURES = (GasMixture(100, 0, 0), GasMixture(0, 100, 0), GasMixture(0, 0, 100),
            GasMixture(50, 25, 25), GasMixture(10, 80, 10), GasMixture(0, 0, 0))


class TestStreamedFrontEnd:
    @given(
        rows=st.lists(st.sampled_from(MIXTURES), min_size=1, max_size=6),
        reps=st.data(),
        noise_sigma=st.sampled_from([0.0, 0.02]),
        features=st.sampled_from(["pca", "kpca"]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_the_whole_table_oracle(self, rows, reps, noise_sigma, features, seed):
        # 1-3 sessions per row: row_counts spreads n_total over the rows
        n_total = reps.draw(st.integers(max(3, len(rows)), 3 * len(rows)))
        n_test = reps.draw(st.integers(1, n_total - 2))
        table = ExperimentTable(id="drawn", rows=tuple(rows),
                                n_train=n_total - n_test, n_test=n_test)
        config = PipelineConfig(noise_sigma=noise_sigma, features=features)
        try:
            expected = prepare_features_whole_table(table, config, seed)
        except StageError as exc:
            with pytest.raises(StageError) as got:
                bench.prepare_features(table, config, seed)
            assert (got.value.stage, str(got.value)) == (exc.stage, str(exc))
            return
        got = bench.prepare_features(table, config, seed)
        for name in ("x", "y", "conc", "train_idx", "test_idx", "z_train", "z_test"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_peak_memory_does_not_grow_with_the_table(self):
        rows = MIXTURES[:5] + (GasMixture(30, 30, 40),)

        def peak_mb(n_total):
            table = ExperimentTable(id="six", rows=rows, n_train=n_total - 6, n_test=6)
            tracemalloc.start()
            try:
                bench.prepare_features(table, PipelineConfig(), seed=3)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        peak_mb(12)   # first-use caches are built outside the measurement
        small, large = peak_mb(30), peak_mb(120)
        assert large <= small + 0.5, (small, large)

    @pytest.mark.parametrize("name, stage", [
        ("simulate_session", "generate"),
        ("process_session", "preprocess"),
        ("extract_features", "extract"),
    ])
    def test_failure_in_a_later_session_keeps_its_stage(self, monkeypatch, name, stage):
        # TINY has 24 sessions; every stage runs once per chunk, and its
        # 2nd call holds sessions 16-23
        assert TINY.n_total > bench.FRONT_CHUNK == 16
        failing_call = 2
        real = getattr(bench, name)
        calls = []

        def later_call_fails(*args, **kwargs):
            calls.append(name)
            if len(calls) == failing_call:
                raise ValueError(f"{name} failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, name, later_call_fails)
        with pytest.raises(StageError, match=f"{name} failed") as exc:
            bench.prepare_features(TINY, FAST, seed=0)
        assert exc.value.stage == stage

    def test_builds_no_session(self, monkeypatch):
        # the front end reads the simulator's arrays; only `enose simulate`
        # wraps them as sessions
        def no_session(*args, **kwargs):
            raise AssertionError("prepare_features built a Session")

        monkeypatch.setattr(bench, "Session", no_session)
        fs = bench.prepare_features(TINY, FAST, seed=0)
        assert fs.x.shape == (TINY.n_total, bench.N_FEATURES)
        assert fs.y.tolist() == [1] * 12 + [2] * 12

    def test_each_stage_is_logged_once(self, caplog):
        with caplog.at_level(logging.INFO, logger="enose.bench"):
            bench.prepare_features(TINY, FAST, seed=0)
        assert [r.getMessage() for r in caplog.records] == [
            f"stage {name}" for name in ("generate", "preprocess", "extract",
                                         "split", "standardize", "reduce")]
