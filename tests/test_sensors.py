import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enose import sensors as sn
from oracles import grid_min_power_law, power_law_sse, simulate_session_per_session

QUIET = dict(noise_sigma=0.0, drift_rate=0.0)


def quiet_spec(**overrides):
    kw = dict(r_air=100.0, sens_coeff=(0.5, 0.1, 0.1),
              sens_exp=(0.6, 0.6, 0.6), **QUIET)
    kw.update(overrides)
    return sn.SensorSpec(**kw)


specs_st = st.builds(
    quiet_spec,
    r_air=st.floats(1.0, 500.0),
    sens_coeff=st.tuples(*[st.floats(0.01, 2.0)] * 3),
    sens_exp=st.tuples(*[st.floats(0.05, 1.0)] * 3),
)

mixtures_st = st.builds(
    sn.GasMixture,
    acetone_ppm=st.floats(0.0, 300.0),
    ethanol_ppm=st.floats(0.0, 300.0),
    methanol_ppm=st.floats(0.0, 300.0),
)


# Channel 0's calibration spec: per gas, (s_max, c_half, ppm grid) of the
# saturating target S - 1 = s_max * c / (c + c_half) that its power law
# was least-squares fitted to.
ACETONE_GRID_PPM = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 300.0)
INTERFERENT_GRID_PPM = (1.0, 10.0, 20.0, 50.0, 100.0, 200.0)
TIO2_TARGETS = ((9.0, 60.0, ACETONE_GRID_PPM), (2.2, 90.0, INTERFERENT_GRID_PPM),
                (1.6, 120.0, INTERFERENT_GRID_PPM))
TIO2 = sn.default_sensor_array()[0]


def saturating_excess(gas: int):
    """(grid, target excess sensitivity on it) for one gas of the spec."""
    s_max, c_half, grid = TIO2_TARGETS[gas]
    return grid, [s_max * c / (c + c_half) for c in grid]


def best_amplitude(b: float, grid, excess) -> float:
    """The least-squares a of excess = a * c**b for a fixed b."""
    x = np.asarray(grid) ** b
    return max(0.0, float(x @ np.asarray(excess)) / float(x @ x))


class TestSteadySensitivity:
    @given(specs_st)
    def test_clean_air_identity(self, spec):
        assert sn.steady_sensitivity(spec, sn.CLEAN_AIR) == 1.0

    def test_linear_single_gas(self):
        spec = quiet_spec(sens_coeff=(0.5, 0.0, 0.0), sens_exp=(1.0, 0.5, 0.5))
        assert sn.steady_sensitivity(spec, sn.GasMixture(10, 0, 0)) == pytest.approx(6.0)

    @given(specs_st, mixtures_st, st.integers(0, 2), st.floats(0.1, 50.0))
    @settings(max_examples=100)
    def test_monotone_in_each_gas(self, spec, mix, gas, bump):
        conc = list(mix.as_tuple())
        base = sn.steady_sensitivity(spec, mix)
        conc[gas] += bump
        higher = sn.steady_sensitivity(spec, sn.GasMixture(*conc))
        assert higher >= base

    @pytest.mark.parametrize("gas", range(3), ids=sn.GASES)
    def test_fitted_channel_is_the_least_squares_power_law(self, gas):
        # a is the closed-form best amplitude for b, and b a minimum of the
        # SSE with the amplitude refitted: no lower a step of 1e-6 either way
        a, b = (arr[gas] for arr in (TIO2.sens_coeff, TIO2.sens_exp))
        grid, excess = saturating_excess(gas)
        assert a == best_amplitude(b, grid, excess)
        sse = power_law_sse(a, b, grid, excess)
        for db in (-1e-6, 1e-6):
            b_near = b + db
            assert power_law_sse(best_amplitude(b_near, grid, excess), b_near,
                                 grid, excess) >= sse

    def test_fitted_calibration_matches_grid_oracle(self):
        a_fit, b_fit = TIO2.sens_coeff[0], TIO2.sens_exp[0]
        grid, excess = saturating_excess(0)
        a_gr, b_gr, sse_gr = grid_min_power_law(grid, excess)
        sse_fit = power_law_sse(a_fit, b_fit, grid, excess)
        # the 1-D fit with closed-form amplitude must beat (or match) the
        # coarse 2-D grid minimum, and land in the same basin
        assert sse_fit <= sse_gr + 1e-9
        assert b_fit == pytest.approx(b_gr, abs=0.02)
        assert a_fit == pytest.approx(a_gr, abs=0.05)

    def test_default_array_uses_the_fitted_channel(self):
        arr = sn.default_sensor_array()
        s50 = sn.steady_sensitivity(arr[0], sn.GasMixture(50, 0, 0))
        s_max, c_half, _ = TIO2_TARGETS[0]
        target = 1.0 + s_max * 50.0 / (50.0 + c_half)
        assert s50 == pytest.approx(target, rel=0.15)
        # distinct cross-sensitivity profiles
        per_gas = [np.argmax(s.sens_coeff) for s in arr]
        assert per_gas[0] == 0 and per_gas[2] == 1 and per_gas[3] == 2


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            quiet_spec(r_air=0.0)
        with pytest.raises(ValueError):
            quiet_spec(tau_rise=-1.0)
        with pytest.raises(ValueError):
            quiet_spec(sens_coeff=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            quiet_spec(sens_exp=(1.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            sn.GasMixture(-1.0, 0, 0)
        with pytest.raises(ValueError):
            sn.GasMixture(math.nan, 0, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key, message", [
        ("r_air", "r_air must be {}"),
        ("tau_rise", "tau_rise must be {}"),
        ("tau_fall", "tau_fall must be {}"),
        ("noise_sigma", "noise_sigma must be finite and >= 0"),
        ("drift_rate", "drift_rate must be finite"),
        ("sens_coeff", "coefficients must be finite and >= 0"),
        ("sens_exp", r"exponents must lie in \(0, 1\]"),
    ])
    def test_rejects_non_finite_fields(self, key, message, value):
        # a positive setting reads "> 0" for nan and -inf, "finite" for inf
        message = message.format("finite" if value == math.inf else "> 0")
        if key.startswith("sens_"):
            value = (0.5, value, 0.5)
        with pytest.raises(ValueError, match=message):
            quiet_spec(**{key: value})

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            sn.ExposureProtocol(phases=())
        with pytest.raises(ValueError):
            sn.ExposureProtocol(phases=((sn.CLEAN_AIR, 0.0),))
        for duration, message in ((math.nan, "> 0"), (math.inf, "finite")):
            with pytest.raises(ValueError, match=f"phase duration must be {message}"):
                sn.ExposureProtocol(phases=((sn.CLEAN_AIR, duration),))
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"sample_rate_hz must be in \(0, 1000\]"):
                sn.ExposureProtocol(phases=((sn.CLEAN_AIR, 1.0),), sample_rate_hz=rate)
        proto = sn.ExposureProtocol(phases=((sn.CLEAN_AIR, 2.5),), sample_rate_hz=10)
        assert proto.n_samples == math.ceil(2.5 * 10)


def quiet_array():
    return tuple(
        sn.SensorSpec(r_air=s.r_air, sens_coeff=s.sens_coeff,
                      sens_exp=s.sens_exp, tau_rise=s.tau_rise,
                      tau_fall=s.tau_fall, **QUIET)
        for s in sn.default_sensor_array()
    )


def simulate(specs, proto, seed):
    """One session, as (t_ms, counts[n, 4])."""
    clean = sn.clean_traces(specs, proto)[None]
    t_ms, counts = sn.simulate_session(specs, clean, [seed], proto.sample_rate_hz)
    return t_ms, counts[0]


class TestCleanTraces:
    # 1.1 s at 100 Hz is 110.00000000000001 samples, so sample 110 falls at
    # t == 1.1 s, exactly the end of the only phase
    END_SAMPLE = sn.ExposureProtocol(phases=((sn.GasMixture(100, 0, 0), 1.1),),
                                     sample_rate_hz=100)

    def test_a_sample_at_the_total_duration_stays_in_the_last_phase(self):
        specs = sn.default_sensor_array()
        proto = self.END_SAMPLE
        assert proto.n_samples == 111
        clean = sn.clean_traces(specs, proto)
        mix, duration = proto.phases[0]
        for ch, spec in enumerate(specs):
            target = spec.r_air / sn.steady_sensitivity(spec, mix)
            relaxed = target + (spec.r_air - target) * math.exp(-duration / spec.tau_rise)
            drift = spec.r_air * spec.drift_rate * duration / 3600.0
            assert clean[-1, ch] == pytest.approx(relaxed + drift, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(duration=st.integers(1, 499).map(lambda d: d / 10),
           rate=st.integers(3, 1000), mix=mixtures_st)
    # durations and rates whose last sample falls at the end of the phase
    @example(duration=1.1, rate=100, mix=sn.GasMixture(100, 0, 0))
    @example(duration=2.2, rate=50, mix=sn.GasMixture(0, 40, 60))
    def test_one_gas_phase_stays_above_its_steady_state(self, duration, rate, mix):
        # from r_air, the trace relaxes down towards the target, and the
        # default array's drift only adds to it
        specs = sn.default_sensor_array()
        proto = sn.ExposureProtocol(phases=((mix, duration),), sample_rate_hz=rate)
        clean = sn.clean_traces(specs, proto)
        target = np.array([s.r_air / sn.steady_sensitivity(s, mix) for s in specs])
        assert clean.shape == (proto.n_samples, 4)
        assert (clean >= target).all()


class TestSimulateSession:
    def test_clean_air_is_the_constant_divider_voltage(self):
        specs = quiet_array()
        proto = sn.ExposureProtocol(phases=((sn.CLEAN_AIR, 5.0),), sample_rate_hz=10)
        _, counts = simulate(specs, proto, seed=1)
        expected = [
            int(sn.quantize(np.array([sn.divider_voltage(s.r_air, s.r_air)]))[0])
            for s in specs
        ]
        assert (counts == expected).all()

    def test_two_phase_step_approaches_steady_state(self):
        specs = quiet_array()
        mix = sn.GasMixture(100, 0, 0)
        proto = sn.ExposureProtocol(
            phases=((sn.CLEAN_AIR, 5.0), (mix, 40.0)), sample_rate_hz=10)
        _, counts = simulate(specs, proto, seed=1)
        spec = specs[0]
        # gas phase: counts rise monotonically (resistance decays)
        gas = counts[50:, 0]
        assert np.all(np.diff(gas) >= 0)
        # within 5 tau of the phase entry the response is within 1% of R_air/S
        s = sn.steady_sensitivity(spec, mix)
        v_ss = sn.divider_voltage(spec.r_air, spec.r_air / s)
        k_5tau = 50 + int(5 * spec.tau_rise * 10)
        v_then = counts[k_5tau, 0] * sn.ADC_VREF / sn.ADC_LEVELS
        assert abs(v_then - v_ss) < 0.01 * v_ss

    def test_exponential_convergence_bound(self):
        specs = quiet_array()
        mix = sn.GasMixture(80, 10, 5)
        proto = sn.ExposureProtocol(phases=((mix, 30.0),), sample_rate_hz=10)
        _, counts = simulate(specs, proto, seed=0)
        lsb = sn.ADC_VREF / sn.ADC_LEVELS
        for ch, spec in enumerate(specs):
            volts = counts[:, ch] * lsb
            r = spec.r_air * (sn.ADC_VREF - volts) / volts
            r_ss = spec.r_air / sn.steady_sensitivity(spec, mix)
            gap0 = abs(r[0] - r_ss)
            slack = 2.0 * spec.r_air * sn.ADC_VREF / volts.min() ** 2 * lsb
            for k in (5, 10, 50, 150, 299):
                t = k / 10.0
                bound = gap0 * math.exp(-t / spec.tau_rise)
                assert abs(r[k] - r_ss) <= bound + slack

    def test_seed_determinism_and_range(self):
        specs = sn.default_sensor_array()
        proto = sn.standard_protocol(sn.GasMixture(50, 5, 5))
        t_a, a = simulate(specs, proto, seed=7)
        t_b, b = simulate(specs, proto, seed=7)
        assert np.array_equal(t_a, t_b) and np.array_equal(a, b)
        _, c = simulate(specs, proto, seed=8)
        assert not np.array_equal(a, c)
        assert np.all(np.diff(t_a) > 0)
        assert a.min() >= 0 and a.max() <= sn.ADC_MAX
        assert t_a.shape == (proto.n_samples,) and a.shape == (proto.n_samples, 4)

    def test_timestamps_round_half_to_even(self):
        # at 16 Hz every odd sample falls on a half millisecond
        proto = sn.ExposureProtocol(phases=((sn.CLEAN_AIR, 2.0),), sample_rate_hz=16.0)
        t_ms, _ = simulate(quiet_array(), proto, seed=0)
        assert t_ms.dtype == np.int64
        assert t_ms[:4].tolist() == [0, 62, 125, 188]
        assert t_ms.tolist() == [int(round(k * 1000.0 / 16.0)) for k in range(32)]

    def test_rejects_bad_array_size(self):
        specs = quiet_array()
        proto = sn.standard_protocol(sn.CLEAN_AIR)
        clean = sn.clean_traces(specs, proto)[None]
        with pytest.raises(ValueError):
            sn.clean_traces(specs[:3], proto)
        with pytest.raises(ValueError):
            sn.simulate_session(specs[:3], clean, [0], proto.sample_rate_hz)
        for bad in (clean[0], clean[..., :3], np.vstack([clean, clean])):
            with pytest.raises(ValueError, match="clean traces"):
                sn.simulate_session(specs, bad, [0], proto.sample_rate_hz)

    def test_clean_trace_is_read_only(self):
        noisy = sn.default_sensor_array()
        specs = (dataclasses.replace(noisy[0], noise_sigma=0.0), *noisy[1:])
        proto = sn.standard_protocol(sn.GasMixture(50, 5, 5))
        clean = sn.clean_traces(specs, proto)
        before = clean.copy()
        with pytest.raises(ValueError, match="read-only"):
            clean[0, 0] = 0.0
        # sessions of the row, with noise-free and noisy channels, leave it as it was
        sn.simulate_session(specs, np.broadcast_to(clean, (2, *clean.shape)), [0, 1],
                            proto.sample_rate_hz)
        assert np.array_equal(clean, before)

    @settings(max_examples=40, deadline=None)
    @given(
        sigmas=st.lists(st.sampled_from([0.0, 0.003, 0.02, 0.2]), min_size=4, max_size=4),
        drift=st.sampled_from([0.0, 0.05, 1.5]),
        tau_rise=st.floats(0.5, 20.0),
        tau_fall=st.floats(0.5, 20.0),
        rate=st.sampled_from([1.0, 7.0, 10.0, 16.0, 33.3]),
        mix=mixtures_st,
        seed=st.integers(0, 2**63),
    )
    # noiseless channels between noisy ones
    @example(sigmas=[0.0, 0.02, 0.0, 0.2], drift=0.05, tau_rise=4.0, tau_fall=10.0,
             rate=10.0, mix=sn.GasMixture(50, 5, 5), seed=42)
    def test_matches_the_per_session_oracle(self, sigmas, drift, tau_rise, tau_fall,
                                            rate, mix, seed):
        # noise off on no, some or all channels, and time-constant overrides
        specs = tuple(dataclasses.replace(s, noise_sigma=sigma, drift_rate=drift,
                                          tau_rise=tau_rise, tau_fall=tau_fall)
                      for s, sigma in zip(sn.default_sensor_array(), sigmas))
        proto = sn.standard_protocol(mix, rate)
        t_ms, counts = simulate(specs, proto, seed)
        t_ref, counts_ref = simulate_session_per_session(specs, proto, seed)
        assert np.array_equal(t_ms, t_ref) and np.array_equal(counts, counts_ref)

    @settings(max_examples=30, deadline=None)
    @given(
        sigmas=st.lists(st.sampled_from([0.0, 0.003, 0.02, 0.2]), min_size=4, max_size=4),
        rate=st.sampled_from([1.0, 10.0, 16.0]),
        mixes=st.lists(mixtures_st, min_size=1, max_size=4),
        # (row, seed) per session; the row is taken modulo the number of mixtures
        sessions=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**63)),
                          min_size=1, max_size=20),
    )
    # noiseless channels between noisy ones, over rows of different mixtures
    @example(sigmas=[0.0, 0.02, 0.0, 0.2], rate=10.0,
             mixes=[sn.GasMixture(100, 0, 0), sn.GasMixture(0, 40, 60)],
             sessions=[(0, 1), (1, 2), (0, 3), (1, 4)])
    def test_a_stack_matches_the_per_session_oracle(self, sigmas, rate, mixes, sessions):
        # one call over k sessions, each from any row, equals k single sessions
        specs = tuple(dataclasses.replace(s, noise_sigma=sigma)
                      for s, sigma in zip(sn.default_sensor_array(), sigmas))
        protos = [sn.standard_protocol(mix, rate) for mix in mixes]
        rows = [row % len(mixes) for row, _ in sessions]
        seeds = [seed for _, seed in sessions]
        clean = np.stack([sn.clean_traces(specs, proto) for proto in protos])
        t_ms, counts = sn.simulate_session(specs, clean[rows], seeds, rate)
        assert counts.shape == (len(seeds), protos[0].n_samples, 4)
        for row, seed, got in zip(rows, seeds, counts):
            t_ref, counts_ref = simulate_session_per_session(specs, protos[row], seed)
            assert np.array_equal(t_ms, t_ref) and np.array_equal(got, counts_ref)


class TestDominantLabel:
    @pytest.mark.parametrize("mix,label", [
        (sn.GasMixture(100, 0, 0), sn.LABEL_ACETONE),
        (sn.GasMixture(1, 99, 0), sn.LABEL_ETHANOL),
        (sn.GasMixture(5, 5, 90), sn.LABEL_METHANOL),
        (sn.GasMixture(50, 50, 0), sn.LABEL_ACETONE),   # tie: earlier gas
        (sn.GasMixture(0, 25, 25), sn.LABEL_ETHANOL),   # tie: earlier gas
        (sn.GasMixture(0, 0, 0), sn.LABEL_UNKNOWN),
    ])
    def test_rule(self, mix, label):
        assert sn.dominant_gas_label(mix) == label
