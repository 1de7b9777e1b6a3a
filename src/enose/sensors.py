"""Seedable simulator of a 4-channel metal-oxide gas sensor array.

Response model
--------------
Each sensor's steady-state sensitivity to a gas mixture is an additive
power law over the three gases:

    S = 1 + sum_g a_g * C_g ** b_g        (S = 1 in clean air)

with per-gas coefficients a_g >= 0 and exponents b_g in (0, 1], so the
response is monotone and concave in every concentration.  The sensor
resistance in gas is R_air / S; transitions between phases follow a
first-order relaxation with separate rise (into gas) and fall (back to
air) time constants.  A linear baseline drift and multiplicative
Gaussian noise are applied on top, then the resistance is read out
through a voltage divider and quantized to 12-bit ADC counts, a whole
(k, n, 4) stack of sessions at once; a channel is its last index.

The default array holds one acetone-dominant channel whose power-law
coefficients were least-squares fitted once to saturating target curves
(the literals in ``default_sensor_array`` name them), plus three channels
with distinct hand-set cross-sensitivity profiles, so the array as a
whole separates acetone / ethanol / methanol mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check_positive, check_sizes

GASES = ("acetone", "ethanol", "methanol")

LABEL_UNKNOWN = 0
LABEL_ACETONE = 1
LABEL_ETHANOL = 2
LABEL_METHANOL = 3
LABELS = range(LABEL_UNKNOWN, LABEL_METHANOL + 1)  # every label a session may carry

ADC_VREF = 3.3
ADC_LEVELS = 4096
ADC_MAX = 4095
VOLTS_PER_COUNT = ADC_VREF / ADC_LEVELS  # exact: ADC_LEVELS is a power of two

# Session timing (seconds): air baseline, gas exposure, air recovery.
BASELINE_S = 10.0
EXPOSURE_S = 30.0
RECOVERY_S = 30.0
SAMPLE_RATE_HZ = 10.0

DEFAULT_NOISE_SIGMA = 0.02
DEFAULT_DRIFT_RATE = 0.05  # fraction of r_air per hour


@dataclass(frozen=True)
class GasMixture:
    """ppm concentrations of the three gases in a test atmosphere."""

    acetone_ppm: float = 0.0
    ethanol_ppm: float = 0.0
    methanol_ppm: float = 0.0

    def __post_init__(self):
        for name, c in zip(GASES, self.as_tuple()):
            if not math.isfinite(c) or c < 0:
                raise ValueError(f"{name} concentration must be finite and >= 0, got {c}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.acetone_ppm, self.ethanol_ppm, self.methanol_ppm)


CLEAN_AIR = GasMixture(0.0, 0.0, 0.0)


def dominant_gas_label(mix: GasMixture) -> int:
    """Class label of the gas with the largest concentration.

    Ties go to the earlier gas in (acetone, ethanol, methanol) order;
    clean air maps to LABEL_UNKNOWN.
    """
    conc = mix.as_tuple()
    if sum(conc) == 0.0:
        return LABEL_UNKNOWN
    return 1 + max(range(3), key=lambda g: (conc[g], -g))


@dataclass(frozen=True)
class SensorSpec:
    """Static description of one array channel.

    sens_coeff / sens_exp are per-gas (acetone, ethanol, methanol)
    power-law parameters; r_air is the clean-air resistance in kOhm and
    doubles as the divider load resistance.
    """

    r_air: float
    sens_coeff: tuple[float, float, float]
    sens_exp: tuple[float, float, float]
    tau_rise: float = 4.0
    tau_fall: float = 10.0
    drift_rate: float = DEFAULT_DRIFT_RATE
    noise_sigma: float = DEFAULT_NOISE_SIGMA

    def __post_init__(self):
        for key in ("r_air", "tau_rise", "tau_fall"):
            check_positive(key, getattr(self, key))
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if not math.isfinite(self.drift_rate):
            raise ValueError("drift_rate must be finite")
        check_sizes({"gases": 3, "sens_coeff": len(self.sens_coeff),
                     "sens_exp": len(self.sens_exp)})
        if any(not 0 <= a < math.inf for a in self.sens_coeff):
            raise ValueError("sensitivity coefficients must be finite and >= 0")
        if not any(a > 0 for a in self.sens_coeff):
            raise ValueError("sensor must respond to at least one gas")
        if any(not 0 < b <= 1 for b in self.sens_exp):
            raise ValueError("sensitivity exponents must lie in (0, 1]")


@dataclass(frozen=True)
class ExposureProtocol:
    """Ordered gas phases with durations, sampled at a fixed rate."""

    phases: tuple[tuple[GasMixture, float], ...]
    sample_rate_hz: float = SAMPLE_RATE_HZ

    def __post_init__(self):
        if not self.phases:
            raise ValueError("protocol needs at least one phase")
        for _, duration in self.phases:
            check_positive("phase duration", duration)
        if not 0 < self.sample_rate_hz <= 1000:
            raise ValueError("sample_rate_hz must be in (0, 1000]")

    @property
    def total_duration_s(self) -> float:
        return sum(d for _, d in self.phases)

    @property
    def n_samples(self) -> int:
        return math.ceil(self.total_duration_s * self.sample_rate_hz)


def standard_protocol(mix: GasMixture, sample_rate_hz: float = SAMPLE_RATE_HZ) -> ExposureProtocol:
    """Air baseline -> 30 s gas exposure -> air recovery."""
    return ExposureProtocol(
        phases=(
            (CLEAN_AIR, BASELINE_S),
            (mix, EXPOSURE_S),
            (CLEAN_AIR, RECOVERY_S),
        ),
        sample_rate_hz=sample_rate_hz,
    )


def steady_sensitivity(spec: SensorSpec, mix: GasMixture) -> float:
    """Steady-state resistance ratio R_air / R_gas for a mixture (>= 1)."""
    s = 1.0
    for a, b, c in zip(spec.sens_coeff, spec.sens_exp, mix.as_tuple()):
        if a > 0 and c > 0:
            s += a * c**b
    return s


def divider_voltage(r_air: np.ndarray | float,
                    resistance: np.ndarray | float) -> np.ndarray | float:
    """Readout voltage of a sensor in a divider with R_load = r_air."""
    return ADC_VREF * r_air / (r_air + resistance)


def quantize(volts: np.ndarray) -> np.ndarray:
    """12-bit ADC: truncating conversion of volts to counts in [0, 4095]."""
    counts = np.floor(np.asarray(volts, dtype=float) * ADC_LEVELS / ADC_VREF)
    return np.clip(counts, 0, ADC_MAX).astype(np.int64)


def _per_channel(specs: tuple[SensorSpec, ...], key: str) -> np.ndarray:
    """One field of every channel, as a (4,) vector in channel order."""
    if len(specs) != 4:
        raise ValueError("the array has exactly 4 channels")
    return np.array([getattr(spec, key) for spec in specs])


def clean_traces(specs: tuple[SensorSpec, ...], proto: ExposureProtocol) -> np.ndarray:
    """Noise-free, drift-added resistance of every channel, (n, 4), read-only.

    One relaxation pass per phase covers every channel, from the phase's
    start to the trace's end (the next phase overwrites its own part).
    Every session of a mixture row shares this trace; only its noise differs.
    """
    r_air = _per_channel(specs, "r_air")
    tau_rise, tau_fall = _per_channel(specs, "tau_rise"), _per_channel(specs, "tau_fall")
    t = np.arange(proto.n_samples) * (1.0 / proto.sample_rate_hz)
    clean = np.empty((t.size, 4))
    r_entry = r_air
    phase_start = 0.0
    for mix, duration in proto.phases:
        target = r_air / np.array([steady_sensitivity(spec, mix) for spec in specs])
        tau = np.where(target < r_entry, tau_rise, tau_fall)
        mask = t >= phase_start
        clean[mask] = target + (r_entry - target) * np.exp(-(t[mask, None] - phase_start) / tau)
        # math.exp, not np.exp: the two can differ in the last bit
        r_entry = target + (r_entry - target) * np.array([math.exp(x) for x in -duration / tau])
        phase_start += duration
    clean += r_air * _per_channel(specs, "drift_rate") * (t[:, None] / 3600.0)
    clean.flags.writeable = False
    return clean


def simulate_session(specs: tuple[SensorSpec, ...], clean: np.ndarray, seeds: list[int],
                     sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Simulate k acquisition sessions as (t_ms[n], counts[k, n, 4]).

    `clean[i]` is session i's `clean_traces`, shared by its mixture row.
    Session i's noise is one (m, n) draw from `default_rng(seeds[i])` for
    its m channels with noise_sigma > 0, in channel order; the whole stack
    is then read out at once.  Identical inputs give identical arrays.
    Sample j is stamped round(j * 1000 / sample_rate_hz) ms.
    """
    sigma = _per_channel(specs, "noise_sigma")
    if clean.ndim != 3 or clean.shape != (len(seeds), n := clean.shape[1], 4):
        raise ValueError(f"clean traces must have shape ({len(seeds)}, n, 4), got {clean.shape}")
    noisy = sigma > 0
    gain = np.ones(clean.shape)
    for i, seed in enumerate(seeds):
        noise = np.random.default_rng(seed).standard_normal((np.count_nonzero(noisy), n))
        gain[i][:, noisy] = 1.0 + sigma[noisy] * noise.T
    counts = quantize(divider_voltage(_per_channel(specs, "r_air"),
                                      np.maximum(clean * gain, 1e-9)))

    # rint rounds half to even, as Python's round does
    t_ms = np.rint(np.arange(n) * 1000.0 / sample_rate_hz).astype(np.int64)
    return t_ms, counts


def session_seed(seed: int, row: int, rep: int) -> int:
    """Deterministic per-session child seed, independent of generation order."""
    ss = np.random.SeedSequence((seed, row, rep))
    return int(ss.generate_state(1, np.uint64)[0])


def default_sensor_array() -> tuple[SensorSpec, ...]:
    """The default 4-channel array with distinct cross-sensitivity profiles."""
    return (
        # acetone-dominant TiO2 channel: the power law least-squares fitted
        # to S - 1 = s_max * c / (c + c_half) with s_max/c_half 9.0/60 ppm
        # (acetone), 2.2/90 ppm (ethanol) and 1.6/120 ppm (methanol)
        SensorSpec(r_air=120.0,
                   sens_coeff=(0.5176564179026558, 0.08119565586322176, 0.04062565359181517),
                   sens_exp=(0.4869833517955493, 0.5599716577357634, 0.6105077689145484)),
        # broad-response channel
        SensorSpec(r_air=45.0,
                   sens_coeff=(0.30, 0.34, 0.26), sens_exp=(0.55, 0.52, 0.58)),
        # ethanol-leaning channel
        SensorSpec(r_air=30.0,
                   sens_coeff=(0.18, 0.90, 0.12), sens_exp=(0.60, 0.62, 0.58)),
        # methanol-leaning channel
        SensorSpec(r_air=60.0,
                   sens_coeff=(0.15, 0.20, 0.85), sens_exp=(0.60, 0.55, 0.62)),
    )
