"""Calibration and preparation procedures: pseudo-pure state via spatial
averaging, Rabi pulse calibration, inversion-recovery T1 and spin-echo T2
scans, and the least-squares fits behind them.

Every experiment is expressed purely in x/y pulses, delays, and crushers;
nothing writes the state directly. Each pulse is built by the one pulse
constructor, `dynamics.square_pulse`. A scan builds one program per point
and evolves all of them in one `evolve_programs` call, reading its (B, d, d)
state stack; the T2 echo's offset ensemble is one call too, one variant per
offset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .dynamics import (PULSE_AMPLITUDE, Crusher, Delay, PulseProgram, evolve_program,
                       evolve_programs, square_pulse)
from .errors import FitError, ValidationError
from .quantum import FINITE_NUMBERS, DensityMatrix, Option
from .spinsys import SpinSystemConfig, _line_table, thermal_state

# Pulses in the spatial-averaging sequence are meant to be instantaneous
# rotations; this amplitude keeps J evolution during them below 1e-9.
PPS_PULSE_AMP_HZ = 1e13
SCAN_AMP_HZ = 12.5e3  # the scans' default pulse amplitude
# The half-width of a static offset inhomogeneity, Hz: the T2 echo's ensemble spans twice it
OFFSET_SPREAD = Option(0.0, kind=float, ok=lambda spread: np.isfinite(2.0 * spread),
                       rule="offset spread (the ensemble's half-width) and twice it must be finite")
# The T2 echo's molecule offsets across the spread; each is one program per delay
ENSEMBLE_POINTS = Option(11, kind=int, rule="ensemble_points must be an integer >= 2, at most 1000",
                         ok=lambda points: 2 <= points <= 1000)
# The default delays of the T1 and T2 scans by mode, s: log-spaced, they bracket the presets' T1/T2
DELAYS_S = {
    "T1": (
        20e-6, 50e-6, 100e-6, 200e-6, 400e-6, 1.2e-3, 4e-3, 12e-3,
        50e-3, 200e-3, 1.0, 4.0, 15.0,
    ),
    "T2": tuple(
        2.0 * h for h in (10e-6, 20e-6, 40e-6, 80e-6, 160e-6, 500e-6, 1.5e-3, 5e-3,
                          20e-3, 80e-3, 320e-3, 1.5)
    ),
}


@dataclass(frozen=True)
class FitResult:
    model: str
    params: dict[str, float]
    residual: float  # rms of (fit - data)

    def predict(self, x: np.ndarray) -> np.ndarray:
        name, shape = _MODELS[self.model]
        return self.params["amplitude"] * shape(np.asarray(x, dtype=float) / self.params[name])[0]


@dataclass(frozen=True)
class ScanResult:
    x: np.ndarray
    y: np.ndarray
    fit: Optional[FitResult]

    def csv_text(self) -> str:
        fit_y = self.fit.predict(self.x) if self.fit else np.full_like(self.y, np.nan)
        rows = (f"{xi:.12g},{yi:.12g},{fi:.12g}\n" for xi, yi, fi in zip(self.x, self.y, fit_y))
        return "x,y,fit_y\n" + "".join(rows)


# model -> (name of theta, u -> (g, dg/d ln theta)) for amplitude * g(u), u = x / theta
_MODELS = {
    "exp_decay": ("tau", lambda u: (np.exp(-u), u * np.exp(-u))),
    "inversion_recovery": ("tau", lambda u: (1.0 - 2.0 * np.exp(-u), -2.0 * u * np.exp(-u))),
    "abs_sine": ("period", lambda u: (np.abs(np.sin(np.pi * u)), -np.pi * u * np.cos(np.pi * u)
                                      * np.sign(np.sin(np.pi * u)))),
}
FIT_MODEL = Option(choices=tuple(_MODELS))
_MAX_ITERATIONS = 100
_STEP_TOL = 1e-13  # change of ln theta at which a fit has converged


def _abs_sine_period_guess(x: np.ndarray, y: np.ndarray) -> float:
    """Coarse grid search for the |sin| period from two sample spacings up (below, it aliases)."""
    span = float(np.max(x) - np.min(x))
    # the median spacing, as statistics.median takes it: np.median would import numpy.ma
    # (1.3 MB), statistics imports decimal and fractions
    gaps = sorted(np.diff(np.sort(x)).tolist())
    mid = len(gaps) // 2
    median = gaps[mid] if len(gaps) % 2 else (gaps[mid - 1] + gaps[mid]) / 2
    shortest = max(span / 20.0, 2.0 * median)
    candidates = np.linspace(shortest, 4.0 * span, 800)
    amp = float(np.max(np.abs(y)))
    models = amp * np.abs(np.sin(np.pi * x / candidates[:, np.newaxis]))
    return candidates[np.argmin(np.sum((models - y) ** 2, axis=1))]


def _profile(x: np.ndarray, y: np.ndarray, shape, theta):
    """g, dg, the least-squares amplitude held at >= 0 and the residual y - amplitude * g
    at theta (a number, or a column of candidates)."""
    with np.errstate(all="ignore"):
        g, dg = shape(x / theta)
        amp = np.fmax((g @ y) / np.einsum("...i,...i", g, g), 0.0)  # an all-zero g gets 0
        return g, dg, amp, y - amp[..., np.newaxis] * g


def _refine(x: np.ndarray, y: np.ndarray, shape, theta: float) -> float:
    """The minimum of |y - A*(theta) g|^2 nearest theta: Gauss-Newton steps in ln theta
    with Kaufman's variable-projection Jacobian (Golub & Pereyra, SIAM J. Numer. Anal.
    10, 413 (1973)); an overshoot halves the next step, so no kink makes it cycle."""
    s, limit, before = np.log(theta), 0.5, 0.0
    for _ in range(_MAX_ITERATIONS):
        g, dg, amp, r = _profile(x, y, shape, np.exp(s))
        slope = float(dg @ r)  # -(d |r|^2 / d ln theta) / (2 amp)
        if amp == 0.0 or slope == 0.0:
            return float(np.exp(s))
        if slope * before < 0.0:
            limit = 0.5 * abs(step)
        with np.errstate(all="ignore"):  # 0/0 on data that does not fit: the fit fails below
            pdg = dg - (g @ dg) / (g @ g) * g
        step = max(-limit, min(limit, slope / (amp * float(pdg @ pdg) + 1e-300)))
        if abs(step) <= _STEP_TOL:
            return float(np.exp(s + step))
        s, before = s + step, slope
    raise FitError(f"fit did not converge within {_MAX_ITERATIONS} iterations")


def fit_model(x: Sequence[float], y: Sequence[float], model: str) -> FitResult:
    """Deterministic least-squares fit of amplitude * g(x / theta): theta starts
    at the best of a candidate grid, and `_refine` takes it to the nearest minimum."""
    name, shape = _MODELS[FIT_MODEL.check("model", model)]
    x, y = (np.array(FINITE_NUMBERS.check("", v)) for v in (x, y))
    if x.shape != y.shape:
        raise ValidationError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise ValidationError("need at least 3 points to fit 2 parameters")
    if float(np.max(np.abs(y))) < 1e-300:
        raise FitError("data carries no signal")
    if float(np.max(x) - np.min(x)) <= 0:
        raise FitError("x values are degenerate")
    # fit y / 2^e, its max |y| in [0.5, 1): exact, so no theta or verdict depends on y's scale
    e = int(np.frexp(np.max(np.abs(y)))[1])
    y = np.ldexp(y, -e)
    if model == "abs_sine":
        theta = _refine(x, y, shape, _abs_sine_period_guess(x, y))
        # |sin| has a kink in T wherever a sample sits on a zero, |x| = m T, and a lower
        # minimum can lie just across one: refine again from the far side of each within 1 %
        kinks = np.abs(x) / np.maximum(np.round(np.abs(x) / theta), 1.0)
        kinks = sorted(set(kinks[np.abs(kinks / theta - 1.0) < 1e-2].tolist()))  # no numpy.ma
        fits = [theta] + [_refine(x, y, shape, k * (1 + 1e-9 * np.sign(k - theta))) for k in kinks]
        theta = min(fits, key=lambda t: float(np.sum(_profile(x, y, shape, t)[3] ** 2)))
    else:  # start from the best of 10 time constants per decade over 1e-6..1e3 x ranges
        taus = np.geomspace(1e-6, 1e3, 91)[:, np.newaxis] * float(np.max(x) - np.min(x))
        sse = np.nan_to_num(np.sum(_profile(x, y, shape, taus)[3] ** 2, axis=-1), nan=np.inf)
        theta = _refine(x, y, shape, float(taus[np.argmin(sse), 0]))
    _, _, amp, r = _profile(x, y, shape, theta)
    rms = np.sqrt(np.mean(r**2))
    with np.errstate(over="ignore"):  # back to the data's scale
        amplitude, residual = np.ldexp([amp, rms], e).tolist()
    if not rms <= 0.2 * float(np.sqrt(np.mean(y**2))) + 1e-12:
        raise FitError(f"fit residual {residual:.3g} too large for model {model!r}")
    if not np.isfinite(amplitude):
        raise FitError("fit amplitude is past the float range")
    return FitResult(model, {"amplitude": amplitude, name: theta}, residual)


def prepare_pseudo_pure(config: SpinSystemConfig) -> tuple[PulseProgram, DensityMatrix]:
    """Spatial-averaging pseudo-pure |00> preparation on a two-spin system.

    Sequence: Rx on spin 2 by pi/3, crusher, Rx on spin 1 by pi/4, a
    1/(2J) delay, Ry on spin 1 by -pi/4, crusher. Starting from the
    thermal state the surviving deviation is (sz1 + sz2 + sz1 sz2)/2 in
    units of the initial per-spin deviation, i.e. pseudo-pure |00>.
    """
    if config.n != 2:
        raise ValidationError("spatial-averaging recipe is defined for exactly 2 qubits")
    j = float(config.j_hz[0, 1])
    if j == 0.0:
        raise ValidationError("pseudo-pure preparation needs a nonzero J coupling")

    def pulse(qubit, phase, angle):
        channel = config.channel_index(config.nuclei[qubit - 1].label)
        return square_pulse(config, {channel: phase}, angle / (2 * np.pi * PPS_PULSE_AMP_HZ),
                            PPS_PULSE_AMP_HZ)

    # Ry(-pi/4) is a pi/4 pulse about -y
    events = (pulse(2, 0.0, np.pi / 3), Crusher(), pulse(1, 0.0, np.pi / 4),
              Delay(1.0 / (2.0 * abs(j))), pulse(1, 1.5 * np.pi, np.pi / 4), Crusher())
    program = PulseProgram(system=config, events=events)
    rho = evolve_program(thermal_state(config), program, relaxation=False)
    return program, rho


def _channel_signal(states: np.ndarray, config: SpinSystemConfig, channel: str) -> np.ndarray:
    """<sigma_x> + i <sigma_y> summed over a channel's spins, for each state of a (B, d, d)
    stack: the channel's `_line_table` readings of each state's Hermitian part, summed."""
    table, hermitian_twice = _line_table(config), states + states.conj().swapaxes(1, 2)
    lines = [k for k, ch in enumerate(table.channels) if ch == channel]
    return table.readings(hermitian_twice)[:, lines].sum(axis=1) / config.dim


def _scan_amplitude(amplitude_hz) -> float:
    """`PULSE_AMPLITUDE`, and two periods at amplitude_hz finite: no pulse of a scan is longer."""
    amp = PULSE_AMPLITUDE.check("amplitude_hz", amplitude_hz)
    if not np.isfinite(2.0 / amp):
        raise ValidationError("amplitude_hz too small: two periods at it overflow")
    return amp


def rabi_calibration(
    config: SpinSystemConfig, channel: str, amplitude_hz: float = SCAN_AMP_HZ,
    durations_s: Optional[Sequence[float]] = None,
) -> tuple[ScanResult, float, float]:
    """Nutation-curve pulse calibration at fixed power.

    Plays a resonant pulse of each duration (default: 16 over two periods at
    amplitude_hz) on the thermal state, records the transverse magnitude,
    fits A|sin(pi t / t180)|, and returns (scan, t90, t180).
    """
    amp, c = _scan_amplitude(amplitude_hz), config.channel_index(channel)
    if durations_s is None:
        durations_s = np.linspace(0.0, 2.0 / amp, 17)[1:]
    durations = np.asarray(sorted(FINITE_NUMBERS.check("durations_s", durations_s)))
    if durations.size < 8:
        raise ValidationError("need at least 8 durations spanning a period")
    pulses = [square_pulse(config, {c: 0.0}, t, amp) for t in durations]
    states = evolve_programs(thermal_state(config), [PulseProgram(config, (p,)) for p in pulses])
    y = np.abs(_channel_signal(states, config, channel))
    fit = fit_model(durations, y, "abs_sine")
    t180 = fit.params["period"]
    return ScanResult(x=durations, y=y, fit=fit), t180 / 2.0, t180


def relaxation_experiment(
    config: SpinSystemConfig,
    channel: str,
    mode: str,
    delays_s: Optional[Sequence[float]] = None,
    amplitude_hz: float = SCAN_AMP_HZ,
    offset_spread_hz: float = OFFSET_SPREAD.default,
    ensemble_points: int = ENSEMBLE_POINTS.default,
) -> ScanResult:
    """Inversion-recovery T1 or spin-echo T2 measurement on one channel.

    T1: [180x, delay t, 90x], recording the signed transverse projection
    of the recovered longitudinal polarization, fitted to B(1 - 2 e^(-t/T1)).
    T2: [90x, delay t/2, 180y, delay t/2], recording the transverse
    magnitude, fitted to A e^(-t/T2). A nonzero offset_spread_hz simulates
    static field inhomogeneity as a symmetric ensemble of ensemble_points >= 2
    molecule offsets whose signals are averaged; the echo refocuses it. The
    delays default to DELAYS_S[mode].
    """
    if mode not in tuple(DELAYS_S):
        raise ValidationError('mode must be "T1" or "T2"')
    delays = np.asarray(sorted(FINITE_NUMBERS.check(
        "delays_s", DELAYS_S[mode] if delays_s is None else delays_s)))
    if delays.size < 5:
        raise ValidationError("need at least 5 delays")
    spread = OFFSET_SPREAD.check("offset_spread_hz", offset_spread_hz)
    if spread:
        ensemble_points = ENSEMBLE_POINTS.check("ensemble_points", ensemble_points)
    amp, c = _scan_amplitude(amplitude_hz), config.channel_index(channel)
    p90 = square_pulse(config, {c: 0.0}, 1.0 / (4.0 * amp), amp)
    p180 = square_pulse(config, {c: 0.0 if mode == "T1" else np.pi / 2}, 1.0 / (2.0 * amp), amp)
    if mode == "T1":
        sequences = [(p180, Delay(t), p90) for t in delays.tolist()]
    else:
        sequences = [(p90, half, p180, half) for half in map(Delay, (delays / 2.0).tolist())]

    deltas = np.linspace(-spread, spread, ensemble_points) if spread else np.zeros(1)
    members = config.channel_members(channel)
    programs = []
    for delta in deltas:
        cfg = replace(config, nuclei=tuple(
            replace(nuc, offset_hz=nuc.offset_hz + delta) if k in members else nuc
            for k, nuc in enumerate(config.nuclei, start=1)
        )) if delta else config
        programs += [PulseProgram(cfg, events) for events in sequences]
    # the offsets leave the thermal state and the channel's detection operator as they are
    states = evolve_programs(thermal_state(config), programs, relaxation=True)
    mean_signal = _channel_signal(states, config, channel).reshape(deltas.size, -1).mean(axis=0)
    if mode == "T1":
        # a 90x pulse turns +z polarization into -y: the signed readout is -<sigma_y>
        y, model = -mean_signal.imag, "inversion_recovery"
    else:
        y, model = np.abs(mean_signal), "exp_decay"
    return ScanResult(x=delays, y=y, fit=fit_model(delays, y, model))
