"""Calibration and preparation procedures: pseudo-pure state via spatial
averaging, Rabi pulse calibration, inversion-recovery T1 and spin-echo T2
scans, and the least-squares fits behind them.

Every experiment is expressed purely in x/y pulses, delays, and crushers;
nothing writes the state directly. A scan builds one program per point and
evolves all of them in one `evolve_programs` call; the T2 echo's offset
ensemble is one call too, one variant machine per offset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .control import _rotation_pulse, _single_channel_pulse
from .dynamics import Crusher, Delay, PulseProgram, evolve_program, evolve_programs
from .errors import FitError, ValidationError
from .quantum import DensityMatrix
from .spinsys import SpinSystemConfig, thermal_state

# Pulses in the spatial-averaging sequence are meant to be instantaneous
# rotations; this amplitude keeps J evolution during them below 1e-9.
PPS_PULSE_AMP_HZ = 1e13


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
        lines = ["x,y,fit_y"]
        for xi, yi, fi in zip(self.x, self.y, fit_y):
            lines.append(f"{xi:.12g},{yi:.12g},{fi:.12g}")
        return "\n".join(lines) + "\n"


# model -> (name of theta, u -> (g, dg/d ln theta)) for amplitude * g(u), u = x / theta
_MODELS = {
    "exp_decay": ("tau", lambda u: (np.exp(-u), u * np.exp(-u))),
    "inversion_recovery": ("tau", lambda u: (1.0 - 2.0 * np.exp(-u), -2.0 * u * np.exp(-u))),
    "abs_sine": ("period", lambda u: (np.abs(np.sin(np.pi * u)), -np.pi * u * np.cos(np.pi * u)
                                      * np.sign(np.sin(np.pi * u)))),
}
_MAX_ITERATIONS = 100
_STEP_TOL = 1e-13  # change of ln theta at which a fit has converged


def _abs_sine_period_guess(x: np.ndarray, y: np.ndarray) -> float:
    """Coarse grid search for the |sin| period from two sample spacings up (below, it aliases)."""
    span = float(np.max(x) - np.min(x))
    shortest = max(span / 20.0, 2.0 * float(np.median(np.diff(np.sort(x)))))
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
        pdg = dg - (g @ dg) / (g @ g) * g
        step = max(-limit, min(limit, slope / (amp * float(pdg @ pdg) + 1e-300)))
        if abs(step) <= _STEP_TOL:
            return float(np.exp(s + step))
        s, before = s + step, slope
    raise FitError(f"fit did not converge within {_MAX_ITERATIONS} iterations")


def fit_model(x: Sequence[float], y: Sequence[float], model: str) -> FitResult:
    """Deterministic least-squares fit of amplitude * g(x / theta): theta starts
    at the best of a candidate grid, and `_refine` takes it to the nearest minimum."""
    if model not in _MODELS:
        raise ValidationError(f"unknown model {model!r}; choose from {tuple(_MODELS)}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise ValidationError("need at least 3 points to fit 2 parameters")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("x and y must be finite")
    if float(np.max(np.abs(y))) < 1e-300:
        raise FitError("data carries no signal")
    if float(np.max(x) - np.min(x)) <= 0:
        raise FitError("x values are degenerate")
    name, shape = _MODELS[model]
    if model == "abs_sine":
        theta = _refine(x, y, shape, _abs_sine_period_guess(x, y))
        # |sin| has a kink in T wherever a sample sits on a zero, |x| = m T, and a lower
        # minimum can lie just across one: refine again from the far side of each within 1 %
        kinks = np.abs(x) / np.maximum(np.round(np.abs(x) / theta), 1.0)
        kinks = np.unique(kinks[np.abs(kinks / theta - 1.0) < 1e-2])
        fits = [theta] + [_refine(x, y, shape, k * (1 + 1e-9 * np.sign(k - theta))) for k in kinks]
        theta = min(fits, key=lambda t: float(np.sum(_profile(x, y, shape, t)[3] ** 2)))
    else:  # start from the best of 10 time constants per decade over 1e-6..1e3 x ranges
        taus = np.geomspace(1e-6, 1e3, 91)[:, np.newaxis] * float(np.max(x) - np.min(x))
        sse = np.nan_to_num(np.sum(_profile(x, y, shape, taus)[3] ** 2, axis=-1), nan=np.inf)
        theta = _refine(x, y, shape, float(taus[np.argmin(sse), 0]))
    _, _, amp, r = _profile(x, y, shape, theta)
    rms = np.sqrt(np.mean(r**2))
    if not rms <= 0.2 * float(np.sqrt(np.mean(y**2))) + 1e-12:
        raise FitError(f"fit residual {rms:.3g} too large for model {model!r}")
    return FitResult(model, {"amplitude": float(amp), name: theta}, float(rms))


def prepare_pseudo_pure(
    config: SpinSystemConfig,
    pulse_amp_hz: float = PPS_PULSE_AMP_HZ,
) -> tuple[PulseProgram, DensityMatrix]:
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
    events = (
        _rotation_pulse(config, config.channel_of(2), "x", np.pi / 3, pulse_amp_hz),
        Crusher(),
        _rotation_pulse(config, config.channel_of(1), "x", np.pi / 4, pulse_amp_hz),
        Delay(1.0 / (2.0 * abs(j))),
        _rotation_pulse(config, config.channel_of(1), "y", -np.pi / 4, pulse_amp_hz),
        Crusher(),
    )
    program = PulseProgram(system=config, events=events)
    rho = evolve_program(thermal_state(config), program, relaxation=False)
    return program, rho


def _transverse(states, config: SpinSystemConfig, channel: str):
    """Re Tr(rho Sx_ch) + i Re Tr(rho Sy_ch): <sigma_x> + i <sigma_y> summed over a
    channel's spins, for one state or, in one contraction, each of a sequence."""
    single = isinstance(states, DensityMatrix)
    rho = np.array([s.matrix for s in ([states] if single else states)])
    ops, c = config._operators, config.channel_index(channel)
    xy = np.einsum("bij,kji->bk", rho, np.stack([ops.sx[c], ops.sy[c]])).real
    signal = xy[:, 0] + 1j * xy[:, 1]
    return signal[0] if single else signal


def rabi_calibration(
    config: SpinSystemConfig, channel: str, amplitude_hz: float, durations_s: Sequence[float]
) -> tuple[ScanResult, float, float]:
    """Nutation-curve pulse calibration at fixed power.

    Plays a resonant pulse of each duration on the thermal state, records
    the transverse magnitude, fits A|sin(pi t / t180)|, and returns
    (scan, t90, t180).
    """
    durations = np.asarray(sorted(durations_s), dtype=float)
    if durations.size < 8:
        raise ValidationError("need at least 8 durations spanning a period")
    pulses = [_single_channel_pulse(config, channel, 0.0, t, amplitude_hz) for t in durations]
    states = evolve_programs(thermal_state(config), [PulseProgram(config, (p,)) for p in pulses])
    y = np.abs(_transverse(states, config, channel))
    fit = fit_model(durations, y, "abs_sine")
    t180 = fit.params["period"]
    return ScanResult(x=durations, y=y, fit=fit), t180 / 2.0, t180


def relaxation_experiment(
    config: SpinSystemConfig,
    channel: str,
    mode: str,
    delays_s: Sequence[float],
    amplitude_hz: float = 12.5e3,
    t90_s: Optional[float] = None,
    t180_s: Optional[float] = None,
    offset_spread_hz: float = 0.0,
    ensemble_points: int = 11,
) -> ScanResult:
    """Inversion-recovery T1 or spin-echo T2 measurement on one channel.

    T1: [180x, delay t, 90x], recording the signed transverse projection
    of the recovered longitudinal polarization, fitted to B(1 - 2 e^(-t/T1)).
    T2: [90x, delay t/2, 180y, delay t/2], recording the transverse
    magnitude, fitted to A e^(-t/T2). A nonzero offset_spread_hz simulates
    static field inhomogeneity as a symmetric ensemble of ensemble_points >= 2
    molecule offsets whose signals are averaged; the echo refocuses it.
    """
    if mode not in ("T1", "T2"):
        raise ValidationError('mode must be "T1" or "T2"')
    delays = np.asarray(sorted(delays_s), dtype=float)
    if delays.size < 5:
        raise ValidationError("need at least 5 delays")
    spread = float(offset_spread_hz)
    if not np.isfinite(2.0 * spread):
        raise ValidationError(f"offset spread {spread:g}: it and the ensemble width must be finite")
    if spread and not (isinstance(ensemble_points, (int, np.integer)) and ensemble_points >= 2):
        raise ValidationError(f"ensemble_points must be an integer >= 2, got {ensemble_points!r}")
    t90 = t90_s if t90_s is not None else 1.0 / (4.0 * amplitude_hz)
    t180 = t180_s if t180_s is not None else 1.0 / (2.0 * amplitude_hz)
    p90 = _single_channel_pulse(config, channel, 0.0, t90, amplitude_hz)
    if mode == "T1":
        p180 = _single_channel_pulse(config, channel, 0.0, t180, amplitude_hz)
        sequences = [(p180, Delay(t), p90) for t in delays.tolist()]
    else:
        p180 = _single_channel_pulse(config, channel, np.pi / 2, t180, amplitude_hz)
        sequences = [(p90, half, p180, half) for half in map(Delay, (delays / 2.0).tolist())]

    deltas = np.linspace(-spread, spread, ensemble_points) if spread else np.zeros(1)
    members = config.channel_members(channel)
    programs = []
    for delta in deltas:
        cfg = replace(config, nuclei=tuple(
            replace(nuc, offset_hz=nuc.offset_hz + (delta if k in members else 0.0))
            for k, nuc in enumerate(config.nuclei, start=1)
        )) if delta else config
        programs += [PulseProgram(cfg, events) for events in sequences]
    # the offsets leave the thermal state and the transverse operators as they are
    states = evolve_programs(thermal_state(config), programs, relaxation=True)
    mean_signal = _transverse(states, config, channel).reshape(deltas.size, -1).mean(axis=0)
    if mode == "T1":
        # a 90x pulse turns +z polarization into -y: the signed readout is -<sigma_y>
        y, model = -mean_signal.imag, "inversion_recovery"
    else:
        y, model = np.abs(mean_signal), "exp_decay"
    return ScanResult(x=delays, y=y, fit=fit_model(delays, y, model))
