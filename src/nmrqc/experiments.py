"""Calibration and preparation procedures: pseudo-pure state via spatial
averaging, Rabi pulse calibration, inversion-recovery T1 and spin-echo T2
scans, and the least-squares fits behind them.

Every experiment is expressed purely in x/y pulses, delays, and crushers;
nothing writes the state directly. A scan builds one program per point and
evolves all of them in one `evolve_programs` call for each machine config
(one per ensemble offset in the T2 echo).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from .control import _rotation_pulse, _single_channel_pulse
from .dynamics import Crusher, Delay, PulseProgram, evolve_program, evolve_programs
from .errors import FitError, ValidationError
from .quantum import DensityMatrix
from .spinsys import SpinSystemConfig, thermal_state

# Pulses in the spatial-averaging sequence are meant to be instantaneous
# rotations; this amplitude keeps J evolution during them below 1e-9.
PPS_PULSE_AMP_HZ = 1e13

FIT_MODELS = ("exp_decay", "inversion_recovery", "abs_sine")


@dataclass(frozen=True)
class FitResult:
    model: str
    params: dict[str, float]
    residual: float  # rms of (fit - data)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return _MODEL_FUNCS[self.model](np.asarray(x, dtype=float), self.params)


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


def _model_exp_decay(x, p):
    return p["amplitude"] * np.exp(-x / p["tau"])


def _model_inversion_recovery(x, p):
    return p["amplitude"] * (1.0 - 2.0 * np.exp(-x / p["tau"]))


def _model_abs_sine(x, p):
    return p["amplitude"] * np.abs(np.sin(np.pi * x / p["period"]))


_MODEL_FUNCS = {
    "exp_decay": _model_exp_decay,
    "inversion_recovery": _model_inversion_recovery,
    "abs_sine": _model_abs_sine,
}


def _abs_sine_period_guess(x: np.ndarray, y: np.ndarray) -> float:
    """Coarse grid search for the |sin| period; deterministic given data."""
    span = float(np.max(x) - np.min(x))
    candidates = np.linspace(span / 20.0, 4.0 * span, 800)
    amp = float(np.max(np.abs(y)))
    models = amp * np.abs(np.sin(np.pi * x / candidates[:, np.newaxis]))
    return candidates[np.argmin(np.sum((models - y) ** 2, axis=1))]


def fit_model(x: Sequence[float], y: Sequence[float], model: str) -> FitResult:
    """Deterministic two-parameter least-squares fit of a named model.

    Initialization is rule-based (amplitude from the data extrema, time
    constant from half the x range, |sin| period from a grid search), so a
    given dataset always produces the same parameters.
    """
    if model not in FIT_MODELS:
        raise ValidationError(f"unknown model {model!r}; choose from {FIT_MODELS}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise ValidationError("need at least 3 points to fit 2 parameters")
    scale = float(np.max(np.abs(y)))
    if scale < 1e-300:
        raise FitError("data carries no signal")
    span = float(np.max(x) - np.min(x))
    if span <= 0:
        raise FitError("x values are degenerate")
    if model == "abs_sine":
        p0 = np.array([scale, _abs_sine_period_guess(x, y)])
        names = ("amplitude", "period")
    elif model == "exp_decay":
        p0 = np.array([scale, span / 2.0])
        names = ("amplitude", "tau")
    else:
        p0 = np.array([scale, span / 2.0])
        names = ("amplitude", "tau")

    func = _MODEL_FUNCS[model]

    def residuals(p):
        return func(x, dict(zip(names, p))) - y

    try:
        sol = least_squares(
            residuals,
            p0,
            bounds=([0.0, 1e-30], [np.inf, np.inf]),
            method="trf",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
    except ValueError as exc:
        raise FitError(f"fit failed: {exc}") from exc
    if not sol.success:
        raise FitError(f"fit did not converge: {sol.message}")
    params = dict(zip(names, (float(v) for v in sol.x)))
    rms = float(np.sqrt(np.mean(sol.fun**2)))
    if rms > 0.2 * float(np.sqrt(np.mean(y**2))) + 1e-12:
        raise FitError(f"fit residual {rms:.3g} too large for model {model!r}")
    return FitResult(model=model, params=params, residual=rms)


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
    ch1 = config.channel_of(1)
    ch2 = config.channel_of(2)
    events = (
        _rotation_pulse(config, ch2, "x", np.pi / 3, pulse_amp_hz),
        Crusher(),
        _rotation_pulse(config, ch1, "x", np.pi / 4, pulse_amp_hz),
        Delay(1.0 / (2.0 * abs(j))),
        _rotation_pulse(config, ch1, "y", -np.pi / 4, pulse_amp_hz),
        Crusher(),
    )
    program = PulseProgram(system=config, events=events)
    rho = evolve_program(thermal_state(config), program, relaxation=False)
    return program, rho


def _transverse(rho: DensityMatrix, config: SpinSystemConfig, channel: str) -> complex:
    """Re Tr(rho Sx_ch) + i Re Tr(rho Sy_ch): <sigma_x> + i <sigma_y> summed
    over a channel's spins."""
    c = config.channel_index(channel)
    sx, sy = config._operators.sx[c], config._operators.sy[c]
    return complex(np.real(np.trace(rho.matrix @ sx)), np.real(np.trace(rho.matrix @ sy)))


def rabi_calibration(
    config: SpinSystemConfig,
    channel: str,
    amplitude_hz: float,
    durations_s: Sequence[float],
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
    y = np.array([abs(_transverse(rho, config, channel)) for rho in states])
    fit = fit_model(durations, y, "abs_sine")
    t180 = fit.params["period"]
    scan = ScanResult(x=durations, y=y, fit=fit)
    return scan, t180 / 2.0, t180


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
    static field inhomogeneity as a symmetric ensemble of molecule offsets
    whose signals are averaged; the echo refocuses it.
    """
    if mode not in ("T1", "T2"):
        raise ValidationError('mode must be "T1" or "T2"')
    delays = np.asarray(sorted(delays_s), dtype=float)
    if delays.size < 5:
        raise ValidationError("need at least 5 delays")
    t90 = t90_s if t90_s is not None else 1.0 / (4.0 * amplitude_hz)
    t180 = t180_s if t180_s is not None else 1.0 / (2.0 * amplitude_hz)

    if offset_spread_hz:
        deltas = np.linspace(-offset_spread_hz, offset_spread_hz, ensemble_points)
    else:
        deltas = np.array([0.0])
    members = config.channel_members(channel)

    signals = np.zeros((deltas.size, delays.size), dtype=complex)
    for di, delta in enumerate(deltas):
        nuclei = tuple(
            replace(nuc, offset_hz=nuc.offset_hz + (delta if k in members else 0.0))
            for k, nuc in enumerate(config.nuclei, start=1)
        )
        cfg = replace(config, nuclei=nuclei)
        p90 = _single_channel_pulse(cfg, channel, 0.0, t90, amplitude_hz)
        if mode == "T1":
            p180 = _single_channel_pulse(cfg, channel, 0.0, t180, amplitude_hz)
            programs = [PulseProgram(cfg, (p180, Delay(t), p90)) for t in delays.tolist()]
        else:
            p180 = _single_channel_pulse(cfg, channel, np.pi / 2, t180, amplitude_hz)
            halves = [Delay(t / 2.0) for t in delays.tolist()]
            programs = [PulseProgram(cfg, (p90, half, p180, half)) for half in halves]
        states = evolve_programs(thermal_state(cfg), programs, relaxation=True)
        signals[di] = [_transverse(rho, cfg, channel) for rho in states]
    mean_signal = signals.mean(axis=0)
    if mode == "T1":
        # a 90x pulse turns +z polarization into -y: the signed readout is -<sigma_y>
        y = -mean_signal.imag
        fit = fit_model(delays, y, "inversion_recovery")
    else:
        y = np.abs(mean_signal)
        fit = fit_model(delays, y, "exp_decay")
    return ScanResult(x=delays, y=y, fit=fit)
