"""Time evolution: piecewise-constant propagators, pulse programs, relaxation.

A pulse program is an ordered list of square RF segments, free-evolution
delays, and instantaneous crusher gradients, executed against a spin
system. RF segments evolve under H0 + H_rf, delays under H0 alone, and a
crusher zeroes every off-diagonal element of the density matrix.

`program_unitary` and `evolve_program` share one propagation path: the
Hamiltonians of a program's timed events are stacked from the machine's
cached, read-only operators (see `spinsys`) and propagated in one batched
kernel call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from . import _kernels
from .errors import ValidationError
from .quantum import HERMITICITY_TOL, DensityMatrix
from .spinsys import SpinSystemConfig, rf_drive


@dataclass(frozen=True)
class RfSegment:
    """Square RF pulse: one (amplitude, phase) pair per channel, fixed duration."""

    amplitudes_hz: tuple[float, ...]
    phases_rad: tuple[float, ...]
    duration_s: float

    def __post_init__(self):
        if not np.all(np.isfinite((*self.amplitudes_hz, *self.phases_rad, self.duration_s))):
            raise ValidationError("RF segment amplitudes, phases and duration must be finite")
        if self.duration_s < 0:
            raise ValidationError("RF segment duration must be >= 0")
        if len(self.amplitudes_hz) != len(self.phases_rad):
            raise ValidationError("amplitude/phase lists differ in length")


@dataclass(frozen=True)
class Delay:
    """Free evolution under the internal Hamiltonian."""

    duration_s: float

    def __post_init__(self):
        if not (np.isfinite(self.duration_s) and self.duration_s >= 0):
            raise ValidationError("delay duration must be finite and >= 0")


@dataclass(frozen=True)
class Crusher:
    """Idealized gradient pulse: instantaneous loss of all coherences."""


PulseEvent = Union[RfSegment, Delay, Crusher]


@dataclass(frozen=True)
class PulseProgram:
    """Ordered pulse events bound to the spin system they drive."""

    system: SpinSystemConfig
    events: tuple[PulseEvent, ...]

    @property
    def duration_s(self) -> float:
        return sum(getattr(ev, "duration_s", 0.0) for ev in self.events)

    def to_json_dict(self) -> dict:
        out = []
        for ev in self.events:
            if isinstance(ev, RfSegment):
                out.append(
                    {
                        "type": "rf",
                        "amp_hz": list(ev.amplitudes_hz),
                        "phase_rad": list(ev.phases_rad),
                        "dur_s": ev.duration_s,
                    }
                )
            elif isinstance(ev, Delay):
                out.append({"type": "delay", "dur_s": ev.duration_s})
            else:
                out.append({"type": "crusher"})
        return {"events": out}

    @classmethod
    def from_json_dict(cls, d: Mapping, system: SpinSystemConfig) -> "PulseProgram":
        events: list[PulseEvent] = []
        try:
            for i, ev in enumerate(d["events"]):
                kind = ev["type"]
                if kind == "rf":
                    events.append(
                        RfSegment(
                            tuple(float(a) for a in ev["amp_hz"]),
                            tuple(float(p) for p in ev["phase_rad"]),
                            float(ev["dur_s"]),
                        )
                    )
                elif kind == "delay":
                    events.append(Delay(float(ev["dur_s"])))
                elif kind == "crusher":
                    events.append(Crusher())
                else:
                    raise ValidationError(f"events[{i}]: unknown type {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad pulse-program JSON: {exc}") from exc
        return cls(system=system, events=tuple(events))


def segment_propagator(h_total: np.ndarray, dt: float) -> np.ndarray:
    """U = exp(-i * h * dt) for a Hermitian generator in rad/s.

    Computed by eigendecomposition, which is exact at these dimensions.
    """
    h = np.asarray(h_total, dtype=complex)
    if dt < 0:
        raise ValidationError("dt must be >= 0")
    if np.max(np.abs(h - h.conj().T), initial=0.0) > HERMITICITY_TOL * max(
        1.0, float(np.max(np.abs(h), initial=0.0))
    ):
        raise ValidationError("segment generator is not Hermitian")
    return _kernels.segment_propagators(h[np.newaxis].astype(np.complex128), float(dt))[0]


def _propagators(config: SpinSystemConfig, events: Sequence[PulseEvent]) -> np.ndarray:
    """Propagators of timed events (RF segments and delays), one batched call."""
    controls = config._operators.controls
    drive = np.zeros((len(events), controls.shape[0]))
    for e, ev in enumerate(events):
        if isinstance(ev, RfSegment):
            drive[e] = rf_drive(config, ev.amplitudes_hz, ev.phases_rad)
    hs = config._operators.h0 + np.tensordot(drive, controls, axes=1)
    return _kernels.segment_propagators(hs, np.array([ev.duration_s for ev in events]))


def apply_crusher(rho: DensityMatrix) -> DensityMatrix:
    """Zero all off-diagonal elements in the computational basis."""
    return DensityMatrix(np.diag(np.diag(rho.matrix)), validate=False)


def apply_relaxation(rho: DensityMatrix, dt: float, config: SpinSystemConfig) -> DensityMatrix:
    """Phenomenological T1/T2 channel over a duration dt.

    In the product-Pauli picture each coefficient is damped per non-identity
    factor: x/y factors by exp(-dt/T2) of that spin, z factors by
    exp(-dt/T1). Weight-one z coefficients additionally relax toward their
    thermal values eps_k, which reproduces exponential inversion recovery;
    multi-spin z products get no restoration term.
    """
    if dt < 0:
        raise ValidationError("dt must be >= 0")
    if rho.n != config.n:
        raise ValidationError(f"state has {rho.n} qubits, config has {config.n}")
    if dt == 0:
        return rho
    n = config.n
    t = rho.matrix.reshape((2,) * (2 * n)).copy()
    for k, nuc in enumerate(config.nuclei):
        e1 = np.exp(-dt / nuc.t1_s)
        e2 = np.exp(-dt / nuc.t2_s)
        t = np.moveaxis(t, (k, n + k), (0, 1))
        p00, p01, p10, p11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
        mean = 0.5 * (p00 + p11)
        half_diff = 0.5 * (p00 - p11)
        t = np.stack(
            [
                np.stack([mean + e1 * half_diff, e2 * p01]),
                np.stack([e2 * p10, mean - e1 * half_diff]),
            ]
        )
        t = np.moveaxis(t, (0, 1), (k, n + k))
    m = t.reshape(config.dim, config.dim)
    for nuc, sz in zip(config.nuclei, config._operators.sz):
        e1 = np.exp(-dt / nuc.t1_s)
        if nuc.polarization != 0.0:
            m = m + (nuc.polarization * (1.0 - e1) / config.dim) * sz
    return DensityMatrix(m, validate=False)


def evolve_program(
    rho: DensityMatrix,
    program: PulseProgram,
    relaxation: bool = False,
) -> DensityMatrix:
    """Run a pulse program: events in order, optional relaxation after each
    timed event over that event's duration."""
    config = program.system
    if rho.n != config.n:
        raise ValidationError(f"state has {rho.n} qubits, machine has {config.n}")
    timed = [ev for ev in program.events if not isinstance(ev, Crusher)]
    props = iter(_propagators(config, timed))
    for ev in program.events:
        if isinstance(ev, Crusher):
            rho = apply_crusher(rho)
            continue
        rho = rho.evolved(next(props))
        if relaxation:
            rho = apply_relaxation(rho, ev.duration_s, config)
    return DensityMatrix(rho.matrix)


def program_unitary(program: PulseProgram) -> np.ndarray:
    """Net unitary of a crusher-free program (relaxation off)."""
    if any(isinstance(ev, Crusher) for ev in program.events):
        raise ValidationError("program contains crushers; it has no net unitary")
    return _kernels.unitary_chain(_propagators(program.system, program.events))
