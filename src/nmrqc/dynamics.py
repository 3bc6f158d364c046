"""Time evolution: piecewise-constant propagators, pulse programs, relaxation.

A pulse program is an ordered list of square RF segments, free-evolution
delays, and instantaneous crusher gradients, executed against a spin
system. RF segments evolve under H0 + H_rf, delays under H0 alone, and a
crusher zeroes every off-diagonal element of the density matrix.

One propagation path: the Hamiltonians of the timed events are stacked from
the machine's cached, read-only operators (see `spinsys`) and propagated in
one batched kernel call. `program_unitary` chains them; `evolve_programs`
runs a batch of programs (a scan) as one (B, d, d) stack of states, with
relaxation vectorized over it, and `evolve_program` is its one-program case.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from . import _kernels
from .errors import ValidationError
from .quantum import HERMITICITY_TOL, DensityMatrix, _check_density
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


def _propagators(machines: Sequence[SpinSystemConfig], which: Sequence[int],
                 events: Sequence[PulseEvent]) -> np.ndarray:
    """Propagators of timed events (RF segments and delays), event e on machines[which[e]],
    all of one spin layout: one batched call over the distinct (machine, event) rows."""
    row_of: dict = {}
    rows = [row_of.setdefault(key, len(row_of)) for key in zip(which, events)]
    controls = machines[0]._operators.controls
    drive = np.zeros((len(row_of), controls.shape[0]))
    for r, (m, ev) in enumerate(row_of):
        if isinstance(ev, RfSegment):
            drive[r] = rf_drive(machines[m], ev.amplitudes_hz, ev.phases_rad)
    h0s = np.array([cfg._operators.h0 for cfg in machines])
    hs = np.tensordot(drive, controls, axes=1) + h0s[[m for m, _ in row_of]]
    return _kernels.segment_propagators(hs, np.array([ev.duration_s for _, ev in row_of]))[rows]


def apply_crusher(rho: DensityMatrix) -> DensityMatrix:
    """Zero all off-diagonal elements in the computational basis."""
    return DensityMatrix(np.diag(np.diag(rho.matrix)), validate=False)


@functools.lru_cache(maxsize=None)
def _same_state_masks(n: int) -> tuple[np.ndarray, ...]:
    """Per spin k, the read-only mask of i_k == j_k on a (B, 2, ..., 2) state stack."""
    eye = np.eye(2, dtype=bool)
    eye.setflags(write=False)
    shapes = ([1 + (a in (k, n + k)) for a in range(-1, 2 * n)] for k in range(n))
    return tuple(eye.reshape(shape) for shape in shapes)


def _relaxation_params(machines: Sequence[SpinSystemConfig]) -> tuple[np.ndarray, np.ndarray]:
    """Per machine, (T1, T2) of each spin, (M, n, 2), and polarization of each spin, (M, n)."""
    taus = np.array([[(nuc.t1_s, nuc.t2_s) for nuc in cfg.nuclei] for cfg in machines])
    return taus, np.array([[nuc.polarization for nuc in cfg.nuclei] for cfg in machines])


def _relax(ms: np.ndarray, dt: np.ndarray, taus: np.ndarray, pol: np.ndarray,
           sz: np.ndarray) -> np.ndarray:
    """The channel of `apply_relaxation` on a (B, d, d) stack, with per state one dt,
    (T1, T2) per spin (taus, (B, n, 2)) and polarization per spin (pol, (B, n))."""
    b, n = taus.shape[:2]
    decay = np.exp(-dt[:, np.newaxis, np.newaxis] / taus)  # (B, n, 2): e1, e2 per spin
    e12 = decay.reshape((b, n, 2) + (1,) * (2 * n))
    t = ms.reshape((b,) + (2,) * (2 * n))
    for k, same_k in enumerate(_same_state_masks(n)):
        # f swaps |0><0| with |1><1| (and |0><1| with |1><0|) of spin k
        f = np.flip(t, axis=(1 + k, 1 + n + k))
        t = np.where(same_k, 0.5 * (t + f) + e12[:, k, 0] * (0.5 * (t - f)), e12[:, k, 1] * t)
    m = t.reshape(ms.shape)
    restore = (pol * (1.0 - decay[:, :, 0]) / ms.shape[-1])[:, :, np.newaxis, np.newaxis]
    for k in np.flatnonzero(pol.any(axis=0)):
        m = m + restore[:, k] * sz[k]
    return np.where(dt[:, np.newaxis, np.newaxis] > 0, m, ms)


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
    m = _relax(rho.matrix[np.newaxis], np.array([dt], dtype=float),
               *_relaxation_params([config]), config._operators.sz)[0]
    return DensityMatrix(m, validate=False)


def evolve_programs(
    rho: DensityMatrix,
    programs: Sequence[PulseProgram],
    relaxation: bool = False,
) -> list[DensityMatrix]:
    """Run each program from `rho`, all of them at once; one state per program.

    The programs share one spin layout (nucleus labels, in order) and one sequence
    of event kinds; machines may differ in offsets, J, T1/T2 and polarization, events
    in durations, amplitudes and phases. Each event updates the whole (B, d, d) stack
    of states, with propagators from one batched kernel call over the distinct
    (machine, event) pairs and, if on, relaxation over its duration in each program.
    """
    if not programs:
        return []
    config = programs[0].system
    machines = list({id(p.system): p.system for p in programs}.values())
    layout = tuple(nuc.label for nuc in config.nuclei)
    kinds = tuple(map(type, programs[0].events))
    if any(tuple(nuc.label for nuc in cfg.nuclei) != layout for cfg in machines) or any(
        tuple(map(type, p.events)) != kinds for p in programs
    ):
        raise ValidationError("batched programs must share one spin layout and sequence of "
                              "event kinds")
    if rho.n != config.n:
        raise ValidationError(f"state has {rho.n} qubits, machine has {config.n}")
    slot = {id(cfg): m for m, cfg in enumerate(machines)}
    which = [slot[id(p.system)] for p in programs]  # each program's machine
    # timed[e][i] is the e-th timed event of program i
    timed = list(zip(*([ev for ev in p.events if not isinstance(ev, Crusher)] for p in programs)))
    b, d = len(programs), config.dim
    props = _propagators(machines, which * len(timed),
                         [ev for evs in timed for ev in evs]).reshape(-1, b, d, d)
    if relaxation:
        taus, pol = _relaxation_params(machines)
        taus, pol, sz = taus[which], pol[which], config._operators.sz
    steps = zip(timed, props)
    ms = np.broadcast_to(rho.matrix, (b, d, d))
    for kind in kinds:
        if kind is Crusher:
            ms = np.where(np.eye(d, dtype=bool), ms, 0)
            continue
        events, u = next(steps)
        ms = u @ ms @ u.conj().swapaxes(-1, -2)
        if relaxation:
            dt = np.array([ev.duration_s for ev in events], dtype=float)
            ms = _relax(ms, dt, taus, pol, sz)
    _check_density(ms)
    return [DensityMatrix(m, validate=False) for m in ms]


def evolve_program(
    rho: DensityMatrix, program: PulseProgram, relaxation: bool = False
) -> DensityMatrix:
    """Run a pulse program: events in order, optional relaxation after each
    timed event over that event's duration."""
    return evolve_programs(rho, [program], relaxation)[0]


def program_unitary(program: PulseProgram) -> np.ndarray:
    """Net unitary of a crusher-free program (relaxation off)."""
    if any(isinstance(ev, Crusher) for ev in program.events):
        raise ValidationError("program contains crushers; it has no net unitary")
    events = program.events
    return _kernels.unitary_chain(_propagators([program.system], [0] * len(events), events))
