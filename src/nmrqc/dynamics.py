"""Time evolution: piecewise-constant propagators, pulse programs, relaxation.

A pulse program is an ordered list of square RF segments, free-evolution
delays, and instantaneous crusher gradients, executed against a spin
system. RF segments evolve under H0 + H_rf, delays under H0 alone, and a
crusher zeroes every off-diagonal element of the density matrix.
`square_pulse` builds every RF segment that the compiler and the
experiments play, and `PULSE_AMPLITUDE` is the one domain of the amplitude
they are given.

One propagation path: the Hamiltonians of the timed events are stacked from
the machine's cached, read-only operators (`spinsys.rf_hamiltonian` once
over the distinct events) and propagated in one batched kernel call.
`program_unitary` chains them, for compiled and GRAPE pulses alike;
`evolve_programs` runs any programs on one spin layout (a scan, or an
algorithm's circuits) and returns one checked (B, d, d) stack of states:
step s applies each program's s-th event to its row, with relaxation
vectorized over the rows, and leaves a program that has ended as it is.
The scans, the algorithm runners and tomography read the stack's rows;
`evolve_program` is its one-program case, its row wrapped as a state.

Relaxation, a tensor product of one-spin channels, is applied spin by spin
for every spin count: a 2x2 `keep` factor on the stack plus a 2x2 `take`
factor on the stack with that spin flipped in both indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Mapping, Sequence, Union

import numpy as np

from . import _kernels
from .errors import ValidationError
from .quantum import FINITE_NUMBERS, FLAG, POSITIVE, DensityMatrix, Option, _check_density
from .spinsys import SpinSystemConfig, rf_hamiltonian


@dataclass(frozen=True, init=False)
class RfSegment:
    """Square RF pulse: one (amplitude, phase) pair per channel, fixed duration."""

    amplitudes_hz: tuple[float, ...]
    phases_rad: tuple[float, ...]
    duration_s: float

    def __init__(self, amplitudes_hz, phases_rad, duration_s):  # each field set once, checked
        if not (isinstance(amplitudes_hz, (tuple, list)) and isinstance(phases_rad, (tuple, list))
                and len(amplitudes_hz) == len(phases_rad)):
            raise ValidationError("RF segment amplitudes and phases must be lists of one length")
        numbers = _SEGMENT.check("", (*amplitudes_hz, *phases_rad, duration_s))
        if numbers[-1] < 0:
            raise ValidationError("RF segment duration must be >= 0")
        n = len(amplitudes_hz)
        object.__setattr__(self, "amplitudes_hz", numbers[:n])
        object.__setattr__(self, "phases_rad", numbers[n:-1])
        object.__setattr__(self, "duration_s", numbers[-1])


# An RF segment's amplitudes, phases and duration, as one list
_SEGMENT = replace(FINITE_NUMBERS, rule="RF segment amplitudes, phases and duration must be finite")
# A pulse amplitude, Hz; the compiler and the scans each have their own default
PULSE_AMPLITUDE = replace(POSITIVE, rule="pulse amplitude must be > 0 and finite")
# A free-evolution time, s
DURATION = Option(kind=float, ok=lambda v: 0 <= v < math.inf,
                  rule="delay duration must be finite and >= 0")


def square_pulse(config: SpinSystemConfig, phases: Mapping[int, float], duration_s: float,
                 amp_hz: float) -> RfSegment:
    """Square pulse of amplitude amp_hz on each channel index of `phases`, at its phase;
    every other channel is off. The compiler and the experiments build each pulse here."""
    amps, phis = [0.0] * len(config.channels), [0.0] * len(config.channels)
    for c, phi in phases.items():
        amps[c], phis[c] = amp_hz, phi
    return RfSegment(amps, phis, duration_s)


@dataclass(frozen=True)
class Delay:
    """Free evolution under the internal Hamiltonian."""

    duration_s: float

    def __post_init__(self):
        object.__setattr__(self, "duration_s", DURATION.check("duration_s", self.duration_s))


@dataclass(frozen=True)
class Crusher:
    """Idealized gradient pulse: instantaneous loss of all coherences."""


PulseEvent = Union[RfSegment, Delay, Crusher]


@dataclass(frozen=True)
class PulseProgram:
    """Ordered pulse events bound to the spin system they drive."""

    system: SpinSystemConfig
    events: tuple[PulseEvent, ...]

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


def _propagators(machines: Sequence[SpinSystemConfig], which: Sequence[int],
                 events: Sequence[PulseEvent]) -> tuple[np.ndarray, ...]:
    """Propagators of timed events (RF segments and delays), event e on machines[which[e]],
    all of one spin layout, from one batched call over the distinct (machine, event value)
    rows. Returns the rows' propagators, each event's row, and the rows' durations and
    machines. Events are looked up by object first, so a shared event is hashed once."""
    values: dict = {}  # event value -> its number; equal but distinct objects share it
    number = {i: values.setdefault(ev, len(values)) for i, ev in {id(e): e for e in events}.items()}
    row: dict = {}  # (machine, event number) -> row
    rows = [row.setdefault(key, len(row)) for key in zip(which, map(number.get, map(id, events)))]
    m, k = np.array(list(row), dtype=int).reshape(-1, 2).T
    off = (0.0,) * len(machines[0].channels)  # a delay drives no channel
    amps, phases = ([getattr(ev, a, off) for ev in values] for a in ("amplitudes_hz", "phases_rad"))
    if {len(off)} >= set(map(len, amps)):  # arrays, read by dtype; ragged lists are rejected
        amps, phases = (np.fromiter(chain(*x), float).reshape(-1, len(off)) for x in (amps, phases))
    h0s = np.array([cfg._operators.h0 for cfg in machines])
    with np.errstate(over="ignore", invalid="ignore"):  # one H_rf row per distinct event
        hs = rf_hamiltonian(machines[0], amps, phases)[k] + h0s[m]
    dts = np.array([ev.duration_s for ev in values])[k]
    return _kernels.segment_propagators(hs, dts), np.array(rows, dtype=int), dts, m


def _crush(ms: np.ndarray) -> np.ndarray:
    """Zero the off-diagonal elements of a (..., d, d) stack (with +0, exactly)."""
    return np.where(np.eye(ms.shape[-1], dtype=bool), ms, 0)


def _relaxation_factors(dt: np.ndarray, machines: Sequence[SpinSystemConfig],
                        which: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-spin factors (keep, take) of the relaxation map over durations dt (B,), the b-th
    on machines[which[b]]: per spin, generalized amplitude damping toward
    diag((1 + eps)/2, (1 - eps)/2) at rate 1/T1 and coherence decay by exp(-dt/T2), which
    is completely positive for T2 <= 2*T1 (`NucleusSpec` enforces it). Each is
    (B, n, 2, 2) over spin k's (row, column) bits, shaped (B, n, 1, 2, 1, 1, 2, 1)
    to broadcast against the (B, 2^k, 2, 2^(n-1-k), 2^k, 2, 2^(n-1-k)) view of a stack."""
    spins = np.array([[(nuc.t1_s, nuc.t2_s, nuc.polarization) for nuc in cfg.nuclei]
                      for cfg in machines])[which]  # (B, n, 3)
    with np.errstate(over="ignore"):  # dt/T past the float range decays to exp(-inf) = 0
        decay = np.exp(-dt[:, np.newaxis, np.newaxis] / spins[..., :2])
    e1, e2, pol = decay[..., 0], decay[..., 1], spins[..., 2]  # each (B, n)
    into0, into1 = (1.0 - e1) * (1.0 + pol) / 2, (1.0 - e1) * (1.0 - pol) / 2
    factors = ([e1 + into0, e2, e2, e1 + into1], [into0, 0 * e1, 0 * e1, into1])
    return tuple(np.stack(f, axis=-1).reshape(*e1.shape, 1, 2, 1, 1, 2, 1) for f in factors)


def _relaxation_map(ms: np.ndarray, keep: np.ndarray, take: np.ndarray) -> np.ndarray:
    """The relaxation map with factors (B, n, ...) on a (B, d, d) stack, spin by spin:
    rho <- keep_k * rho + take_k * (rho with spin k flipped in both indices)."""
    b, d = len(ms), ms.shape[-1]
    for k in range(keep.shape[1]):
        lo, hi = 2**k, d >> (k + 1)
        v = ms.reshape(b, lo, 2, hi, lo, 2, hi)
        ms = keep[:, k] * v + take[:, k] * v[:, :, ::-1, :, :, ::-1]
    return ms.reshape(b, d, d)


def _on_rows(ms: np.ndarray, rows: list, f, *args) -> np.ndarray:
    """f(stack, *args) on the given rows of the stack ms, or on all of it, unindexed."""
    if len(rows) == len(ms):
        return f(ms, *args)
    ms[rows] = f(ms[rows], *args)
    return ms


def _timed_step(ms: np.ndarray, u: np.ndarray, keep=None, take=None) -> np.ndarray:
    """Propagators u on a stack, then the relaxation map if its factors are given."""
    ms = u @ ms @ u.conj().swapaxes(-1, -2)
    return ms if keep is None else _relaxation_map(ms, keep, take)


def evolve_programs(rho: DensityMatrix, programs: Sequence[PulseProgram],
                    relaxation: bool = False) -> np.ndarray:
    """Run each program from `rho`, all of them at once: the checked (B, d, d) stack of
    final states, row i from program i.

    The programs share one spin layout (nucleus labels, in order); machines may differ in
    offsets, J, T1/T2 and polarization, and programs in their events, the events' kinds
    and number included. Step s applies each program's s-th event to its row of the
    stack: a timed event its propagator, from one batched kernel call over the distinct
    (machine, event) pairs, then, if on, relaxation over its duration; a crusher its
    crush. A program that has ended is left as it is.
    """
    relaxation = FLAG.check("relaxation", relaxation)
    if not programs:
        return np.empty((0, *rho.matrix.shape), dtype=complex)
    config = programs[0].system
    machines = list({id(p.system): p.system for p in programs}.values())
    layout = tuple(nuc.label for nuc in config.nuclei)
    if any(tuple(nuc.label for nuc in cfg.nuclei) != layout for cfg in machines):
        raise ValidationError("batched programs must share one spin layout")
    if rho.n != config.n:
        raise ValidationError(f"state has {rho.n} qubits, machine has {config.n}")
    slot = {id(cfg): m for m, cfg in enumerate(machines)}  # each machine's number
    # steps[s] = (timed, crushed): the programs whose s-th event is timed or a crusher; a
    # program that has ended is in neither, so step s leaves its state as it is
    steps: list = [([], []) for _ in range(max(len(p.events) for p in programs))]
    for i, p in enumerate(programs):
        for s, ev in enumerate(p.events):
            steps[s][type(ev) is Crusher].append(i)
    props, rows, dts, m = _propagators(
        machines, [slot[id(programs[i].system)] for timed, _ in steps for i in timed],
        [programs[i].events[s] for s, (timed, _) in enumerate(steps) for i in timed])
    factors = _relaxation_factors(dts, machines, m) if relaxation else ()
    ms, at = np.repeat(rho.matrix[np.newaxis], len(programs), axis=0), 0
    for timed, crushed in steps:
        if crushed:
            ms = _on_rows(ms, crushed, _crush)
        if timed:
            r, at = rows[at:at + len(timed)], at + len(timed)
            ms = _on_rows(ms, timed, _timed_step, *(f.take(r, 0) for f in (props, *factors)))
    return _check_density(ms)


def evolve_program(
    rho: DensityMatrix, program: PulseProgram, relaxation: bool = False
) -> DensityMatrix:
    """Run a pulse program: events in order, optional relaxation after each
    timed event over that event's duration. The one row of `evolve_programs`, as a state."""
    return DensityMatrix._checked(evolve_programs(rho, [program], relaxation)[0])


def program_unitary(program: PulseProgram) -> np.ndarray:
    """Net unitary of a crusher-free program (relaxation off)."""
    if any(isinstance(ev, Crusher) for ev in program.events):
        raise ValidationError("program contains crushers; it has no net unitary")
    props, rows, _, _ = _propagators([program.system], [0] * len(program.events), program.events)
    return _kernels.unitary_chain(props[rows])
