"""Gate library, circuits, circuit-to-pulse compilation, and GRAPE.

Gates address qubits with 1-based indices, control first for two-qubit
gates. Compiled programs reproduce their circuit's unitary up to a global
phase: z rotations and offsets are frame shifts (see `compile_circuit`),
so the error left is the offset and J evolution of the pulsed spins during
the square pulses, which shrinks as the pulses shorten.
"""

from __future__ import annotations

import cmath
import dataclasses
import io
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import _kernels
from .dynamics import Delay as DelayEvent
from .dynamics import PULSE_AMPLITUDE, PulseProgram, RfSegment, program_unitary, square_pulse
from .errors import UncoupledPairError, ValidationError
from .quantum import (POSITIVE, QUBIT_COUNT, SIGMA_X, SIGMA_Y, SIGMA_Z, Option, embed,
                      finite_array, read, unitary, write)
from .spinsys import SpinSystemConfig, _drive_hamiltonian, control_operators, internal_hamiltonian

# Amplitude used when compiling circuits unless the caller overrides it.
# 5e8 Hz keeps the J-during-pulse error of a full two-qubit program below
# the 1e-9 infidelity budget while staying well inside double precision.
DEFAULT_PULSE_AMP_HZ = 5e8
# The two paths a circuit runs on: its ideal unitary, or its pulses compiled
PATH = Option("ideal", ("ideal", "pulse"), rule='path must be "ideal" or "pulse"')


def _rot(pauli: np.ndarray, theta: float) -> np.ndarray:
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * pauli


def _controlled(u: np.ndarray) -> np.ndarray:
    """|0><0| (x) I + |1><1| (x) u: u on the later qubits, controlled by the first."""
    d = u.shape[0]
    m = np.eye(2 * d, dtype=complex)
    m[d:, d:] = u
    return m


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# controlled block of CY: -i sigma_y, i.e. a controlled pi rotation about y
_MINUS_I_SY = np.array([[0, -1], [1, 0]], dtype=complex)

# Every named gate: (target count, parameter count, matrix on its targets from
# its parameters). Delay has no fixed matrix: it evolves under the machine's
# H0. `U` is the one gate outside the table; it carries its own matrix.
_GATES = {
    "I": (1, 0, lambda: np.eye(2, dtype=complex)),
    "X": (1, 0, lambda: SIGMA_X),
    "Y": (1, 0, lambda: SIGMA_Y),
    "Z": (1, 0, lambda: SIGMA_Z),
    "H": (1, 0, lambda: _HADAMARD),
    "P": (1, 1, lambda phi: np.diag([1.0, np.exp(1j * phi)])),
    "X90": (1, 0, lambda: _rot(SIGMA_X, np.pi / 2)),
    "Y90": (1, 0, lambda: _rot(SIGMA_Y, np.pi / 2)),
    "Rx": (1, 1, lambda theta: _rot(SIGMA_X, theta)),
    "Ry": (1, 1, lambda theta: _rot(SIGMA_Y, theta)),
    "Rz": (1, 1, lambda theta: _rot(SIGMA_Z, theta)),
    "CNOT": (2, 0, lambda: _controlled(SIGMA_X)),
    "CZ": (2, 0, lambda: _controlled(SIGMA_Z)),
    "CY": (2, 0, lambda: _controlled(_MINUS_I_SY)),
    "SWAP": (2, 0, lambda: np.eye(4, dtype=complex)[[0, 2, 1, 3]]),
    "Delay": (0, 1, None),
}


_TARGETS = Option(kind=int, listed=True, rule="gate {name}: targets must be integers")
_PARAMS = Option(kind=float, listed=True, ok=math.isfinite,
                 rule="gate {name}: parameters must be finite numbers")


@dataclass(frozen=True)
class Gate:
    name: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()
    matrix: Optional[np.ndarray] = dataclasses.field(default=None, compare=False)

    def __post_init__(self):
        if not (isinstance(self.targets, (tuple, list)) and isinstance(self.params, (tuple, list))):
            raise ValidationError(f"gate {self.name}: targets and parameters must be lists")
        for key, declared in (("targets", _TARGETS), ("params", _PARAMS)):  # tuples, () if empty
            values = getattr(self, key)
            object.__setattr__(self, key, declared.check(self.name, values) if values else ())
        self._check()

    @classmethod
    def _read(cls, fields: dict) -> "Gate":
        """A circuit file's gate, whose targets and params `read` gave as tuples of ints and of
        finite floats: only `_check` tests it."""
        gate = cls.__new__(cls)
        gate.__dict__.update(fields)
        gate._check()
        return gate

    def _check(self):
        """The tests of a gate whose targets and params are tuples of ints and of floats."""
        if not (isinstance(self.name, str) and (self.name in _GATES or self.name == "U")):
            raise ValidationError(f"unknown gate {self.name!r}")
        # U acts on as many targets as its matrix has qubits
        n_targets, n_params, _ = _GATES.get(self.name, (len(self.targets), 0, None))
        if len(self.targets) != n_targets:
            raise ValidationError(f"gate {self.name} takes {n_targets} target(s)")
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError(f"gate {self.name}: repeated target in {self.targets}")
        if len(self.params) != n_params:
            raise ValidationError(f"gate {self.name} takes {n_params} parameter(s)")
        if (self.matrix is None) == (self.name == "U"):
            raise ValidationError(f"gate {self.name}: only U takes a matrix, and U needs one")
        if self.matrix is not None:
            object.__setattr__(self, "matrix", unitary(self.matrix, [2**n_targets], "gate U"))


def _helper(name: str):
    """The builder of gate `name` from its targets, then its parameters: RX(1, theta)."""
    n_targets = _GATES[name][0]
    return lambda *args: Gate(name, args[:n_targets], args[n_targets:])


X, Y, Z, H, P, X90, Y90, RX, RY, RZ = map(_helper, ("X", "Y", "Z", "H", "P", "X90", "Y90",
                                                     "Rx", "Ry", "Rz"))
CNOT, CZ, CY, SWAP, DELAY = map(_helper, ("CNOT", "CZ", "CY", "SWAP", "Delay"))


def UNITARY(matrix, *targets):
    return Gate("U", tuple(targets), (), matrix)


# A circuit file; each gate's keys are its Gate fields
_CIRCUIT = {"n": "integer",
            "gates": ["gate", {"name": "string", "targets": ("integers", ()),
                               "params": ("numbers", ()), "matrix": ("complex", None)}]}


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", QUBIT_COUNT.check(self.n, self.n))  # its rule names n
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(not 1 <= t <= self.n for t in g.targets):
                raise ValidationError(f"gate {g.name} targets {g.targets} outside 1..{self.n}")

    def to_json_dict(self) -> dict:
        return write(self, _CIRCUIT)

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Circuit":
        c = read(d, _CIRCUIT, "circuit JSON")
        return cls(c["n"], tuple(Gate._read(gate) for gate in c["gates"]))


def gate_matrix(g: Gate, n: int, config: Optional[SpinSystemConfig] = None) -> np.ndarray:
    """Full 2^n x 2^n unitary of a gate embedded at its targets.

    Delay gates evolve under the machine's internal Hamiltonian and
    therefore require `config`.
    """
    n = QUBIT_COUNT.check(n, n)
    if g.name == "Delay":
        if config is None:
            raise ValidationError("Delay gate needs a machine config for its Hamiltonian")
        if config.n != n:
            raise ValidationError(f"Delay gate on {n} qubits, machine has {config.n}")
        return program_unitary(PulseProgram(config, (DelayEvent(g.params[0]),)))
    u = g.matrix if g.name == "U" else _GATES[g.name][2](*g.params)
    return embed(u, g.targets, n)


def circuit_unitary(c: Circuit, config: Optional[SpinSystemConfig] = None) -> np.ndarray:
    """Product of the gate matrices in time order (later gates on the left)."""
    if config is not None and c.n != config.n:
        raise ValidationError(f"circuit has {c.n} qubits, machine has {config.n}")
    return _kernels.unitary_chain((gate_matrix(g, c.n, config) for g in c.gates), 2**c.n)


def _zxz(u: np.ndarray) -> tuple[float, float, float, float]:
    """Angles (alpha, a, b, c) of a 2x2 unitary u = e^{i alpha} Rz(a) Rx(b) Rz(c) and 0 <= b <= pi.

    The pulse compiler plays Rx(b) as one pulse and carries Rz(a) and Rz(c)
    in its z frames. At b = 0 only a + c is fixed, at b = pi only a - c.
    """
    (u00, u01), (u10, u11) = u.tolist()
    alpha = cmath.phase(u00 * u11 - u01 * u10) / 2
    # w = e^{-i alpha} u is in SU(2): w11 = e^{i(a+c)/2} cos(b/2), w10 = -i e^{i(a-c)/2} sin(b/2)
    w10, w11 = u10 * cmath.exp(-1j * alpha), u11 * cmath.exp(-1j * alpha)
    s, d = 2 * cmath.phase(w11), 2 * cmath.phase(1j * w10)
    return alpha, (s + d) / 2, 2 * math.atan2(abs(w10), abs(w11)), (s - d) / 2


def gate_fidelity(u: np.ndarray, target: np.ndarray) -> float:
    """|Tr(u target^dag)|^2 / d^2: global-phase-invariant gate overlap."""
    error = "gate_fidelity: u and target must be arrays of finite numbers"
    u, target = finite_array(u, complex, error), finite_array(target, complex, error)
    if u.shape != target.shape or u.ndim != 2 or not 0 < u.shape[0] == u.shape[1]:
        raise ValidationError(f"dimension mismatch: {u.shape} vs {target.shape}")
    d = u.shape[0]
    u, target = unitary(u, [d], "gate_fidelity: u"), unitary(target, [d], "gate_fidelity: target")
    return float(abs(np.trace(u @ target.conj().T)) ** 2 / d**2)


class _PulseEmitter:
    """Pulses and J delays with one z frame per qubit (0-based; qubit q is channel q): the
    circuit so far is (x)_q Rz(frame[q]) times the events so far, up to a global phase."""

    def __init__(self, config: SpinSystemConfig, amp_hz: float):
        self.config = config
        self.amp = PULSE_AMPLITUDE.check("pulse_amp_hz", amp_hz)
        self.events: list = []
        self.frame = [0.0] * config.n
        self.precession = [2 * np.pi * nuc.offset_hz for nuc in config.nuclei]  # rad/s

    def emit(self, event, busy=()):
        """Append a timed event; each frame not in `busy` takes back its qubit's precession."""
        for q, w in enumerate(self.precession):
            if q not in busy:
                self.frame[q] -= w * event.duration_s
        if not math.isfinite(sum(self.frame)):
            raise ValidationError("offset precession over the compiled events is not finite")
        self.events.append(event)

    def pulse(self, phases: dict, angle: float):
        """One pulse rotating each qubit q of `phases` by `angle` about the axis at phases[q]."""
        phis = {q: math.remainder(phi, 2 * np.pi) for q, phi in phases.items()}
        duration = angle / (2 * np.pi * self.amp)
        self.emit(square_pulse(self.config, phis, duration, self.amp), phases)

    def rotate(self, q: int, u: np.ndarray):
        # u Rz(f) = Rz(a + c + f) R_{-(c + f)}(b), where R_phi(b) = Rz(phi) Rx(b) Rz(-phi)
        _, a, b, c = _zxz(u)  # gates are validated unitaries
        if b > 1e-12:
            self.pulse({q: -(c + self.frame[q])}, b)
        self.frame[q] += a + c

    def cz(self, c: int, t: int):
        j = self.config.j_hz
        j_ct = float(j[c, t])
        if j_ct == 0.0:
            raise UncoupledPairError(f"two-qubit gate on qubits {c + 1},{t + 1}: J is zero, "
                                     "gate not practical")
        # a machine has at most one spectator; if coupled, a pi pulse after each half of the
        # delay refocuses its couplings and offset (Vandersypen & Chuang, RMP 76, 1037 (2004))
        # and negates its frame
        spectators = [s for s in range(self.config.n) if s not in (c, t) and j[s].any()]
        for _ in range(1 + len(spectators)):
            self.emit(DelayEvent(1.0 / (2.0 * abs(j_ct) * (1 + len(spectators)))))
            for s in spectators:
                self.pulse({s: 0.0}, np.pi)
                self.frame[s] = -self.frame[s]
        # e^{-i sign(J) (pi/4) ZZ} is CZ times Rz(sign(J) pi/2) on both qubits
        for q in (c, t):
            self.frame[q] -= math.copysign(np.pi / 2, j_ct)

    def flush(self):
        """Play the frames as pulses, Rz(f) = R_{f/2}(pi) R_0(pi) up to a global phase, on
        all qubits at once; a zero frame joins if its qubit would precess meanwhile."""
        f = [math.remainder(x, 2 * np.pi) for x in self.frame]
        if max(map(abs, f)) > 1e-12:
            qs = [q for q, w in enumerate(self.precession) if abs(f[q]) > 1e-12 or w]
            self.pulse(dict.fromkeys(qs, 0.0), np.pi)
            self.pulse({q: f[q] / 2 for q in qs}, np.pi)


# Two-qubit gates as CZs and one-qubit gates, up to a global phase: (name, slots, parameters)
_VIA_CZ = {
    "CNOT": (("H", (1,), ()), ("CZ", (0, 1), ()), ("H", (1,), ())),
    "CY": (("P", (1,), (-np.pi / 2,)), ("CNOT", (0, 1), ()), ("P", (1,), (np.pi / 2,)),
           ("P", (0,), (-np.pi / 2,))),
    "SWAP": (("CNOT", (0, 1), ()), ("CNOT", (1, 0), ()), ("CNOT", (0, 1), ())),
}


def compile_circuit(
    c: Circuit,
    config: SpinSystemConfig,
    pulse_amp_hz: float = DEFAULT_PULSE_AMP_HZ,
) -> PulseProgram:
    """Compile a circuit into square pulses and J-coupling delays.

    Requires a weak-coupling machine whose nuclei all sit on distinct
    channels (heteronuclear addressing). One z frame per qubit carries z
    rotations (Vandersypen & Chuang, RMP 76, 1037 (2004)): a one-qubit gate
    is one pulse whose phase holds the frame, and each idle spin's offset
    precession during an emitted pulse or J delay goes into its frame. A CZ
    is one 1/(2J) delay and a frame shift, with pi pulses refocusing its
    coupled spectators; other two-qubit gates are rewritten to CZs. A
    `Delay` gate is free evolution and leaves the frames alone. The final
    frames are played as two pi pulses each.
    """
    if c.n != config.n:
        raise ValidationError(f"circuit has {c.n} qubits, machine has {config.n}")
    if config.coupling_model != "weak":
        raise ValidationError("pulse compilation requires a weak-coupling machine")
    if len(config.channels) != config.n:
        raise ValidationError(
            "pulse compilation needs per-qubit channels (all nucleus labels distinct)"
        )
    em = _PulseEmitter(config, pulse_amp_hz)

    def emit(name: str, targets, params, matrix=None):
        if name == "Delay":
            em.events.append(DelayEvent(params[0]))
        elif len(targets) == 1:
            em.rotate(targets[0] - 1, _GATES[name][2](*params) if matrix is None else matrix)
        elif name == "CZ":
            em.cz(targets[0] - 1, targets[1] - 1)
        elif name in _VIA_CZ:
            for step, slots, step_params in _VIA_CZ[name]:
                emit(step, [targets[s] for s in slots], step_params)
        else:
            raise ValidationError("only single-qubit custom unitaries compile to pulses")

    for g in c.gates:
        emit(g.name, g.targets, g.params, g.matrix)
    em.flush()
    return PulseProgram(system=config, events=tuple(em.events))


GRAPE_RANDOM_AMP_HZ = 1000.0
GRAPE_CONSTANT_AMP_HZ = 0.0
GRAPE_RESTART_MIN_ITERS = 50
MAX_GRAPE_ELEMENTS = 2**20  # segments * dim^2; an evaluation holds about 210 B per element

# GrapeConfig's fields but dt_s. The default of 100 segments is the CLI's; a GrapeConfig needs them
GRAPE_OPTIONS = {
    "segments": Option(100, kind=int, rule=f"segments must be an integer from 1 to "
                       f"{MAX_GRAPE_ELEMENTS}", ok=lambda v: 1 <= v <= MAX_GRAPE_ELEMENTS),
    "max_iters": Option(1000, kind=int, rule="max iterations must be an integer >= 0",
                        ok=lambda v: v >= 0),
    "target_fidelity": Option(0.9995, kind=float, rule="target fidelity must be in (0, 1]",
                              ok=lambda v: 0 < v <= 1),
    "initial": Option("random", ("random", "constant")),
}
SEED = Option(0, kind=int, rule="seed must be an integer >= 0", ok=lambda v: v >= 0)
SEGMENT_DT = dataclasses.replace(POSITIVE, rule="dt_s must be finite and > 0")


@dataclass(frozen=True)
class GrapeConfig:
    """Knobs for the quasi-Newton pulse search.

    segments * dt_s is the total pulse duration. `initial` picks the seed
    amplitudes: "random" draws uniformly from +-GRAPE_RANDOM_AMP_HZ,
    "constant" fills every segment with GRAPE_CONSTANT_AMP_HZ. max_iters caps
    the accepted L-BFGS iterates over all starts; each start has
    `restart_iters` of them to reach the target. `GRAPE_OPTIONS` declares the rest.
    """

    segments: int
    dt_s: float
    max_iters: int = GRAPE_OPTIONS["max_iters"].default
    target_fidelity: float = GRAPE_OPTIONS["target_fidelity"].default
    initial: str = GRAPE_OPTIONS["initial"].default

    def __post_init__(self):
        for key, option in {**GRAPE_OPTIONS, "dt_s": SEGMENT_DT}.items():
            object.__setattr__(self, key, option.check(key, getattr(self, key)))
        # the optimizer starts from amplitude * duration; each segment rotates by 2*pi times it
        if not math.isfinite(2 * math.pi * GRAPE_RANDOM_AMP_HZ * self.duration_s):
            raise ValidationError("segments * dt_s too long: 2*pi*amplitude*duration overflows")

    @property
    def duration_s(self) -> float:
        return self.segments * self.dt_s

    @property
    def restart_iters(self) -> int:
        return max(GRAPE_RESTART_MIN_ITERS, self.max_iters // 2)


@dataclass
class GrapeResult:
    """Optimized piecewise-constant controls plus the search trace."""

    amplitudes_hz: np.ndarray  # (segments, 2 * n_channels): (x, y) per channel
    channels: tuple[str, ...]
    dt_s: float
    program: PulseProgram  # on the searched machine, one RfSegment per segment: the controls
    fidelity_trace: np.ndarray
    final_unitary: np.ndarray  # program_unitary(program), the path every pulse propagates on
    final_fidelity: float
    iterations: int
    stop_reason: str  # "target_fidelity" once an iterate reaches the target, else "max_iters"
    seed: int
    restarts: int

    def csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("segment_index,channel,u_x_hz,u_y_hz\n")
        for j, row in enumerate(self.amplitudes_hz):
            for ch, ux, uy in zip(self.channels, row[0::2], row[1::2]):
                buf.write(f"{j},{ch},{ux:.12g},{uy:.12g}\n")
        return buf.getvalue()

    def metadata_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_fidelity": self.final_fidelity,
            "seed": self.seed,
            "stop_reason": self.stop_reason,
            "restarts": self.restarts,
            "segments": int(self.amplitudes_hz.shape[0]),
            "dt_s": self.dt_s,
            "channels": list(self.channels),
        }


def grape_optimize(
    target: np.ndarray,
    config: SpinSystemConfig,
    gcfg: GrapeConfig,
    seed: int = SEED.default,
) -> GrapeResult:
    """Quasi-Newton GRAPE search for piecewise-constant controls realizing `target`.

    Minimizes 1 - F over all segment amplitudes with L-BFGS (`_lbfgs`, the
    iteration of L-BFGS-B without bounds; de Fouquieres et al., JMR 212, 412
    (2011)), fed the exact fidelity gradient of
    `_kernels.grape_fidelity_and_gradient`. The optimizer works on the
    amplitudes times the pulse duration, so a unit step is about one
    rotation over the pulse rather than 1 Hz. A start that takes no step
    (its gradient vanishes, or its first line search fails) spends one
    iterate on its own point. A start that ends below the target, after
    `gcfg.restart_iters` iterates or when L-BFGS converges, gives way to a
    fresh random draw from the seed's generator (multi-start; Machnes et al.,
    PRA 84, 022305 (2011)); every iterate of every start counts against
    max_iters. The result is the best iterate, and each iterate appends the
    best fidelity so far to the trace, which is therefore nondecreasing.
    Stops with reason "target_fidelity" once an iterate reaches the target,
    else "max_iters" after max_iters iterates.
    """
    from . import _lbfgs  # here, so that compiling a circuit does not import the optimizer

    seed = SEED.check("seed", seed)
    if gcfg.segments * config.dim**2 > MAX_GRAPE_ELEMENTS:
        raise ValidationError(f"segments * dim^2 must be <= {MAX_GRAPE_ELEMENTS}: at most "
                              f"{MAX_GRAPE_ELEMENTS // config.dim**2} segments on this machine")
    target = unitary(target, [config.dim], "target")
    h0 = internal_hamiltonian(config)
    controls, channels = control_operators(config)
    m = controls.shape[0]
    n_seg = gcfg.segments
    dt = float(gcfg.dt_s)
    scale = gcfg.duration_s
    target_dag = np.ascontiguousarray(target.conj().T)
    rng = np.random.default_rng(seed)

    def draw() -> np.ndarray:
        return rng.uniform(-GRAPE_RANDOM_AMP_HZ, GRAPE_RANDOM_AMP_HZ, size=n_seg * m) * scale

    def infidelity_and_gradient(x: np.ndarray):
        h = h0 + _drive_hamiltonian(controls, x.reshape(n_seg, m) / scale)
        fid, grad = _kernels.grape_fidelity_and_gradient(h, target_dag, controls, dt)
        return 1.0 - fid, -grad.ravel() / scale

    def running() -> bool:
        return trace[-1] < gcfg.target_fidelity and len(trace) <= gcfg.max_iters

    x = draw() if gcfg.initial == "random" else np.full(n_seg * m, GRAPE_CONSTANT_AMP_HZ * scale)
    f, g = infidelity_and_gradient(x)
    trace, best, restarts = [1.0 - f], x, 0
    while running():
        # a start that takes no step spends one iterate on its own point
        steps = _lbfgs.iterates(infidelity_and_gradient, x, f, g)
        steps = itertools.chain([next(steps, (x, f, g))], steps)
        for x, f, g in itertools.islice(steps, gcfg.restart_iters):
            if 1.0 - f > trace[-1]:
                best = x
            trace.append(max(trace[-1], 1.0 - f))
            if not running():
                break
        if running():
            restarts += 1
            x = draw()
            f, g = infidelity_and_gradient(x)

    u = best.reshape(n_seg, m) / scale
    x_hz, y_hz = u[:, 0::2], u[:, 1::2]  # (segments, channels) each
    segments = zip(np.hypot(x_hz, y_hz).tolist(), np.arctan2(y_hz, x_hz).tolist())
    program = PulseProgram(config, tuple(RfSegment(a, p, dt) for a, p in segments))
    final_u = program_unitary(program)
    return GrapeResult(
        amplitudes_hz=u,
        channels=channels,
        dt_s=dt,
        program=program,
        fidelity_trace=np.asarray(trace),
        final_unitary=final_u,
        final_fidelity=gate_fidelity(final_u, target),
        iterations=len(trace) - 1,
        stop_reason="target_fidelity" if trace[-1] >= gcfg.target_fidelity else "max_iters",
        seed=seed,
        restarts=restarts,
    )
