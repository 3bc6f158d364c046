"""End-to-end algorithm suite: Deutsch, Grover (N=4), Bernstein-Vazirani,
approximate counting, Bell preparation, harmonic-oscillator simulation,
DQC1 trace estimation, and CNOT truth tables.

`ALGORITHMS` declares each algorithm but DQC1 once: its options, qubit count,
circuits and report. `run` checks the options, executes the circuits on the
ideal-unitary or compiled-pulse path starting from pseudo-pure |0...0> (treated as
the pure state), and reports exact ensemble probabilities. A run executes its circuits
as one checked (B, d, d) stack of states, whose rows the reports read (the CNOT truth
table's in one tomography call). The CLI reads its algorithm options from the table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .control import (
    CNOT,
    CZ,
    CY,
    DEFAULT_PULSE_AMP_HZ,
    DELAY,
    PATH,
    Circuit,
    Gate,
    H,
    RX,
    RY,
    X,
    Y90,
    Z,
    _HADAMARD,
    _controlled,
    circuit_unitary,
    compile_circuit,
)
from .dynamics import evolve_programs
from .errors import ValidationError
from .measurement import _reconstruct
from .quantum import (
    FINITE_NUMBERS,
    FLAG,
    SIGMA_Z,
    DensityMatrix,
    Ket,
    Option,
    _check_density,
    complex_json,
    partial_trace,
    state_fidelity,
    tensor,
    unitary,
)
from .spinsys import MAX_SPINS, SpinSystemConfig, preset


@dataclass
class AlgorithmReport:
    """Outcome of one algorithm run: circuit, final state, readout."""

    algorithm: str
    path: str
    circuit: Circuit
    final_state: DensityMatrix
    probabilities: dict[str, float]
    derived: dict
    fidelity: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "path": self.path,
            "probabilities": self.probabilities,
            "derived": self.derived,
            "fidelity": self.fidelity,
        }


@dataclass(frozen=True)
class Algorithm:
    """Options by name; circuits(options, machine); report(options, machine, path, circuits,
    final-state stack), an AlgorithmReport or a CLI report's body; the qubits the options need."""

    options: dict[str, Option]
    circuits: Callable
    report: Callable
    qubits: Callable[[dict], int] = lambda options: 2


def _execute(circuits: Sequence[Circuit], config: SpinSystemConfig, path: str,
             relaxation: bool = False,
             pulse_amp_hz: float = DEFAULT_PULSE_AMP_HZ) -> np.ndarray:
    """The checked (B, d, d) stack of the circuits' final states from |0...0>, in one batch."""
    rho0 = DensityMatrix.basis(config.n, 0)
    if PATH.check("path", path) == "ideal":
        us = np.array([circuit_unitary(c, config) for c in circuits])
        return _check_density(us @ rho0.matrix @ us.conj().swapaxes(-1, -2))
    programs = [compile_circuit(c, config, pulse_amp_hz) for c in circuits]
    return evolve_programs(rho0, programs, relaxation)


def _report(algorithm, path, circuit, row, derived, ideal=None) -> AlgorithmReport:
    rho = DensityMatrix._checked(row)  # a row of the checked stack
    return AlgorithmReport(
        algorithm=algorithm,
        path=path,
        circuit=circuit,
        final_state=rho,
        probabilities=rho.probabilities(),
        derived=derived,
        fidelity=None if ideal is None else state_fidelity(rho, ideal),
    )


DEUTSCH_CASES = ("f1", "f2", "f3", "f4")


def run_deutsch(
    f_case: str,
    path: str = PATH.default,
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> AlgorithmReport:
    """Constant-vs-balanced query decision with a single oracle call.

    Oracles: f1 -> identity, f2 -> X on qubit 2, f3 -> CNOT, f4 ->
    |0>-controlled CNOT. Verdict is "balanced" iff both qubits read |1>.
    """
    return run("deutsch", path, config, relaxation, case=f_case)


def _deutsch_circuits(options, machine) -> list[Circuit]:
    oracle = {
        "f1": [],
        "f2": [X(2)],
        "f3": [CNOT(1, 2)],
        "f4": [X(1), CNOT(1, 2), X(1)],
    }[options["case"]]
    return [Circuit(2, tuple([X(2), H(1), H(2), *oracle, H(1), H(2)]))]


def _deutsch_report(options, machine, path, circuits, states) -> AlgorithmReport:
    verdict = "balanced" if states[0, 3, 3].real > 0.5 else "constant"  # reads |11>
    expected = "11" if options["case"] in ("f3", "f4") else "01"
    derived = {**options, "verdict": verdict, "expected_output": expected}
    return _report("deutsch", path, circuits[0], states[0], derived, Ket.from_bits(expected))


def _grover_r1_gates(target_bits: str) -> list[Gate]:
    flips = [X(q) for q, b in enumerate(target_bits, start=1) if b == "0"]
    return [*flips, CZ(1, 2), *reversed(flips)]


def run_grover4(
    target: int,
    path: str = PATH.default,
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> AlgorithmReport:
    """One-iteration Grover search over four entries (always succeeds).

    `target` is the entry index 1..4, encoded as basis state 00..11. The
    sign-flip oracle is a controlled-Z conjugated by X gates picking the
    target; the diffusion step reflects about the uniform state.
    """
    return run("grover4", path, config, relaxation, target=target)


def _grover4_circuits(options, machine) -> list[Circuit]:
    diffusion = [H(1), H(2), X(1), X(2), CZ(1, 2), X(2), X(1), H(2), H(1)]
    oracle = _grover_r1_gates(format(options["target"] - 1, "02b"))
    return [Circuit(2, tuple([H(1), H(2), *oracle, *diffusion]))]


def _grover4_report(options, machine, path, circuits, states) -> AlgorithmReport:
    bits = format(options["target"] - 1, "02b")
    derived = {**options, "target_bits": bits}
    return _report("grover4", path, circuits[0], states[0], derived, Ket.from_bits(bits))


def run_bernstein_vazirani(
    a: str,
    path: str = PATH.default,
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> AlgorithmReport:
    """Recover a hidden bit string with one parity query, entanglement-free.

    The oracle is a tensor product of identity / sigma_z factors, so the
    circuit contains no two-qubit gate by construction.
    """
    return run("bv", path, config, relaxation, a=a)


def _bv_circuits(options, machine) -> list[Circuit]:
    a = options["a"]
    hs = [H(q) for q in range(1, len(a) + 1)]
    oracle = [Z(q) for q, bit in enumerate(a, start=1) if bit == "1"]
    return [Circuit(len(a), tuple([*hs, *oracle, *hs]))]


def _bv_report(options, machine, path, circuits, states) -> AlgorithmReport:
    two_qubit = sum(1 for g in circuits[0].gates if len(g.targets) > 1)
    derived = {**options, "two_qubit_gate_count": two_qubit}
    return _report("bernstein_vazirani", path, circuits[0], states[0], derived,
                   Ket.from_bits(options["a"]))


MAX_COUNTING_L = 1000  # each l builds l controlled-Grover steps: time and memory grow with it


_CONTROLLED_R1 = {  # by counting case
    "M0": [],
    "M1_first": [X(2), CZ(1, 2), X(2)],
    "M1_second": [CZ(1, 2)],
    "M2": [Z(1)],
}


def _counting_circuit(case: str, l: int) -> Circuit:
    gates = [H(1), H(2)]
    for _ in range(l):
        gates.extend(_CONTROLLED_R1[case])
        gates.append(CNOT(1, 2))  # controlled diffusion step
    gates.append(H(1))
    return Circuit(2, tuple(gates))


def _fit_cos_frequency(ls: np.ndarray, values: np.ndarray) -> float:
    """theta in [0, pi] minimizing sum (cos(l theta) - value)^2. The best point of a grid
    and its neighbours bracket a minimum, across 0 or pi if need be (the sum is even about
    both); Newton steps on the derivative, bisecting when one leaves the bracket, refine it."""
    grid, h = np.linspace(0.0, np.pi, 20001, retstep=True)
    sse = np.zeros_like(grid)
    for l, value in zip(ls, values):  # one grid row at a time, in np.sum's order over rows
        sse += (np.cos(l * grid) - value) ** 2
    theta = grid[np.argmin(sse)]
    lo, hi = theta - h, theta + h
    for _ in range(100):  # bisection alone reaches the float spacing in fewer steps
        c, s = np.cos(ls * theta), np.sin(ls * theta)
        g = np.sum(ls * s * (values - c))  # half the derivative of the sum
        dg = np.sum(ls**2 * (s**2 - c * (c - values)))
        step = theta - g / dg if dg > 0.0 else np.nan
        if step == theta:  # converged
            break
        lo, hi = (theta, hi) if g < 0.0 else (lo, theta)  # from a maximum, go left
        step = step if lo < step < hi else lo + (hi - lo) / 2
        if step in (lo, hi):
            break
        theta = step
    return float(-theta if theta < 0.0 else 2 * np.pi - theta if theta > np.pi else theta)


def run_counting(
    case: str,
    l_values: Sequence[int],
    path: str = PATH.default,
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> AlgorithmReport:
    """Approximate counting of marked entries in a 2-entry database.

    For each repetition count l, applies l controlled-Grover steps between
    Hadamards on the control and records <sigma_z> of the control, which
    traces out cos(l theta) with sin(theta/2) = sqrt(M/N). Fitting the
    oscillation frequency yields the marked-entry count M.
    """
    return run("count", path, config, relaxation, case=case, l_values=l_values)


def _counting_report(options, machine, path, circuits, states) -> AlgorithmReport:
    # qubit 1's populations: each state's diagonal, summed over qubit 2
    populations = np.real(np.diagonal(states, axis1=1, axis2=2)).reshape(-1, 2, 2).sum(axis=2)
    sigma_z = populations[:, 0] - populations[:, 1]
    ls = np.asarray(options["l_values"], dtype=float)
    theta = _fit_cos_frequency(ls, sigma_z)
    m_raw = 2.0 * np.sin(theta / 2.0) ** 2
    derived = {
        **options,
        "sigma_z": sigma_z.tolist(),
        "control_diagonals": populations.tolist(),
        "theta_est": theta,
        "m_raw": m_raw,
        "m_est": int(round(m_raw)),
    }
    return _report("counting", path, circuits[-1], states[-1], derived)


_BELL_KETS = {
    "psi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "psi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "phi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "phi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


def bell_ket(which: str) -> Ket:
    """Ideal Bell vector: psi+- = (|00>+-|11>)/sqrt2, phi+- = (|01>+-|10>)/sqrt2."""
    return Ket(_BELL_KETS[which])


def prepare_bell(
    which: str,
    recipe: str = "cnot",
    path: str = PATH.default,
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> AlgorithmReport:
    """Prepare one of the four Bell states from |00>.

    recipe "cnot": H on qubit 1, optional X on qubit 2 / Z on qubit 1 for
    the sign, then CNOT. recipe "cy": the controlled-y route, defined for
    phi- only.
    """
    return run("bell", path, config, relaxation, which=which, recipe=recipe)


# The "cnot" recipe's gates between H(1) and CNOT(1, 2): X(2) for phi, Z(1) for the - sign
_BELL_SIGNS = {"psi+": [], "psi-": [Z(1)], "phi+": [X(2)], "phi-": [X(2), Z(1)]}


def _bell_circuits(options, machine) -> list[Circuit]:
    which = options["which"]
    if options["recipe"] == "cnot":
        return [Circuit(2, (H(1), *_BELL_SIGNS[which], CNOT(1, 2)))]
    if which != "phi-":
        raise ValidationError('the "cy" recipe prepares only "phi-"')
    return [Circuit(2, (H(1), X(2), CY(1, 2)))]


def _bell_report(options, machine, path, circuits, states) -> AlgorithmReport:
    report = _report("bell", path, circuits[0], states[0], {**options}, bell_ket(options["which"]))
    purities = [partial_trace(report.final_state, {q}).purity() for q in (1, 2)]
    report.derived["reduced_purities"] = purities
    return report


_QHO_PREPARATIONS = {"n0": [], "n0_plus_n3": [Y90(2)], "uniform4": [H(1), H(2)]}


def _qho_target_unitary(omega_t: float) -> np.ndarray:
    # oscillator evolution mapped onto the two-spin register (global phase dropped): the
    # generator z2 (1 + z1 / 2) is diagonal
    return np.diag(np.exp(1j * omega_t * np.array([1.5, -1.5, 0.5, -0.5])))


def simulate_qho(
    initial: str,
    omega_t_values: Sequence[float],
    path: str = PATH.default,
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> list[AlgorithmReport]:
    """Two-qubit simulation of a truncated four-level harmonic oscillator.

    Oscillator levels map to register states as n = 0,1,2,3 ->
    |00>, |10>, |11>, |01> (up-spin = |0>). Each omega*t point runs a J
    delay of |omega_t/(pi J)|, inside a pi sandwich on qubit 1 when omega_t and
    J share a sign, plus an x/y-conjugated z rotation by 2 omega_t on qubit 2;
    either sign of omega_t and of J works. For the |0>+|3> start the |00><01|
    coherence phase advances by 3 omega_t.
    """
    return run("qho", path, config, relaxation, initial=initial,
               omega_t=omega_t_values)["points"]


def _qho_circuits(options, machine) -> list[Circuit]:
    j = float(machine.j_hz[0, 1])
    if j == 0.0:
        raise ValidationError("oscillator simulation needs a nonzero J coupling")
    prep = _QHO_PREPARATIONS[options["initial"]]

    def coupling(omega_t):  # a pi sandwich on qubit 1 reverses the J phase
        delay_s = abs(omega_t / (np.pi * j))
        if not np.isfinite([delay_s, 2.0 * omega_t]).all():
            raise ValidationError(f"omega_t {omega_t:g} overflows its J delay or angle 2 omega_t")
        delay = DELAY(delay_s)
        return [RX(1, np.pi), delay, RX(1, -np.pi)] if omega_t * j > 0 else [delay]
    return [Circuit(2, tuple([*prep, *coupling(omega_t), RX(2, np.pi / 2),
                              RY(2, 2.0 * omega_t), RX(2, -np.pi / 2)]))
            for omega_t in options["omega_t"]]


def _qho_report(options, machine, path, circuits, states) -> dict:
    initial = options["initial"]
    prep_u = circuit_unitary(Circuit(2, tuple(_QHO_PREPARATIONS[initial])), machine)
    points = []
    for omega_t, circuit, rho in zip(options["omega_t"], circuits, states):
        ideal_vec = _qho_target_unitary(omega_t) @ prep_u @ np.array([1, 0, 0, 0], complex)
        coherence = complex(rho[0, 1])
        derived = {
            "initial": initial,
            "omega_t": omega_t,
            "delay_s": next(g.params[0] for g in circuit.gates if g.name == "Delay"),
            "coherence_01": complex_json(coherence),
            "coherence_phase_rad": float(np.angle(coherence)) if abs(coherence) > 1e-12 else None,
            "expected_phase_rad": float(np.mod(3.0 * omega_t, 2.0 * np.pi)),
        }
        points.append(_report("qho", path, circuit, rho, derived, ideal_vec))
    return {"algorithm": "qho", "path": path, "points": points}


EPSILON = Option(1.0, kind=float, rule="epsilon must satisfy 0 < |epsilon| <= 1",
                 ok=lambda epsilon: 0 < abs(epsilon) <= 1)


def dqc1_trace(u: np.ndarray, epsilon: float) -> complex:
    """Normalized-trace estimate Tr(u)/2^n from the one-clean-qubit circuit.

    The control starts with polarization epsilon, 0 < |epsilon| <= 1, the register
    maximally mixed. Unitaries leave the identity part alone, and NMR observes the
    traceless deviation epsilon Z/2 (x) I/2^n (Vandersypen & Chuang, RMP 76, 1037 (2004)):
    after H and controlled-u, the control's (<sx> + i <sy>)/epsilon = Tr(u)/2^n. That is
    linear in epsilon, so the circuit runs on the deviation per unit epsilon, and no
    epsilon, subnormal ones included, costs digits.
    """
    epsilon = EPSILON.check("epsilon", epsilon)
    u = unitary(u, (2, 4), "u")
    dim = len(u)
    circuit = _controlled(u) @ tensor(_HADAMARD, np.eye(dim))
    deviation = circuit @ tensor(SIGMA_Z / 2, np.eye(dim) / dim) @ circuit.conj().T
    # <sx> + i <sy> of the control is Tr(rho_c (sx + i sy)) = 2 rho_c[1, 0]
    return complex(2 * np.trace(deviation[dim:, :dim]))


_CNOT_INPUTS = ("00", "01", "10", "11")


def cnot_truth_table(
    direction: str = "12",
    path: str = PATH.default,
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> list[dict]:
    """Truth table of CNOT_12 or CNOT_21 over the four basis inputs.

    Each input is prepared with X gates, the CNOT applied, and the output
    reconstructed by state tomography; rows report the dominant output
    basis state and its population.
    """
    return run("cnot-table", path, config, relaxation, direction=direction)["rows"]


def _cnot_table_circuits(options, machine) -> list[Circuit]:
    control, target = (1, 2) if options["direction"] == "12" else (2, 1)
    return [Circuit(2, (*[X(q + 1) for q in range(2) if bits[q] == "1"], CNOT(control, target)))
            for bits in _CNOT_INPUTS]


def _cnot_table_report(options, machine, path, circuits, states) -> dict:
    rows = []
    for bits, rho in zip(_CNOT_INPUTS, _reconstruct(states, machine)[0]):
        output, probability = max(rho.probabilities().items(), key=lambda item: item[1])
        rows.append({"input": bits, "output": output, "probability": probability})
    return {"algorithm": "cnot-table", **options, "path": path, "rows": rows}


# Every algorithm but DQC1, by its CLI name. An option is a keyword of `run` and the CLI
# option of its name (l_values is --l-values); options are listed in the order of the
# public runner's arguments.
ALGORITHMS = {
    "deutsch": Algorithm({"case": Option("f1", DEUTSCH_CASES)},
                         _deutsch_circuits, _deutsch_report),
    "grover4": Algorithm({"target": Option(4, (1, 2, 3, 4), int)},
                         _grover4_circuits, _grover4_report),
    "bv": Algorithm(
        {"a": Option("11", rule=f"a must be a bit string of length 1..{MAX_SPINS}",
                     ok=lambda a: 0 < len(a) <= MAX_SPINS and set(a) <= {"0", "1"})},
        _bv_circuits, _bv_report, qubits=lambda options: len(options["a"])),
    "count": Algorithm(
        {"case": Option("M1_first", tuple(_CONTROLLED_R1)),
         "l_values": Option(tuple(range(1, 11)), kind=int, listed=True,
                            rule=f"l_values must be integers from 1 to {MAX_COUNTING_L}",
                            ok=lambda l: 1 <= l <= MAX_COUNTING_L)},
        lambda options, machine: [_counting_circuit(options["case"], l)
                                  for l in options["l_values"]],
        _counting_report),
    "bell": Algorithm({"which": Option("phi-", tuple(_BELL_KETS)),
                       "recipe": Option("cy", ("cnot", "cy"))},
                      _bell_circuits, _bell_report),
    "qho": Algorithm(
        {"initial": Option("n0", tuple(_QHO_PREPARATIONS)),
         # ten points to 2 pi, at the 12 significant digits of a report
         "omega_t": replace(FINITE_NUMBERS, rule=f"omega_t: {FINITE_NUMBERS.rule}", default=tuple(
             float(f"{0.1 * k * 2 * np.pi:.12g}") for k in range(1, 11)))},
        _qho_circuits, _qho_report),
    "cnot-table": Algorithm({"direction": Option("12", ("12", "21"))},
                            _cnot_table_circuits, _cnot_table_report),
}


def run(name: str, path: str = PATH.default, config: Optional[SpinSystemConfig] = None,
        relaxation: bool = False, **options):
    """The report of ALGORITHMS[name] with its `options`, each one not given at its default, on
    `config` (default: the gemini preset): the options are checked, the circuits executed once."""
    algorithm = ALGORITHMS[Option(None, tuple(ALGORITHMS)).check(f"algorithm {name!r}", name)]
    unknown = set(options) - set(algorithm.options)
    if unknown:
        raise ValidationError(f"{name}: unknown option {min(unknown)!r}")
    given = {key: option.default for key, option in algorithm.options.items()} | options
    options = {key: algorithm.options[key].check(key, value) for key, value in given.items()}
    relaxation = FLAG.check("relaxation", relaxation)
    machine = config if config is not None else preset("gemini")
    n = algorithm.qubits(options)
    if machine.n != n:
        raise ValidationError(f"algorithm needs {n} qubits, machine has {machine.n}")
    circuits = algorithm.circuits(options, machine)
    return algorithm.report(options, machine, path, circuits,
                            _execute(circuits, machine, path, relaxation))
