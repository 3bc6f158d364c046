"""End-to-end algorithm suite: Deutsch, Grover (N=4), Bernstein-Vazirani,
approximate counting, Bell preparation, harmonic-oscillator simulation,
DQC1 trace estimation, and CNOT truth tables.

Each runner builds its circuits, executes them on the ideal-unitary or
compiled-pulse path starting from pseudo-pure |0...0> (treated as the pure
state), and reports exact ensemble probabilities. A runner of many circuits
(counting over l, the oscillator over omega*t, the CNOT truth table) runs
them on the pulse path as one `evolve_programs` batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .control import (
    CNOT,
    CZ,
    CY,
    DEFAULT_PULSE_AMP_HZ,
    DELAY,
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
from .measurement import tomography
from .quantum import (
    SIGMA_Z,
    DensityMatrix,
    Ket,
    bloch_vector,
    is_unitary,
    partial_trace,
    state_fidelity,
    tensor,
)
from .spinsys import SpinSystemConfig, preset


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


def _default_config(n: int, config: Optional[SpinSystemConfig]) -> SpinSystemConfig:
    cfg = config if config is not None else preset("gemini")
    if cfg.n != n:
        raise ValidationError(f"algorithm needs {n} qubits, machine has {cfg.n}")
    return cfg


def _execute(circuits: Sequence[Circuit], config: SpinSystemConfig, path: str,
             relaxation: bool = False,
             pulse_amp_hz: float = DEFAULT_PULSE_AMP_HZ) -> list[DensityMatrix]:
    """Each circuit's final state from |0...0>; on the pulse path from one batch."""
    if path not in ("ideal", "pulse"):
        raise ValidationError('path must be "ideal" or "pulse"')
    rho0 = DensityMatrix.basis(config.n, 0)
    if path == "ideal":
        return [rho0.evolved(circuit_unitary(c, config), validate=True) for c in circuits]
    programs = [compile_circuit(c, config, pulse_amp_hz) for c in circuits]
    return evolve_programs(rho0, programs, relaxation)


def _report(algorithm, path, circuit, rho, derived, fidelity=None) -> AlgorithmReport:
    return AlgorithmReport(
        algorithm=algorithm,
        path=path,
        circuit=circuit,
        final_state=rho,
        probabilities=rho.probabilities(),
        derived=derived,
        fidelity=fidelity,
    )


DEUTSCH_CASES = ("f1", "f2", "f3", "f4")


def run_deutsch(
    f_case: str,
    path: str = "ideal",
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> AlgorithmReport:
    """Constant-vs-balanced query decision with a single oracle call.

    Oracles: f1 -> identity, f2 -> X on qubit 2, f3 -> CNOT, f4 ->
    |0>-controlled CNOT. Verdict is "balanced" iff both qubits read |1>.
    """
    if f_case not in DEUTSCH_CASES:
        raise ValidationError(f"f_case must be one of {DEUTSCH_CASES}")
    cfg = _default_config(2, config)
    oracle = {
        "f1": [],
        "f2": [X(2)],
        "f3": [CNOT(1, 2)],
        "f4": [X(1), CNOT(1, 2), X(1)],
    }[f_case]
    circuit = Circuit(2, tuple([X(2), H(1), H(2), *oracle, H(1), H(2)]))
    (rho,) = _execute([circuit], cfg, path, relaxation)
    probs = rho.probabilities()
    balanced = probs["11"] > 0.5
    expected = "11" if f_case in ("f3", "f4") else "01"
    return _report(
        "deutsch",
        path,
        circuit,
        rho,
        {
            "case": f_case,
            "verdict": "balanced" if balanced else "constant",
            "expected_output": expected,
        },
        fidelity=state_fidelity(rho, Ket.from_bits(expected)),
    )


def _grover_r1_gates(target_bits: str) -> list[Gate]:
    flips = [X(q) for q, b in enumerate(target_bits, start=1) if b == "0"]
    return [*flips, CZ(1, 2), *reversed(flips)]


def run_grover4(
    target: int,
    path: str = "ideal",
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> AlgorithmReport:
    """One-iteration Grover search over four entries (always succeeds).

    `target` is the entry index 1..4, encoded as basis state 00..11. The
    sign-flip oracle is a controlled-Z conjugated by X gates picking the
    target; the diffusion step reflects about the uniform state.
    """
    if target not in (1, 2, 3, 4):
        raise ValidationError("target must be 1..4")
    cfg = _default_config(2, config)
    bits = format(target - 1, "02b")
    diffusion = [H(1), H(2), X(1), X(2), CZ(1, 2), X(2), X(1), H(2), H(1)]
    circuit = Circuit(2, tuple([H(1), H(2), *_grover_r1_gates(bits), *diffusion]))
    (rho,) = _execute([circuit], cfg, path, relaxation)
    return _report(
        "grover4",
        path,
        circuit,
        rho,
        {"target": target, "target_bits": bits},
        fidelity=state_fidelity(rho, Ket.from_bits(bits)),
    )


def run_bernstein_vazirani(
    a: str,
    path: str = "ideal",
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> AlgorithmReport:
    """Recover a hidden bit string with one parity query, entanglement-free.

    The oracle is a tensor product of identity / sigma_z factors, so the
    circuit contains no two-qubit gate by construction.
    """
    if not a or len(a) > 3 or any(c not in "01" for c in a):
        raise ValidationError("a must be a bit string of length 1..3")
    n = len(a)
    cfg = _default_config(n, config)
    hs = [H(q) for q in range(1, n + 1)]
    oracle = [Z(q) for q, bit in enumerate(a, start=1) if bit == "1"]
    circuit = Circuit(n, tuple([*hs, *oracle, *hs]))
    two_qubit = sum(1 for g in circuit.gates if len(g.targets) > 1)
    (rho,) = _execute([circuit], cfg, path, relaxation)
    return _report(
        "bernstein_vazirani",
        path,
        circuit,
        rho,
        {"a": a, "two_qubit_gate_count": two_qubit},
        fidelity=state_fidelity(rho, Ket.from_bits(a)),
    )


COUNTING_CASES = ("M0", "M1_first", "M1_second", "M2")
MAX_COUNTING_L = 1000  # each l builds l controlled-Grover steps: time and memory grow with it


def _counting_circuit(case: str, l: int) -> Circuit:
    controlled_r1 = {
        "M0": [],
        "M1_first": [X(2), CZ(1, 2), X(2)],
        "M1_second": [CZ(1, 2)],
        "M2": [Z(1)],
    }[case]
    gates = [H(1), H(2)]
    for _ in range(l):
        gates.extend(controlled_r1)
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
    path: str = "ideal",
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> AlgorithmReport:
    """Approximate counting of marked entries in a 2-entry database.

    For each repetition count l, applies l controlled-Grover steps between
    Hadamards on the control and records <sigma_z> of the control, which
    traces out cos(l theta) with sin(theta/2) = sqrt(M/N). Fitting the
    oscillation frequency yields the marked-entry count M.
    """
    if case not in COUNTING_CASES:
        raise ValidationError(f"case must be one of {COUNTING_CASES}")
    ls = [int(l) for l in l_values]
    if not ls or any(not 1 <= l <= MAX_COUNTING_L for l in ls):
        raise ValidationError(f"l_values must be integers from 1 to {MAX_COUNTING_L}")
    cfg = _default_config(2, config)
    states = _execute([_counting_circuit(case, l) for l in ls], cfg, path, relaxation)
    controls = [partial_trace(rho, {1}) for rho in states]
    sigma_z_curve = [bloch_vector(control).z for control in controls]
    control_diags = [[float(np.real(c.matrix[0, 0])), float(np.real(c.matrix[1, 1]))]
                     for c in controls]
    theta = _fit_cos_frequency(np.asarray(ls, dtype=float), np.asarray(sigma_z_curve))
    m_raw = 2.0 * np.sin(theta / 2.0) ** 2
    return _report(
        "counting",
        path,
        _counting_circuit(case, ls[-1]),  # rebuilt: held, every l's circuit adds to the fit's peak
        states[-1],
        {
            "case": case,
            "l_values": ls,
            "sigma_z": sigma_z_curve,
            "control_diagonals": control_diags,
            "theta_est": theta,
            "m_raw": m_raw,
            "m_est": int(round(m_raw)),
        },
    )


BELL_STATES = ("psi+", "psi-", "phi+", "phi-")
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
    path: str = "ideal",
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> AlgorithmReport:
    """Prepare one of the four Bell states from |00>.

    recipe "cnot": H on qubit 1, optional X on qubit 2 / Z on qubit 1 for
    the sign, then CNOT. recipe "cy": the controlled-y route, defined for
    phi- only.
    """
    if which not in BELL_STATES:
        raise ValidationError(f"which must be one of {BELL_STATES}")
    cfg = _default_config(2, config)
    if recipe == "cy":
        if which != "phi-":
            raise ValidationError('the "cy" recipe prepares only "phi-"')
        gates = [H(1), X(2), CY(1, 2)]
    elif recipe == "cnot":
        gates = [H(1)]
        if which in ("phi+", "phi-"):
            gates.append(X(2))
        if which in ("psi-", "phi-"):
            gates.append(Z(1))
        gates.append(CNOT(1, 2))
    else:
        raise ValidationError('recipe must be "cnot" or "cy"')
    circuit = Circuit(2, tuple(gates))
    (rho,) = _execute([circuit], cfg, path, relaxation)
    ideal = bell_ket(which)
    purities = [partial_trace(rho, {q}).purity() for q in (1, 2)]
    return _report(
        "bell",
        path,
        circuit,
        rho,
        {"which": which, "recipe": recipe, "reduced_purities": purities},
        fidelity=state_fidelity(rho, ideal),
    )


QHO_INITIALS = ("n0", "n0_plus_n3", "uniform4")


def _qho_target_unitary(omega_t: float) -> np.ndarray:
    # oscillator evolution mapped onto the two-spin register (global phase dropped): the
    # generator z2 (1 + z1 / 2) is diagonal
    return np.diag(np.exp(1j * omega_t * np.array([1.5, -1.5, 0.5, -0.5])))


def simulate_qho(
    initial: str,
    omega_t_values: Sequence[float],
    path: str = "ideal",
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> list[AlgorithmReport]:
    """Two-qubit simulation of a truncated four-level harmonic oscillator.

    Oscillator levels map to register states as n = 0,1,2,3 ->
    |00>, |10>, |11>, |01> (up-spin = |0>). Each omega*t point runs a pi
    sandwich around a J delay of omega_t/(pi J) plus an x/y-conjugated z
    rotation by 2 omega_t on qubit 2. For the |0>+|3> start the |00><01|
    coherence phase advances by 3 omega_t.
    """
    if initial not in QHO_INITIALS:
        raise ValidationError(f"initial must be one of {QHO_INITIALS}")
    cfg = _default_config(2, config)
    j = float(cfg.j_hz[0, 1])
    if j == 0.0:
        raise ValidationError("oscillator simulation needs a nonzero J coupling")
    prep = {"n0": [], "n0_plus_n3": [Y90(2)], "uniform4": [H(1), H(2)]}[initial]
    prep_u = circuit_unitary(Circuit(2, tuple(prep)), cfg)
    points = []  # (omega_t, delay, circuit)
    for omega_t in omega_t_values:
        if not np.isfinite(omega_t):
            raise ValidationError("omega_t values must be finite")
        delay = float(omega_t / (np.pi * j))
        gates = [*prep, RX(1, np.pi), DELAY(delay), RX(1, -np.pi), RX(2, np.pi / 2),
                 RY(2, 2.0 * float(omega_t)), RX(2, -np.pi / 2)]
        points.append((omega_t, delay, Circuit(2, tuple(gates))))
    states = _execute([circuit for *_, circuit in points], cfg, path, relaxation)
    reports = []
    for (omega_t, delay, circuit), rho in zip(points, states):
        ideal_vec = _qho_target_unitary(float(omega_t)) @ prep_u @ np.array([1, 0, 0, 0], complex)
        coherence = complex(rho.matrix[0, 1])
        derived = {
            "initial": initial,
            "omega_t": float(omega_t),
            "delay_s": delay,
            "coherence_01": {"re": coherence.real, "im": coherence.imag},
            "coherence_phase_rad": float(np.angle(coherence)) if abs(coherence) > 1e-12 else None,
            "expected_phase_rad": float(np.mod(3.0 * omega_t, 2.0 * np.pi)),
        }
        reports.append(_report("qho", path, circuit, rho, derived,
                               fidelity=state_fidelity(rho, ideal_vec)))
    return reports


def dqc1_trace(u: np.ndarray, epsilon: float) -> complex:
    """Normalized-trace estimate Tr(u)/2^n from the one-clean-qubit circuit.

    The control starts with polarization epsilon, 0 < |epsilon| <= 1, the register
    maximally mixed. Unitaries leave the identity part alone, and NMR observes the
    traceless deviation epsilon Z/2 (x) I/2^n (Vandersypen & Chuang, RMP 76, 1037 (2004)):
    after H and controlled-u, the control's (<sx> + i <sy>)/epsilon = Tr(u)/2^n. That is
    linear in epsilon, so the circuit runs on the deviation per unit epsilon, and no
    epsilon, subnormal ones included, costs digits.
    """
    if not 0 < abs(epsilon) <= 1:  # nan fails too
        raise ValidationError("epsilon must satisfy 0 < |epsilon| <= 1")
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("u must be a square matrix")
    dim = u.shape[0]
    n_reg = int(round(np.log2(dim)))
    if 2**n_reg != dim or not 1 <= n_reg <= 2:
        raise ValidationError("register must be 1 or 2 qubits")
    if not is_unitary(u):
        raise ValidationError("u must be unitary")
    circuit = _controlled(u) @ tensor(_HADAMARD, np.eye(dim))
    deviation = circuit @ tensor(SIGMA_Z / 2, np.eye(dim) / dim) @ circuit.conj().T
    # <sx> + i <sy> of the control is Tr(rho_c (sx + i sy)) = 2 rho_c[1, 0]
    return complex(2 * np.trace(deviation[dim:, :dim]))


def cnot_truth_table(
    direction: str = "12",
    path: str = "ideal",
    config: Optional[SpinSystemConfig] = None,
    relaxation: bool = False,
) -> list[dict]:
    """Truth table of CNOT_12 or CNOT_21 over the four basis inputs.

    Each input is prepared with X gates, the CNOT applied, and the output
    reconstructed by state tomography; rows report the dominant output
    basis state and its population.
    """
    if direction not in ("12", "21"):
        raise ValidationError('direction must be "12" or "21"')
    cfg = _default_config(2, config)
    control, target = (1, 2) if direction == "12" else (2, 1)
    inputs = [format(idx, "02b") for idx in range(4)]
    circuits = [Circuit(2, (*[X(q + 1) for q in range(2) if bits[q] == "1"], CNOT(control, target)))
                for bits in inputs]
    rows = []
    for bits, rho in zip(inputs, _execute(circuits, cfg, path, relaxation)):
        recon = tomography(rho, cfg)
        probs = recon.probabilities()
        output = max(probs, key=probs.get)
        rows.append({"input": bits, "output": output, "probability": probs[output]})
    return rows
