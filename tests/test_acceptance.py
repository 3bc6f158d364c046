"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria cover compiled
CNOT truth tables, Bell preparation on both recipes and paths, the four
algorithm demos, pseudo-pure preparation, GRAPE (gradient accuracy,
3-qubit convergence, monotonicity), relaxation/Rabi calibrations,
tomography, DQC1, and a randomized core-property sweep.
"""

import time

import numpy as np
import pytest

from conftest import make_weak_config, random_density_matrix, random_ket, random_unitary
from nmrqc import _kernels
from nmrqc.algorithms import (
    cnot_truth_table,
    dqc1_trace,
    prepare_bell,
    run_bernstein_vazirani,
    run_counting,
    run_deutsch,
    run_grover4,
    simulate_qho,
)
from nmrqc.control import Gate, GrapeConfig, gate_fidelity, gate_matrix, grape_optimize
from nmrqc.dynamics import Delay, PulseProgram, RfSegment, evolve_program
from nmrqc.experiments import prepare_pseudo_pure, rabi_calibration, relaxation_experiment
from nmrqc.measurement import readout_peak_table, tomography
from nmrqc.quantum import (
    DensityMatrix,
    partial_trace,
    pauli_expand,
    pauli_reconstruct,
    state_fidelity,
    tensor,
)
from nmrqc.spinsys import control_operators, internal_hamiltonian, preset

GEMINI = preset("gemini")
TRIANGULUM = preset("triangulum")

PHI_MINUS_MATRIX = 0.5 * np.array(
    [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
)

T1_DELAYS = [20e-6, 50e-6, 100e-6, 200e-6, 400e-6, 1.2e-3, 4e-3, 12e-3,
             50e-3, 200e-3, 1.0, 4.0, 15.0]
T2_DELAYS = [2 * h for h in (10e-6, 20e-6, 40e-6, 80e-6, 160e-6, 500e-6, 1.5e-3,
                             5e-3, 20e-3, 80e-3, 320e-3, 1.5)]


def _ok(number, text):
    print(f"PASS criterion {number:>2}: {text}", flush=True)


def test_c01_cnot_truth_tables_pulse_path():
    start = time.monotonic()
    expected = {
        "12": {"00": "00", "01": "01", "10": "11", "11": "10"},
        "21": {"00": "00", "01": "11", "10": "10", "11": "01"},
    }
    for direction, table in expected.items():
        rows = {r["input"]: r for r in cnot_truth_table(direction, path="pulse",
                                                        config=GEMINI)}
        for bits, out in table.items():
            assert rows[bits]["output"] == out
            assert rows[bits]["probability"] >= 1 - 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _ok(1, f"compiled CNOT truth tables, 8/8 inputs, {elapsed:.2f} s")


def test_c02_bell_phi_minus_both_recipes_and_paths():
    start = time.monotonic()
    for recipe in ("cy", "cnot"):
        ideal = prepare_bell("phi-", recipe, path="ideal", config=GEMINI)
        assert state_fidelity(ideal.final_state, DensityMatrix(PHI_MINUS_MATRIX)) >= 1 - 1e-9
        pulse = prepare_bell("phi-", recipe, path="pulse", config=GEMINI)
        assert state_fidelity(pulse.final_state, DensityMatrix(PHI_MINUS_MATRIX)) >= 1 - 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _ok(2, f"Bell phi- both recipes, ideal and pulse paths, {elapsed:.2f} s")


def test_c03_grover_always_succeeds():
    start = time.monotonic()
    for target in (1, 2, 3, 4):
        report = run_grover4(target, config=GEMINI)
        bits = format(target - 1, "02b")
        assert report.probabilities[bits] == pytest.approx(1.0, abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(3, f"Grover N=4 single-iteration search, 4/4 targets, {elapsed:.2f} s")


def test_c04_deutsch_outcomes_and_verdicts():
    expected = {"f1": ("01", "constant"), "f2": ("01", "constant"),
                "f3": ("11", "balanced"), "f4": ("11", "balanced")}
    for case, (bits, verdict) in expected.items():
        report = run_deutsch(case, config=GEMINI)
        assert report.probabilities[bits] >= 1 - 1e-9
        assert report.derived["verdict"] == verdict
    _ok(4, "Deutsch f1..f4 outcomes and verdicts")


def test_c05_bernstein_vazirani_all_strings():
    for a in ("00", "01", "10", "11"):
        report = run_bernstein_vazirani(a, config=GEMINI)
        assert report.probabilities[a] >= 1 - 1e-9
        assert report.derived["two_qubit_gate_count"] == 0
    _ok(5, "Bernstein-Vazirani recovers every string with zero 2-qubit gates")


def test_c06_counting_oscillations_exact():
    thetas = {"M0": 0.0, "M1_first": np.pi / 2, "M1_second": np.pi / 2, "M2": np.pi}
    counts = {"M0": 0, "M1_first": 1, "M1_second": 1, "M2": 2}
    for case, theta in thetas.items():
        report = run_counting(case, range(1, 11), config=GEMINI)
        for l, value in zip(report.derived["l_values"], report.derived["sigma_z"]):
            assert value == pytest.approx(np.cos(l * theta), abs=1e-9)
        assert report.derived["m_est"] == counts[case]
    _ok(6, "approximate counting <sigma_z>(l) = cos(l theta), M exact, 4/4 cases")


def test_c07_qho_grid_fidelity_and_phase():
    omegas = [0.1 * k * 2 * np.pi for k in range(1, 11)]
    for path, tol in (("ideal", 1e-9), ("pulse", 1e-6)):
        for report in simulate_qho("n0", omegas, path=path, config=GEMINI):
            assert report.fidelity == pytest.approx(1.0, abs=1e-6)
    for path, tol in (("ideal", 1e-6), ("pulse", 1e-3)):
        for report in simulate_qho("n0_plus_n3", omegas, path=path, config=GEMINI):
            diff = report.derived["coherence_phase_rad"] - report.derived["expected_phase_rad"]
            wrapped = (diff + np.pi) % (2 * np.pi) - np.pi
            assert abs(wrapped) < tol
    _ok(7, "oscillator simulation: eigenstate fidelity and 3*omega*t coherence phase")


def test_c08_pseudo_pure_pipeline():
    program, rho = prepare_pseudo_pure(GEMINI)
    eps = GEMINI.nuclei[0].polarization
    final = pauli_expand(rho)
    for label in ("ZI", "IZ", "ZZ"):
        assert final[label] / eps == pytest.approx(0.5, abs=1e-9)
    for label, value in final.items():
        if label not in ("II", "ZI", "IZ", "ZZ"):
            assert abs(value) / eps < 1e-9
    # intermediate post-crusher checks: after event 2 and after all events
    partial = evolve_program(
        DensityMatrix(np.array(np.eye(4) / 4, dtype=complex) +
                      eps / 4 * (tensor(np.diag([1., -1.]), np.eye(2)) +
                                 tensor(np.eye(2), np.diag([1., -1.])))),
        PulseProgram(system=GEMINI, events=program.events[:2]),
    )
    mid = pauli_expand(partial)
    assert mid["ZI"] / eps == pytest.approx(1.0, abs=1e-9)
    assert mid["IZ"] / eps == pytest.approx(0.5, abs=1e-9)
    assert all(abs(mid[s]) / eps < 1e-9 for s in ("XI", "YI", "IX", "IY", "ZZ"))
    _ok(8, "spatial-averaging pseudo-pure state with both crusher checkpoints")


def test_c09a_grape_gradient_vs_finite_difference():
    cfg = make_weak_config([30.0, -20.0], [[0.0, 50.0], [50.0, 0.0]])
    rng = np.random.default_rng(17)
    target = random_unitary(rng, 4)
    target_dag = np.ascontiguousarray(target.conj().T)
    controls, _ = control_operators(cfg)
    controls = controls.astype(np.complex128)
    n_seg, dt, u_max = 8, 5e-6, 50.0
    u = rng.uniform(-u_max, u_max, size=(n_seg, controls.shape[0]))
    h0 = internal_hamiltonian(cfg).astype(np.complex128)

    def hamiltonians(amps):
        return h0[np.newaxis] + np.tensordot(amps, controls, axes=(1, 0))

    def fid(amps):
        props = _kernels.segment_propagators(hamiltonians(amps), dt)
        return gate_fidelity(_kernels.unitary_chain(props), target)

    _, grad = _kernels.grape_fidelity_and_gradient(hamiltonians(u), target_dag, controls, dt)
    delta = 1e-3
    fds, analytic = [], []
    for j, m in zip(rng.integers(0, n_seg, 20), rng.integers(0, controls.shape[0], 20)):
        up, dn = u.copy(), u.copy()
        up[j, m] += delta
        dn[j, m] -= delta
        fds.append((fid(up) - fid(dn)) / (2 * delta))
        analytic.append(grad[j, m])
    fds = np.asarray(fds)
    analytic = np.asarray(analytic)
    assert np.linalg.norm(fds - analytic) <= 1e-2 * np.linalg.norm(fds)
    scale = float(np.max(np.abs(grad)))
    for fd, g in zip(fds, analytic):
        assert abs(fd - g) <= 1e-2 * scale
    _ok(9, "(a) exact GRAPE gradient matches central differences to 1e-2")


def test_c09b_grape_three_qubit_convergence():
    start = time.monotonic()
    target = gate_matrix(Gate("X90", (1,)), 3)
    gcfg = GrapeConfig(segments=100, dt_s=1.5e-3 / 100, max_iters=1000,
                       target_fidelity=0.995)
    result = grape_optimize(target, TRIANGULUM, gcfg, seed=1)
    elapsed = time.monotonic() - start
    assert result.final_fidelity >= 0.995
    assert result.iterations <= 1000
    assert elapsed < 300.0
    _ok(9, f"(b) 3-qubit pi/2 pulse reaches F={result.final_fidelity:.4f} in "
           f"{result.iterations} iterations, {elapsed:.0f} s")


def test_c09c_grape_trace_monotone():
    target = gate_matrix(Gate("Y90", (2,)), 2)
    cfg = make_weak_config([30.0, -20.0], [[0.0, 50.0], [50.0, 0.0]])
    result = grape_optimize(target, cfg,
                            GrapeConfig(segments=25, dt_s=2e-5, max_iters=150), seed=4)
    assert np.all(np.diff(result.fidelity_trace) >= 0)
    _ok(9, "(c) GRAPE fidelity trace is monotone nondecreasing")


def test_c10_relaxation_time_recovery():
    t1 = relaxation_experiment(GEMINI, "1H", "T1", T1_DELAYS)
    assert t1.fit.params["tau"] == pytest.approx(4.0, rel=0.02)
    t2 = relaxation_experiment(GEMINI, "1H", "T2", T2_DELAYS)
    assert t2.fit.params["tau"] == pytest.approx(0.2, rel=0.02)
    echo = relaxation_experiment(GEMINI, "1H", "T2", T2_DELAYS,
                                 offset_spread_hz=200.0, ensemble_points=11)
    assert echo.fit.params["tau"] == pytest.approx(0.2, rel=0.02)
    _ok(10, "T1/T2 fits within 2%, spin echo cancels a 200 Hz offset spread")


def test_c11_rabi_calibration_three_amplitudes():
    for u in (5e3, 12.5e3, 25e3):
        durations = np.linspace(0.0, 1.5 / u, 20)[1:]
        _, _, t180 = rabi_calibration(GEMINI, "1H", u, durations)
        assert t180 == pytest.approx(1 / (2 * u), rel=5e-3)
    _ok(11, "Rabi t180 within 0.5% of 1/(2u) for u in {5, 12.5, 25} kHz")


def test_c12_tomography_roundtrip_and_peak_patterns():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        rho = random_density_matrix(rng, 2)
        recon = tomography(rho, GEMINI)
        worst = max(worst, float(np.max(np.abs(recon.matrix - rho.matrix))))
    assert worst < 1e-8
    # the three textbook peak patterns, in deviation units at a
    # positivity-compatible scale: equal pair / cancellation / 1.5 & -0.5
    s_dev = 0.4
    pair = readout_peak_table(pauli_reconstruct({"II": 1, "XI": 1}), GEMINI)["1H"]
    assert sorted(p.amplitude.real for p in pair) == pytest.approx([1.0, 1.0], rel=0.01)
    cancel = readout_peak_table(
        pauli_reconstruct({"II": 1, "XI": s_dev, "XZ": s_dev}), GEMINI)["1H"]
    assert sorted(abs(p.amplitude) / s_dev for p in cancel) == pytest.approx(
        [0.0, 2.0], abs=0.01)
    frac = readout_peak_table(
        pauli_reconstruct({"II": 1, "XI": 0.5 * s_dev, "XZ": 1.0 * s_dev}), GEMINI)["1H"]
    assert sorted(p.amplitude.real / s_dev for p in frac) == pytest.approx(
        [-0.5, 1.5], rel=0.01)
    _ok(12, f"tomography max roundtrip error {worst:.2e}; peak patterns reproduced")


def test_c13_dqc1_random_unitaries():
    rng = np.random.default_rng(99)
    for _ in range(20):
        d = int(rng.choice([2, 4]))
        u = random_unitary(rng, d)
        assert abs(dqc1_trace(u, 1e-5) - np.trace(u) / d) < 1e-9
        ud = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=d)))
        assert abs(dqc1_trace(ud, 1e-5) - np.trace(ud) / d) < 1e-9
    _ok(13, "DQC1 trace estimates within 1e-9 for 20 random unitaries of each kind")


def test_c14_randomized_core_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    cases = 0
    # unitarity of propagators from random Hermitian generators
    for _ in range(200):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T).astype(np.complex128)
        u = _kernels.segment_propagators(h[np.newaxis], float(rng.uniform(0, 1e-3)))[0]
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10
        cases += 1
    # trace/hermiticity preservation through pulses plus relaxation
    for _ in range(200):
        rho = random_density_matrix(rng, 2)
        prog = PulseProgram(
            GEMINI,
            (RfSegment((float(rng.uniform(0, 2e4)), 0.0), (0.0, 0.0),
                       float(rng.uniform(0, 1e-4))),
             Delay(float(rng.uniform(0, 1e-3)))),
        )
        out = evolve_program(rho, prog, relaxation=True)
        assert abs(np.trace(out.matrix) - 1) < 1e-10
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(out.matrix)) > -1e-9
        cases += 1
    # Pauli expand/reconstruct roundtrip
    for _ in range(200):
        rho = random_density_matrix(rng, 2)
        back = pauli_reconstruct(pauli_expand(rho))
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12
        cases += 1
    # partial trace of product states
    for _ in range(200):
        r1 = random_density_matrix(rng, 1)
        r2 = random_density_matrix(rng, 1)
        joint = DensityMatrix(tensor(r1.matrix, r2.matrix))
        assert np.max(np.abs(partial_trace(joint, {1}).matrix - r1.matrix)) < 1e-12
        cases += 1
    # fidelity bounds and symmetry
    for _ in range(200):
        if rng.uniform() < 0.5:
            a, b = random_density_matrix(rng, 2), random_density_matrix(rng, 2)
        else:
            a, b = random_ket(rng, 2), random_density_matrix(rng, 2)
        f = state_fidelity(a, b)
        assert 0.0 <= f <= 1.0
        assert abs(f - state_fidelity(b, a)) < 1e-9
        cases += 1
    elapsed = time.monotonic() - start
    assert cases == 1000
    assert elapsed < 30.0
    _ok(14, f"core property suite, {cases} randomized cases in {elapsed:.1f} s")
