import io
import json
import re
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_weak_config, random_unitary
from nmrqc import _kernels, algorithms
from nmrqc.algorithms import (
    ALGORITHMS,
    MAX_COUNTING_L,
    _fit_cos_frequency,
    bell_ket,
    cnot_truth_table,
    dqc1_trace,
    prepare_bell,
    run_bernstein_vazirani,
    run_counting,
    run_deutsch,
    run_grover4,
    simulate_qho,
)
from nmrqc.cli import build_parser, main
from nmrqc.control import circuit_unitary
from nmrqc.errors import ValidationError
from nmrqc.quantum import DensityMatrix, partial_trace, state_fidelity

PHI_MINUS_MATRIX = 0.5 * np.array(
    [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
)


def phase_diff(a, b):
    return (a - b + np.pi) % (2 * np.pi) - np.pi


class TestDeutsch:
    @pytest.mark.parametrize(
        "case,expected,verdict",
        [
            ("f1", "01", "constant"),
            ("f2", "01", "constant"),
            ("f3", "11", "balanced"),
            ("f4", "11", "balanced"),
        ],
    )
    def test_cases(self, case, expected, verdict):
        report = run_deutsch(case)
        assert report.probabilities[expected] >= 1 - 1e-9
        assert report.derived["verdict"] == verdict

    def test_global_phase_pairs_indistinguishable(self):
        p1 = run_deutsch("f1").probabilities
        p2 = run_deutsch("f2").probabilities
        assert all(abs(p1[k] - p2[k]) < 1e-12 for k in p1)
        p3 = run_deutsch("f3").probabilities
        p4 = run_deutsch("f4").probabilities
        assert all(abs(p3[k] - p4[k]) < 1e-12 for k in p3)

    def test_probabilities_normalized(self):
        report = run_deutsch("f3")
        assert sum(report.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_bad_case(self):
        with pytest.raises(ValidationError):
            run_deutsch("f5")


class TestGrover4:
    @pytest.mark.parametrize("target", [1, 2, 3, 4])
    def test_single_iteration_succeeds(self, target):
        report = run_grover4(target)
        bits = format(target - 1, "02b")
        assert report.probabilities[bits] == pytest.approx(1.0, abs=1e-9)

    def test_oracle_for_entry_two_is_zero_controlled(self):
        # R1 for |01> flips only that basis state's sign
        from nmrqc.algorithms import _grover_r1_gates
        from nmrqc.control import Circuit

        u = circuit_unitary(Circuit(2, tuple(_grover_r1_gates("01"))))
        assert np.allclose(u, np.diag([1, -1, 1, 1]))

    def test_grover_operator_is_plane_rotation(self):
        # restricted to span{alpha, beta} G is a rotation with |sin| = sqrt(3)/2
        from nmrqc.algorithms import _grover_r1_gates
        from nmrqc.control import CZ, H, X, Circuit

        diffusion = [H(1), H(2), X(1), X(2), CZ(1, 2), X(2), X(1), H(2), H(1)]
        g = circuit_unitary(Circuit(2, tuple([*_grover_r1_gates("11"), *diffusion])))
        beta = np.zeros(4, dtype=complex)
        beta[3] = 1.0
        alpha = np.array([1, 1, 1, 0], dtype=complex) / np.sqrt(3)
        m = np.array(
            [
                [alpha.conj() @ g @ alpha, alpha.conj() @ g @ beta],
                [beta.conj() @ g @ alpha, beta.conj() @ g @ beta],
            ]
        )
        assert np.max(np.abs(m.imag)) < 1e-9
        r = m.real
        assert np.max(np.abs(r @ r.T - np.eye(2))) < 1e-9
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)
        assert abs(r[1, 0]) == pytest.approx(np.sqrt(3) / 2, abs=1e-9)

    def test_bad_target(self):
        with pytest.raises(ValidationError):
            run_grover4(5)


class TestBernsteinVazirani:
    @pytest.mark.parametrize("a", ["00", "01", "10", "11"])
    def test_recovers_hidden_string(self, a):
        report = run_bernstein_vazirani(a)
        assert report.probabilities[a] >= 1 - 1e-9
        assert report.derived["two_qubit_gate_count"] == 0

    def test_structurally_entanglement_free(self):
        report = run_bernstein_vazirani("11")
        assert all(len(g.targets) == 1 for g in report.circuit.gates)

    def test_three_qubit_variant(self):
        cfg = make_weak_config(
            [100.0, -50.0, 30.0], [[0, 10, 5], [10, 0, 20], [5, 20, 0]]
        )
        report = run_bernstein_vazirani("101", config=cfg)
        assert report.probabilities["101"] >= 1 - 1e-9

    def test_bad_string(self):
        with pytest.raises(ValidationError):
            run_bernstein_vazirani("2")


class TestCounting:
    CASES = {"M0": (0.0, 0), "M1_first": (np.pi / 2, 1), "M1_second": (np.pi / 2, 1),
             "M2": (np.pi, 2)}

    @pytest.mark.parametrize("case", list(CASES))
    def test_oscillation_and_count(self, case):
        theta, m = self.CASES[case]
        report = run_counting(case, range(1, 11))
        for l, value in zip(report.derived["l_values"], report.derived["sigma_z"]):
            assert value == pytest.approx(np.cos(l * theta), abs=1e-9)
        assert report.derived["m_est"] == m
        assert report.derived["theta_est"] == pytest.approx(theta, abs=1e-6)

    def test_control_diagonals(self):
        report = run_counting("M1_first", range(1, 6))
        for l, diag in zip(report.derived["l_values"], report.derived["control_diagonals"]):
            expected = (1 + np.cos(l * np.pi / 2)) / 2
            assert diag[0] == pytest.approx(expected, abs=1e-9)
            assert diag[1] == pytest.approx(1 - expected, abs=1e-9)

    def test_first_case_sequence(self):
        report = run_counting("M1_first", range(1, 5))
        assert report.derived["sigma_z"] == pytest.approx([0, -1, 0, 1], abs=1e-9)

    def test_bad_l_values(self):
        for ls in ([], [0], [MAX_COUNTING_L + 1]):
            with pytest.raises(ValidationError):
                run_counting("M0", ls)

    def test_largest_l_accepted(self):
        report = run_counting("M2", [MAX_COUNTING_L])
        assert report.derived["sigma_z"] == pytest.approx([np.cos(MAX_COUNTING_L * np.pi)],
                                                          abs=1e-9)

    @pytest.mark.parametrize("theta0, shrink", [
        (0.0, 1e-9), (np.pi, 1e-9), (np.pi, 0.0), (0.7, 1e-9), (2.9, 0.0), (np.pi - 2e-5, 1e-12),
    ])
    def test_frequency_fit_is_the_least_squares_minimum(self, theta0, shrink):
        # shrunk data turn 0 and pi into maxima of the sum, with its minima just inside; a
        # search that stops about sqrt(eps) from the minimum leaves a larger sum than these
        ls = np.arange(1.0, 6.0)
        values = (1.0 - shrink) * np.cos(ls * theta0)
        theta = _fit_cos_frequency(ls, values)
        assert 0.0 <= theta <= np.pi

        def sse(t):
            return np.sum((np.cos(ls * t) - values) ** 2)

        near = np.clip(theta + np.array([-1e-6, -1e-8, 1e-8, 1e-6]), 0.0, np.pi)
        assert sse(theta) <= min(sse(t) for t in (theta0, *near))

    def test_frequency_fit_memory_does_not_grow_with_l_values(self):
        # the grid's sum of squares is added up one l at a time, not as an (l, grid) array
        ls = np.arange(1.0, 1001.0)
        values = np.cos(ls * 0.3)
        tracemalloc.start()
        try:
            _fit_cos_frequency(ls, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestBell:
    def test_phi_minus_via_cy(self):
        report = prepare_bell("phi-", "cy")
        assert np.max(np.abs(report.final_state.matrix - PHI_MINUS_MATRIX)) < 1e-9
        assert report.fidelity >= 1 - 1e-9

    def test_phi_minus_via_cnot_matches_cy(self):
        r_cy = prepare_bell("phi-", "cy")
        r_cnot = prepare_bell("phi-", "cnot")
        assert state_fidelity(r_cnot.final_state, r_cy.final_state) >= 1 - 1e-9

    def test_psi_plus(self):
        report = prepare_bell("psi+", "cnot")
        expected = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert state_fidelity(report.final_state, expected) >= 1 - 1e-9

    @pytest.mark.parametrize("which", ["psi+", "psi-", "phi+", "phi-"])
    def test_all_states_maximally_entangled(self, which):
        report = prepare_bell(which, "cnot")
        assert report.fidelity >= 1 - 1e-9
        for q in (1, 2):
            assert partial_trace(report.final_state, {q}).purity() == pytest.approx(
                0.5, abs=1e-9
            )
        assert report.derived["reduced_purities"] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_unsupported_pair(self):
        with pytest.raises(ValidationError):
            prepare_bell("psi+", "cy")

    def test_bell_kets_orthonormal(self):
        kets = [bell_ket(w).amplitudes for w in ("psi+", "psi-", "phi+", "phi-")]
        gram = np.array([[abs(np.vdot(a, b)) for b in kets] for a in kets])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12


class TestQho:
    def test_eigenstate_stays_put(self):
        omegas = [0.1 * k * 2 * np.pi for k in range(1, 11)]
        for report in simulate_qho("n0", omegas):
            assert report.fidelity == pytest.approx(1.0, abs=1e-9)
            assert report.probabilities["00"] == pytest.approx(1.0, abs=1e-9)

    def test_coherence_phase_advance(self):
        omegas = [0.1 * k * 2 * np.pi for k in range(1, 11)]
        for report in simulate_qho("n0_plus_n3", omegas):
            got = report.derived["coherence_phase_rad"]
            expected = report.derived["expected_phase_rad"]
            assert abs(phase_diff(got, expected)) < 1e-6

    def test_delay_durations_match_hardware_listing(self):
        # omega t = 0.1 * 2 pi on a 697.4 Hz coupling needs a 287 us delay
        report = simulate_qho("n0", [0.1 * 2 * np.pi])[0]
        assert report.derived["delay_s"] == pytest.approx(287e-6, rel=2e-3)
        delays = [g for g in report.circuit.gates if g.name == "Delay"]
        assert len(delays) == 1

    def test_uniform_superposition_runs(self):
        report = simulate_qho("uniform4", [0.3])[0]
        assert sum(report.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_bad_initial(self):
        with pytest.raises(ValidationError):
            simulate_qho("n5", [0.1])

    def test_an_uncoupled_machine_raises(self):
        uncoupled = make_weak_config([0.0, 100.0], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError,
                           match="^oscillator simulation needs a nonzero J coupling$"):
            simulate_qho("n0", [0.5], config=uncoupled)


class TestDqc1:
    def test_identity_register(self):
        for n in (1, 2):
            est = dqc1_trace(np.eye(2**n, dtype=complex), 1e-5)
            assert est.real == pytest.approx(1.0, abs=1e-9)
            assert est.imag == pytest.approx(0.0, abs=1e-9)

    def test_traceless_unitary(self):
        est = dqc1_trace(np.diag([1.0, -1.0]).astype(complex), 1e-5)
        assert abs(est) < 1e-9

    def test_phase_diagonal(self):
        u = np.diag([1.0, np.exp(1j * np.pi / 3)])
        est = dqc1_trace(u, 1.0)
        assert est == pytest.approx((1 + np.exp(1j * np.pi / 3)) / 2, abs=1e-9)

    def test_random_unitaries_both_kinds(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            d = int(rng.choice([2, 4]))
            u = random_unitary(rng, d)
            est = dqc1_trace(u, 1e-5)
            assert abs(est - np.trace(u) / d) < 1e-9
            phases = rng.uniform(0, 2 * np.pi, size=d)
            ud = np.diag(np.exp(1j * phases))
            assert abs(dqc1_trace(ud, 1e-5) - np.trace(ud) / d) < 1e-9

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            dqc1_trace(np.eye(2), 0.0)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, 1.0000001, -2.0])
    def test_epsilon_outside_its_domain_rejected(self, epsilon):
        with pytest.raises(ValidationError, match=r"0 < \|epsilon\| <= 1"):
            dqc1_trace(np.eye(2), epsilon)

    @settings(max_examples=60, deadline=None)
    @given(exponent=st.floats(-300.0, 0.0), sign=st.sampled_from([-1.0, 1.0]),
           seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 4]))
    def test_estimate_holds_its_digits_for_every_epsilon(self, exponent, sign, seed, d):
        # the estimate is read from the traceless deviation, so a small polarization
        # costs no digits to the identity part of the state
        u = random_unitary(np.random.default_rng(seed), d)
        estimate = dqc1_trace(u, sign * 10.0**exponent)
        assert abs(estimate - np.trace(u) / d) <= 1e-12


class TestCnotTable:
    def test_direction_12(self):
        rows = {r["input"]: r for r in cnot_truth_table("12")}
        expected = {"00": "00", "01": "01", "10": "11", "11": "10"}
        for bits, out in expected.items():
            assert rows[bits]["output"] == out
            assert rows[bits]["probability"] >= 1 - 1e-9

    def test_direction_21(self):
        rows = {r["input"]: r for r in cnot_truth_table("21")}
        expected = {"00": "00", "01": "11", "10": "10", "11": "01"}
        for bits, out in expected.items():
            assert rows[bits]["output"] == out
            assert rows[bits]["probability"] >= 1 - 1e-9


class TestPulsePath:
    @pytest.mark.parametrize(
        "runner,kwargs",
        [
            (run_deutsch, {"f_case": "f3"}),
            (run_grover4, {"target": 2}),
            (run_bernstein_vazirani, {"a": "10"}),
            (prepare_bell, {"which": "phi-", "recipe": "cy"}),
        ],
    )
    def test_pulse_matches_ideal(self, runner, kwargs):
        ideal = runner(**kwargs, path="ideal")
        pulse = runner(**kwargs, path="pulse")
        for key in ideal.probabilities:
            assert abs(ideal.probabilities[key] - pulse.probabilities[key]) < 1e-6

    def test_qho_pulse_phase(self):
        omegas = [0.2 * 2 * np.pi, 0.7 * 2 * np.pi]
        for report in simulate_qho("n0_plus_n3", omegas, path="pulse"):
            got = report.derived["coherence_phase_rad"]
            expected = report.derived["expected_phase_rad"]
            assert abs(phase_diff(got, expected)) < 1e-3


class TestBatchedRunners:
    """On the pulse path the multi-circuit runners evolve all their circuits in one batch:
    one propagator-kernel call, and each result as from a one-circuit call, bit for bit."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        batched = _kernels.segment_propagators

        def counted(h_stack, dt):
            calls.append(len(h_stack))
            return batched(h_stack, dt)

        monkeypatch.setattr(_kernels, "segment_propagators", counted)
        return calls

    @pytest.mark.parametrize("relaxation", [False, True])
    def test_counting_equals_one_l_at_a_time(self, kernel_calls, relaxation):
        ls = [3, 1, 7, 2]
        batch = run_counting("M1_first", ls, "pulse", relaxation=relaxation)
        assert len(kernel_calls) == 1
        singles = [run_counting("M1_first", [l], "pulse", relaxation=relaxation) for l in ls]
        for key in ("sigma_z", "control_diagonals"):
            one_at_a_time = [s.derived[key][0] for s in singles]
            assert json.dumps(batch.derived[key]) == json.dumps(one_at_a_time)
        assert np.array_equal(batch.final_state.matrix, singles[-1].final_state.matrix)

    @pytest.mark.parametrize("relaxation", [False, True])
    def test_qho_equals_one_point_at_a_time(self, kernel_calls, relaxation):
        ws = [0.0, 0.4, 2.5, 1.1]
        batch = simulate_qho("n0_plus_n3", ws, "pulse", relaxation=relaxation)
        assert len(kernel_calls) == 1
        singles = [simulate_qho("n0_plus_n3", [w], "pulse", relaxation=relaxation)[0] for w in ws]
        assert [json.dumps(r.to_json_dict()) for r in batch] == [
            json.dumps(r.to_json_dict()) for r in singles]
        for got, one in zip(batch, singles):
            assert np.array_equal(got.final_state.matrix, one.final_state.matrix)

    @pytest.mark.parametrize("relaxation", [False, True])
    def test_cnot_table_is_one_kernel_call(self, kernel_calls, relaxation):
        rows = cnot_truth_table("12", "pulse", relaxation=relaxation)
        assert len(kernel_calls) == 1
        assert [(r["input"], r["output"]) for r in rows] == [
            ("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")]


# The public runner of each table algorithm: it takes the algorithm's options, in the
# order the table declares them, before the path.
PUBLIC_RUNNERS = {"deutsch": run_deutsch, "grover4": run_grover4,
                  "bv": run_bernstein_vazirani, "count": run_counting, "bell": prepare_bell,
                  "qho": simulate_qho, "cnot-table": cnot_truth_table}


class TestRunnerKeys:
    def test_an_unknown_algorithm_is_named(self):
        for name in ("nope", ["deutsch"]):
            with pytest.raises(ValidationError, match=re.escape(f"algorithm {name!r} must be")):
                algorithms.run(name)

    def test_an_option_the_algorithm_does_not_declare_is_named(self):
        with pytest.raises(ValidationError, match="^deutsch: unknown option 'bogus'$"):
            algorithms.run("deutsch", bogus=1)
        with pytest.raises(ValidationError, match="^count: unknown option 'case_'$"):
            algorithms.run("count", case="M2", case_="M2")


class TestOneExecution:
    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_each_algorithm_executes_once(self, monkeypatch, name):
        calls = []
        execute = algorithms._execute

        def counted(circuits, *args):
            calls.append(len(circuits))
            return execute(circuits, *args)

        monkeypatch.setattr(algorithms, "_execute", counted)
        options = [option.default for option in ALGORITHMS[name].options.values()]
        PUBLIC_RUNNERS[name](*options, "pulse")
        assert len(calls) == 1

    @pytest.mark.parametrize("path", ["ideal", "pulse"])
    def test_cnot_table_reconstructs_its_states_at_once(self, monkeypatch, path):
        calls = []
        reconstruct = algorithms._reconstruct

        def counted(states, *args):
            calls.append(states.shape)
            return reconstruct(states, *args)

        monkeypatch.setattr(algorithms, "_reconstruct", counted)
        cnot_truth_table("21", path)
        assert calls == [(4, 4, 4)]

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_ideal_rows_are_each_circuit_evolved_alone(self, gemini, name):
        algorithm = ALGORITHMS[name]
        options = {key: option.default for key, option in algorithm.options.items()}
        circuits = algorithm.circuits(options, gemini)
        stack = algorithms._execute(circuits, gemini, "ideal")
        assert stack.shape == (len(circuits), 4, 4)
        for circuit, row in zip(circuits, stack):
            alone = DensityMatrix.basis(2, 0).evolved(circuit_unitary(circuit, gemini))
            assert row.tobytes() == alone.matrix.tobytes()


@st.composite
def outside_values(draw):
    """(algorithm, option, value): a value of the option's kind outside its declaration;
    for a list option, the empty list or a list with such a value among any others."""
    name = draw(st.sampled_from(list(ALGORITHMS)))
    key, option = draw(st.sampled_from(list(ALGORITHMS[name].options.items())))
    kind = {int: st.integers(-10**6, 10**6),
            float: st.floats() | st.sampled_from([np.nan, np.inf, -np.inf]),
            str: st.text("01fMabcpsi+-_ ", max_size=5)}[option.kind]
    inside = (lambda v: v in option.choices) if option.choices else option.ok
    bad = kind.filter(lambda v: not inside(v))
    if not option.listed:
        return name, key, draw(bad)
    if draw(st.booleans()):
        return name, key, []
    return name, key, draw(st.lists(kind, max_size=2)) + [draw(bad)] + draw(
        st.lists(kind, max_size=2))


class TestDeclaredOptions:
    @pytest.fixture(scope="class")
    def parser(self):
        """The CLI's parser, built once: parsing leaves it as it was."""
        return build_parser()

    @settings(max_examples=150, deadline=None)
    @given(drawn=outside_values())
    def test_a_value_outside_is_rejected_by_the_runner_and_the_parser(self, parser, drawn):
        name, key, value = drawn
        options = ALGORITHMS[name].options
        with pytest.raises(ValidationError):
            PUBLIC_RUNNERS[name](*[value if k == key else o.default for k, o in options.items()])
        text = ",".join(map(str, value)) if options[key].listed else str(value)
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["algorithm", name, f"--{key.replace('_', '-')}={text}",
                    "--out", str(Path(tmp) / "out")]
            with redirect_stderr(io.StringIO()), pytest.raises((ValidationError, SystemExit)):
                parser.parse_args(argv)  # rejected when parsed
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
            assert rc == 2, (argv, err.getvalue())
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: validation:")
            assert not (Path(tmp) / "out").exists()
