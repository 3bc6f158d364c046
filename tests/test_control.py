import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ROOT, make_weak_config, random_unitary
from nmrqc.control import (
    CNOT,
    CY,
    CZ,
    DELAY,
    SWAP,
    Circuit,
    Gate,
    H,
    RX,
    RY,
    RZ,
    UNITARY,
    X,
    X90,
    Z,
    _GATES,
    _zxz,
    circuit_unitary,
    compile_circuit,
    gate_fidelity,
    gate_matrix,
)
from nmrqc.dynamics import Delay as DelayEvent
from nmrqc.dynamics import PulseProgram, RfSegment, program_unitary
from nmrqc.errors import UncoupledPairError, ValidationError
from nmrqc.quantum import SIGMA_X, SIGMA_Y, SIGMA_Z, embed

CNOT12 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT21 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
SWAP_M = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def rot(pauli, theta):
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * pauli


def table_gates():
    """(name, gate) for every gate of `_GATES`: one-qubit gates alternate between
    qubits 1 and 2, two-qubit gates run from 1 to 2, and the parameters are
    placeholders (1.1 rad, or 1e-4 s for Delay)."""
    gates = []
    for i, (name, (n_targets, n_params, _)) in enumerate(_GATES.items()):
        targets = {0: (), 1: (1 + i % 2,), 2: (1, 2)}[n_targets]
        params = (1e-4 if name == "Delay" else 1.1,) * n_params
        gates.append((name, Gate(name, targets, params)))
    return gates


class TestGateMatrices:
    def test_cnot_both_directions(self):
        assert np.allclose(gate_matrix(CNOT(1, 2), 2), CNOT12)
        m21 = gate_matrix(CNOT(2, 1), 2)
        assert np.allclose(m21, CNOT21)
        assert np.allclose(m21 @ np.array([0, 1, 0, 0]), [0, 0, 0, 1])  # |01> -> |11>

    def test_full_rotation_spinor_sign(self):
        assert np.allclose(gate_matrix(RX(1, 2 * np.pi), 1), -np.eye(2))

    def test_involutions(self):
        h = gate_matrix(H(1), 1)
        assert np.allclose(h @ h, np.eye(2))
        assert np.allclose(CNOT12 @ CNOT12, np.eye(4))
        cy = gate_matrix(CY(1, 2), 2)
        assert np.allclose(np.linalg.matrix_power(cy, 4), np.eye(4))

    def test_cy_action(self):
        cy = gate_matrix(CY(1, 2), 2)
        assert np.allclose(cy @ np.array([0, 0, 1, 0]), [0, 0, 0, 1])  # |10> -> |11>
        assert np.allclose(cy @ np.array([0, 0, 0, 1]), [0, 0, -1, 0])  # |11> -> -|10>

    def test_unitarity_all_gates(self, gemini):
        gates = [g for _, g in table_gates()] + [CZ(2, 1), UNITARY(rot(SIGMA_Y, 0.4), 2)]
        for g in gates:
            u = gate_matrix(g, 2, gemini)
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12

    def test_embedding_on_three_qubits(self):
        u = gate_matrix(CNOT(3, 1), 3)
        # control on qubit 3, target qubit 1: |001> -> |101>
        vec = np.zeros(8)
        vec[1] = 1.0
        assert np.allclose(u @ vec, np.eye(8)[5])

    def test_delay_needs_config(self):
        with pytest.raises(ValidationError):
            gate_matrix(DELAY(1e-3), 2)

    @pytest.mark.parametrize("n", [0, 1, 3, 99, "x", None])
    def test_a_delay_holds_n_to_the_machine(self, gemini, n):
        # the machine's 4x4 was returned whatever n was
        with pytest.raises(ValidationError):
            gate_matrix(DELAY(1e-3), n, gemini)

    def test_a_delay_on_the_machine_is_its_free_evolution(self, gemini):
        np.testing.assert_array_equal(gate_matrix(DELAY(1e-3), 2, gemini), program_unitary(
            PulseProgram(gemini, (DelayEvent(1e-3),))))

    def test_malformed_gates(self):
        with pytest.raises(ValidationError):
            Gate("CNOT", (1,))
        with pytest.raises(ValidationError):
            Gate("Rx", (1,), ())
        with pytest.raises(ValidationError):
            UNITARY(np.array([[1, 1], [0, 1]]), 1)
        with pytest.raises(ValidationError, match="takes 0 parameter"):
            Gate("H", (1,), (0.3,))
        with pytest.raises(ValidationError, match="unknown gate"):
            Gate("FOO", (1,))
        with pytest.raises(ValidationError, match="takes 0 parameter"):
            Gate("U", (1,), (0.3,), np.eye(2))
        with pytest.raises(ValidationError, match="only U takes a matrix"):
            Gate("H", (1,), (), np.eye(2))
        with pytest.raises(ValidationError, match="U needs one"):
            Gate("U", (1,))
        with pytest.raises(ValidationError, match=r"repeated target in \(1, 1\)"):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValidationError, match=r"repeated target in \(2, 2\)"):
            UNITARY(np.eye(4), 2, 2)

    @pytest.mark.parametrize("target", [1.0, True, "1", None, np.float64(1.0), np.bool_(True)])
    def test_a_target_that_is_no_integer_is_rejected(self, target):
        with pytest.raises(ValidationError, match="^gate X: targets must be integers$"):
            Gate("X", (target,))
        with pytest.raises(ValidationError, match="^gate CNOT: targets must be integers$"):
            Gate("CNOT", (2, target))

    @pytest.mark.parametrize("target", [2, np.int64(2), np.uint8(2)])
    def test_an_integer_target_is_written_as_one_and_reads_back(self, target):
        gate = Gate("CNOT", (1, target))
        assert gate.targets == (1, 2) and all(type(q) is int for q in gate.targets)
        circuit = Circuit(2, (gate, Gate("Rx", (target,), (0.5,))))
        doc = circuit.to_json_dict()
        assert [g["targets"] for g in doc["gates"]] == [[1, 2], [2]]
        assert Circuit.from_json_dict(json.loads(json.dumps(doc))) == circuit

    @pytest.mark.parametrize("param", [True, np.bool_(True), "0.5", None, 0.5j, np.nan, -np.inf,
                                       10**400],
                             ids=["bool", "numpy_bool", "string", "none", "complex", "nan", "inf",
                                  "int_past_the_float_range"])
    def test_a_parameter_that_is_no_finite_real_number_is_rejected(self, param):
        with pytest.raises(ValidationError, match="^gate Rx: parameters must be finite numbers$"):
            Gate("Rx", (1,), (param,))

    @pytest.mark.parametrize("param", [1, 0.5, np.float64(0.5)])
    def test_a_parameter_is_stored_as_a_float_and_reads_back(self, param):
        gates = (Gate("Rx", (1,), (param,)), Gate("Delay", (), (param,)))
        assert all(type(g.params[0]) is float and g.params == (float(param),) for g in gates)
        circuit = Circuit(1, gates)
        doc = circuit.to_json_dict()
        assert Circuit.from_json_dict(doc) == circuit
        assert Circuit.from_json_dict(json.loads(json.dumps(doc))) == circuit


def embed_by_permutation(u, targets, n):
    """u (x) I on (targets, other qubits), conjugated by the basis permutation."""
    others = [q for q in range(1, n + 1) if q not in targets]
    perm = np.zeros((2**n, 2**n))
    for b in range(2**n):
        bits = format(b, f"0{n}b")
        perm[int("".join(bits[q - 1] for q in (*targets, *others)), 2), b] = 1.0
    return perm.T @ np.kron(u, np.eye(2 ** len(others))) @ perm


ALL_TARGETS = [
    (n, targets)
    for n in (1, 2, 3)
    for k in range(1, n + 1)
    for targets in itertools.permutations(range(1, n + 1), k)
]


def test_readme_lists_every_gate():
    readme = (ROOT / "README.md").read_text()
    names = re.search(r"with gate names `([^`]*)`", readme).group(1).split()
    assert names == [*_GATES, "U"]


class TestEmbedMatrix:
    @pytest.mark.parametrize("n,targets", ALL_TARGETS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_permutation_reference(self, n, targets, data):
        d = 2 ** len(targets)
        u = data.draw(arrays(complex, (d, d), elements=st.complex_numbers(
            max_magnitude=1e6, allow_nan=False, allow_infinity=False)))
        assert np.array_equal(embed(u, targets, n), embed_by_permutation(u, targets, n))

    @pytest.mark.parametrize("targets", [(0,), (3,), (-1,), (2, 3), (0, 1)])
    def test_targets_off_the_register_are_rejected(self, targets):
        d = 2 ** len(targets)
        with pytest.raises(ValidationError, match=r"outside 1\.\.2"):
            embed(np.eye(d), targets, 2)

    def test_a_gate_off_the_register_has_no_matrix(self):
        # a Gate alone does not know the register; its matrix does
        with pytest.raises(ValidationError, match=r"targets \(3,\) outside 1\.\.2"):
            gate_matrix(Gate("X", (3,)), 2)


class TestCircuitUnitary:
    def test_bell_circuit(self):
        u = circuit_unitary(Circuit(2, (H(1), CNOT(1, 2))))
        out = u @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(out, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_swap_from_three_cnots(self):
        u = circuit_unitary(Circuit(2, (CNOT(1, 2), CNOT(2, 1), CNOT(1, 2))))
        assert np.max(np.abs(u - SWAP_M)) < 1e-12
        assert np.max(np.abs(gate_matrix(SWAP(1, 2), 2) - SWAP_M)) < 1e-12

    def test_empty_circuit(self):
        assert np.allclose(circuit_unitary(Circuit(2, ())), np.eye(4))

    @settings(max_examples=80)
    @given(data=st.data())
    def test_chain_has_the_gate_by_gate_products_bits(self, data):
        # circuit_unitary chains its gates with _kernels.unitary_chain: the bits of the
        # product it multiplied gate by gate, the empty circuit's identity included
        n = data.draw(st.integers(1, 3))
        assert circuit_unitary(Circuit(n, ())).tobytes() == np.eye(2**n, dtype=complex).tobytes()
        config = make_weak_config([30.0, -20.0], [[0, 140], [140, 0]]) if n == 2 else None
        names = [name for name, (k, _, _) in _GATES.items() if k <= n and (k or config)]
        gates = []
        for name in data.draw(st.lists(st.sampled_from(names), max_size=8)):
            k, n_params, _ = _GATES[name]
            targets = data.draw(st.permutations(range(1, n + 1)))[:k]
            params = st.floats(0, 1e-3) if name == "Delay" else st.floats(-7, 7)
            gates.append(Gate(name, tuple(targets), data.draw(st.tuples(*[params] * n_params))))
        c = Circuit(n, tuple(gates))
        expected = np.eye(2**n, dtype=complex)
        for g in c.gates:
            expected = gate_matrix(g, n, config) @ expected
        assert circuit_unitary(c, config).tobytes() == expected.tobytes()

    def test_long_circuit_holds_one_gate_matrix_at_a_time(self):
        # 1,000 gates on 6 qubits: a stack of their 64 x 64 matrices would take 64 MB
        gates = tuple(Gate("H", (i % 6 + 1,)) if i % 2 else Gate("CNOT", (i % 6 + 1, 6 - i % 6))
                      for i in range(1000))
        circuit = Circuit(6, gates)
        circuit_unitary(circuit)
        tracemalloc.start()
        try:
            circuit_unitary(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 64 * 64 * 16  # 16 matrices' worth, 1 MB

    def test_time_ordering(self):
        # X then H differs from H then X
        u = circuit_unitary(Circuit(1, (X(1), H(1))))
        expected = gate_matrix(H(1), 1) @ gate_matrix(X(1), 1)
        assert np.allclose(u, expected)

    def test_json_roundtrip(self):
        c = Circuit(2, (H(1), RX(2, 0.31), CNOT(1, 2), UNITARY(rot(SIGMA_X, 1.0), 2)))
        c2 = Circuit.from_json_dict(c.to_json_dict())
        assert np.max(np.abs(circuit_unitary(c) - circuit_unitary(c2))) < 1e-12

    def test_target_range_checked(self):
        with pytest.raises(ValidationError):
            Circuit(1, (X(2),))


class TestDecomposeSingleQubit:
    def reconstruct(self, angles):
        alpha, a, b, c = angles
        assert 0 <= b <= np.pi
        return np.exp(1j * alpha) * rot(SIGMA_Z, a) @ rot(SIGMA_X, b) @ rot(SIGMA_Z, c)

    def test_pure_x_rotation(self):
        angles = _zxz(rot(SIGMA_X, 0.8))
        assert np.max(np.abs(self.reconstruct(angles) - rot(SIGMA_X, 0.8))) < 1e-9

    def test_hadamard(self):
        h = gate_matrix(H(1), 1)
        angles = _zxz(h)
        assert np.max(np.abs(self.reconstruct(angles) - h)) < 1e-9

    def test_random_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            u = random_unitary(rng, 2)
            angles = _zxz(u)
            assert np.max(np.abs(self.reconstruct(angles) - u)) < 1e-9

    def test_non_unitary_rejected(self):
        # a matrix reaches `_zxz` only as a gate, which checks it
        with pytest.raises(ValidationError, match="^gate U must be unitary, 2x2$"):
            Gate("U", (1,), (), np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestGateFidelity:
    def test_self_and_phase(self):
        rng = np.random.default_rng(32)
        u = random_unitary(rng, 4)
        assert gate_fidelity(u, u) == pytest.approx(1.0)
        assert gate_fidelity(np.exp(1j * 0.9) * u, u) == pytest.approx(1.0)

    def test_traceless_pair(self):
        assert gate_fidelity(np.eye(2), SIGMA_X) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            gate_fidelity(np.eye(2), np.eye(4))
        with pytest.raises(ValidationError, match="^dimension mismatch"):
            gate_fidelity(np.zeros((0, 0)), np.zeros((0, 0)))  # read nan, after a 0/0 warning

    @pytest.mark.parametrize("scale", [2.0, 1e200], ids=["twice", "huge"])
    def test_a_non_unitary_argument_is_named(self, scale):
        # 2 I read 4.0 against I, and 1e200 I overflowed to inf
        with pytest.raises(ValidationError, match="^gate_fidelity: u must be unitary, 2x2$"):
            gate_fidelity(scale * np.eye(2), np.eye(2))
        with pytest.raises(ValidationError, match="^gate_fidelity: target must be unitary, 2x2$"):
            gate_fidelity(np.eye(2), scale * np.eye(2))


class TestCompile:
    GATES = [("CNOT12" if name == "CNOT" else name, g) for name, g in table_gates()]
    GATES.append(("CNOT21", CNOT(2, 1)))

    @pytest.mark.parametrize("name,gate", GATES, ids=[g[0] for g in GATES])
    def test_compiled_gate_equivalence(self, gemini, name, gate):
        circuit = Circuit(2, (gate,))
        prog = compile_circuit(circuit, gemini)
        fid = gate_fidelity(program_unitary(prog), circuit_unitary(circuit, gemini))
        assert fid >= 1 - 1e-9

    @pytest.mark.parametrize("gate", [CNOT(2, 1), CY(1, 2), SWAP(1, 2)], ids=["CNOT", "CY", "SWAP"])
    def test_rewrites_construct_no_gate(self, gemini, monkeypatch, gate):
        # the compiler expands the circuit's checked gates by value: no Gate is built or
        # checked again, at any depth of the CZ rewrites (SWAP is three CNOTs)
        circuit = Circuit(2, (H(1), gate, RZ(2, 0.3)))
        built = []
        post_init = Gate.__post_init__
        monkeypatch.setattr(Gate, "__post_init__", lambda g: built.append(g.name) or post_init(g))
        prog = compile_circuit(circuit, gemini)
        assert built == []
        fid = gate_fidelity(program_unitary(prog), circuit_unitary(circuit, gemini))
        assert fid >= 1 - 1e-9

    def test_a_circuit_compiles_on_a_machine_of_its_size(self, gemini):
        with pytest.raises(ValidationError, match="^circuit has 3 qubits, machine has 2$"):
            compile_circuit(Circuit(3, (X(3),)), gemini)

    def test_a_two_qubit_unitary_does_not_compile(self, gemini):
        circuit = Circuit(2, (UNITARY(CNOT12, 1, 2),))
        with pytest.raises(ValidationError,
                           match="^only single-qubit custom unitaries compile to pulses$"):
            compile_circuit(circuit, gemini)

    def test_cnot_program_contains_half_j_delay(self, gemini):
        prog = compile_circuit(Circuit(2, (CNOT(1, 2),)), gemini)
        delays = [ev.duration_s for ev in prog.events if isinstance(ev, DelayEvent)]
        assert delays == [pytest.approx(1.0 / (2 * 697.4))]
        # approx 720 us on this machine
        assert delays[0] == pytest.approx(720e-6, rel=5e-3)

    def test_x_as_two_x90_segments(self, gemini):
        prog = compile_circuit(Circuit(2, (X90(1), X90(1))), gemini)
        segs = [ev for ev in prog.events if isinstance(ev, RfSegment)]
        assert len(segs) == 2
        x180 = compile_circuit(Circuit(2, (X(1),)), gemini)
        assert gate_fidelity(program_unitary(prog), program_unitary(x180)) >= 1 - 1e-9

    def test_hadamard_is_one_pulse_before_the_flush(self, gemini):
        # H = Rz(pi/2) Rx(pi/2) Rz(pi/2): one pi/2 pulse, the z parts go to the frame
        prog = compile_circuit(Circuit(2, (H(1),)), gemini)
        first, *flush = prog.events
        amp = first.amplitudes_hz[0]
        assert first.amplitudes_hz[1] == 0.0
        assert first.duration_s * amp * 2 * np.pi == pytest.approx(np.pi / 2)
        assert len(flush) == 2
        for ev in flush:
            assert ev.duration_s * amp * 2 * np.pi == pytest.approx(np.pi)

    @pytest.mark.parametrize("gates", [(RZ(1, 0.7), RZ(1, -0.7)), (Z(2), Z(2)),
                                       (RZ(2, 2 * np.pi),), ()])
    def test_z_rotations_that_cancel_emit_nothing(self, gemini, gates):
        assert compile_circuit(Circuit(2, gates), gemini).events == ()

    def test_lone_z_rotation_is_a_flush(self, gemini):
        prog = compile_circuit(Circuit(2, (RZ(1, 0.7),)), gemini)
        assert len(prog.events) == 2
        assert gate_fidelity(program_unitary(prog), gate_matrix(RZ(1, 0.7), 2)) >= 1 - 1e-9

    def test_lone_cz_is_one_delay_and_the_flush(self, gemini):
        prog = compile_circuit(Circuit(2, (CZ(1, 2),)), gemini)
        delay, *flush = prog.events
        assert delay == DelayEvent(1.0 / (2 * 697.4))
        assert 1 <= len(flush) <= 4 and all(isinstance(ev, RfSegment) for ev in flush)

    @pytest.mark.parametrize("j", [215.0, -215.0])
    def test_offsets_in_the_delay_are_taken_back(self, j):
        # at 100 / -37 Hz a CNOT's delay precesses both spins by tens of degrees; a
        # negative J flips the sign of the CZ's frame shift
        cfg = make_weak_config([100.0, -37.0], [[0.0, j], [j, 0.0]])
        circuit = Circuit(2, (H(1), CNOT(1, 2), RX(2, 0.3), CZ(2, 1)))
        u = program_unitary(compile_circuit(circuit, cfg))
        assert gate_fidelity(u, circuit_unitary(circuit, cfg)) >= 1 - 1e-9

    @pytest.mark.parametrize("n", [3])
    def test_spectators_are_refocused(self, n):
        # all pairs coupled: free evolution of the spectators over a CZ's delay would stay
        rng = np.random.default_rng(n)
        j = np.triu(rng.uniform(20.0, 300.0, (n, n)), 1)
        cfg = make_weak_config(list(rng.uniform(-300.0, 300.0, n)), j + j.T)
        ghz = Circuit(n, (H(1), *(CNOT(k, k + 1) for k in range(1, n))))
        pairs = itertools.permutations(range(1, n + 1), 2)
        for circuit in [ghz, *(Circuit(n, (CNOT(a, b),)) for a, b in pairs)]:
            prog = compile_circuit(circuit, cfg)
            fid = gate_fidelity(program_unitary(prog), circuit_unitary(circuit, cfg))
            assert fid >= 1 - 1e-9

    def test_three_spin_cz_refocuses_with_two_spectator_pulses(self):
        cfg = make_weak_config([123.4, -56.7, 300.0],
                               [[0.0, 140.0, 48.0], [140.0, 0.0, 190.0], [48.0, 190.0, 0.0]])
        events = compile_circuit(Circuit(3, (CZ(1, 2),)), cfg).events
        assert [type(ev) for ev in events[:4]] == [DelayEvent, RfSegment] * 2
        assert events[0].duration_s == events[2].duration_s == 1.0 / (4 * 140.0)
        for pulse in events[1], events[3]:
            assert pulse.amplitudes_hz[:2] == (0.0, 0.0)
            assert pulse.duration_s * pulse.amplitudes_hz[2] * 2 * np.pi == pytest.approx(np.pi)

    def test_cnot_truth_table_states(self, gemini):
        for direction, table in (
            ((1, 2), {"00": "00", "01": "01", "10": "11", "11": "10"}),
            ((2, 1), {"00": "00", "01": "11", "10": "10", "11": "01"}),
        ):
            prog = compile_circuit(Circuit(2, (CNOT(*direction),)), gemini)
            u = program_unitary(prog)
            for bits, out_bits in table.items():
                vec = np.zeros(4, dtype=complex)
                vec[int(bits, 2)] = 1.0
                out = u @ vec
                assert abs(out[int(out_bits, 2)]) ** 2 >= 1 - 1e-9

    def test_zero_j_pair_rejected(self):
        cfg = make_weak_config([0.0, 10.0], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(UncoupledPairError):
            compile_circuit(Circuit(2, (CNOT(1, 2),)), cfg)

    def test_isotropic_machine_rejected(self, triangulum):
        with pytest.raises(ValidationError):
            compile_circuit(Circuit(3, (X(1),)), triangulum)

    def test_a_shared_channel_is_rejected(self):
        # a pulse on one of two spins with one label would drive both
        cfg = make_weak_config([0.0, 300.0], [[0.0, 50.0], [50.0, 0.0]], labels=["1H", "1H"])
        with pytest.raises(ValidationError, match="^pulse compilation needs per-qubit channels"):
            compile_circuit(Circuit(2, (X(1),)), cfg)

    def test_z_rotation_cnot_decomposition(self, gemini):
        # z-rotation route to CNOT: Rz1(90) Rz2(-90) Rx2(90) U_J(1/2J) Ry2(90),
        # equal to CNOT up to a global phase of pi/4
        circuit = Circuit(
            2,
            (
                RY(2, np.pi / 2),
                DELAY(1.0 / (2 * 697.4)),
                RX(2, np.pi / 2),
                RZ(2, -np.pi / 2),
                RZ(1, np.pi / 2),
            ),
        )
        u = circuit_unitary(circuit, gemini)
        assert gate_fidelity(u, CNOT12) == pytest.approx(1.0, abs=1e-12)
        phase = u[0, 0] / CNOT12[0, 0]
        assert np.angle(phase) == pytest.approx(-np.pi / 4, abs=1e-9)


@st.composite
def weak_machines(draw):
    """Weak heteronuclear machines of 2 or 3 spins: offsets within +-2 kHz, every J
    from 20 to 300 Hz."""
    n = draw(st.sampled_from([2, 3]))
    offsets = draw(st.lists(st.floats(-2e3, 2e3), min_size=n, max_size=n))
    j = np.zeros((n, n))
    for a, b in itertools.combinations(range(n), 2):
        j[a, b] = j[b, a] = draw(st.floats(20.0, 300.0))
    return make_weak_config(offsets, j, labels=["1H", "13C", "15N"][:n])


@st.composite
def random_circuits(draw, n):
    """Up to six gates over every gate name, U and Delay included."""
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from([*_GATES, "U"]))
        if name == "U":
            seed = draw(st.integers(0, 2**32 - 1))
            gates.append(UNITARY(random_unitary(np.random.default_rng(seed), 2),
                                 draw(st.integers(1, n))))
            continue
        n_targets, n_params, _ = _GATES[name]
        targets = draw(st.permutations(range(1, n + 1)))[:n_targets]
        if name == "Delay":
            params = (draw(st.floats(0.0, 2e-3)),)
        else:
            params = tuple(draw(st.floats(-2 * np.pi, 2 * np.pi)) for _ in range(n_params))
        gates.append(Gate(name, tuple(targets), params))
    return Circuit(n, tuple(gates))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_compiled_program_matches_circuit(data):
    cfg = data.draw(weak_machines())
    circuit = data.draw(random_circuits(cfg.n))
    u = program_unitary(compile_circuit(circuit, cfg))
    assert 1 - gate_fidelity(u, circuit_unitary(circuit, cfg)) <= 1e-8
