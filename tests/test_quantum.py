import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_density_matrix, random_ket, random_unitary
from nmrqc.errors import ValidationError
from nmrqc.quantum import (
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TRACE_TOL,
    DensityMatrix,
    Ket,
    all_pauli_strings,
    embed,
    partial_trace,
    pauli_expand,
    pauli_reconstruct,
    pauli_string_matrix,
    state_fidelity,
    tensor,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
PHI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)  # (|01> - |10>)/sqrt2


def mixed(n):
    """The maximally mixed state of n qubits."""
    return DensityMatrix(np.eye(2**n) / 2**n)


class TestTensor:
    def test_basis_composition(self):
        assert np.allclose(tensor(KET0, KET1), [0, 1, 0, 0])

    def test_identity_product(self):
        assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_pair(self):
        # 4x4 Kronecker product written out by hand
        expected = np.diag([1.0, -1.0, -1.0, 1.0])
        assert np.allclose(tensor(SIGMA_Z, SIGMA_Z), expected)

    def test_mixed_operands_rejected(self):
        with pytest.raises(ValidationError):
            tensor(KET0, np.eye(2))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho1 = random_density_matrix(rng, 1)
            rho2 = random_density_matrix(rng, 1)
            joint = DensityMatrix(tensor(rho1.matrix, rho2.matrix))
            assert np.max(np.abs(partial_trace(joint, {1}).matrix - rho1.matrix)) < 1e-12
            assert np.max(np.abs(partial_trace(joint, {2}).matrix - rho2.matrix)) < 1e-12

    def test_bell_reduces_to_mixed(self):
        rho = DensityMatrix.from_ket(PHI_MINUS)
        reduced = partial_trace(rho, {1})
        assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-12

    def test_first_qubit_entry_pattern(self):
        # reduced rho = [[r11+r22, r13+r24], [r31+r42, r33+r44]] in 1-based indices
        rng = np.random.default_rng(5)
        rho = random_density_matrix(rng, 2)
        m = rho.matrix
        expected = np.array(
            [[m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]], [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]]]
        )
        assert np.max(np.abs(partial_trace(rho, {1}).matrix - expected)) < 1e-12

    def test_three_qubit_keep_middle(self):
        rng = np.random.default_rng(6)
        parts = [random_density_matrix(rng, 1) for _ in range(3)]
        joint = DensityMatrix(tensor(tensor(parts[0].matrix, parts[1].matrix), parts[2].matrix))
        assert np.max(np.abs(partial_trace(joint, {2}).matrix - parts[1].matrix)) < 1e-12

    def test_bad_keep_sets(self):
        rho = mixed(2)
        with pytest.raises(ValidationError):
            partial_trace(rho, set())
        with pytest.raises(ValidationError):
            partial_trace(rho, {3})


class TestPauliExpansion:
    def test_ground_state_coefficients(self):
        co = pauli_expand(DensityMatrix.from_ket(KET0))
        assert co["Z"] == pytest.approx(1.0, abs=1e-12)
        assert co["X"] == pytest.approx(0.0, abs=1e-12)
        assert co["Y"] == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_two_qubits(self):
        co = pauli_expand(mixed(2))
        for label, value in co.items():
            expected = 1.0 if label == "II" else 0.0
            assert value == pytest.approx(expected, abs=1e-12)

    def test_bell_correlations(self):
        co = pauli_expand(DensityMatrix.from_ket(PHI_MINUS))
        assert co["XX"] == pytest.approx(-1.0, abs=1e-12)
        assert co["YY"] == pytest.approx(-1.0, abs=1e-12)
        assert co["ZZ"] == pytest.approx(-1.0, abs=1e-12)

    def test_reconstruct_named_states(self):
        rho_z = pauli_reconstruct({"I": 1.0, "Z": 1.0})
        assert np.max(np.abs(rho_z.matrix - np.outer(KET0, KET0))) < 1e-12
        rho_x = pauli_reconstruct({"I": 1.0, "X": 1.0})
        assert np.max(np.abs(rho_x.matrix - np.outer(KET_PLUS, KET_PLUS))) < 1e-12

    def test_roundtrip_both_ways(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = random_density_matrix(rng, 2)
            back = pauli_reconstruct(pauli_expand(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12
            coeffs = pauli_expand(rho)
            again = pauli_expand(pauli_reconstruct(coeffs))
            assert max(abs(coeffs[k] - again[k]) for k in coeffs) < 1e-12

    def test_bad_identity_coefficient(self):
        with pytest.raises(ValidationError):
            pauli_reconstruct({"II": 0.5, "ZZ": 0.2})

    def test_strings_built_once_and_read_only(self):
        pauli_string_matrix.cache_clear()
        coeffs = {label: 0.01 for label in all_pauli_strings(3)[1:]}
        for _ in range(3):
            pauli_reconstruct(coeffs)
        assert pauli_string_matrix.cache_info().misses == 63  # strings built
        with pytest.raises(ValueError):
            pauli_string_matrix("XZY")[0, 0] = 0.0

    def test_string_count(self):
        assert len(all_pauli_strings(3)) == 64

    def test_strings_are_the_kronecker_chain_bit_for_bit(self):
        labels = [label for n in (1, 2, 3) for label in all_pauli_strings(n)]
        assert len(labels) == 84
        for label in labels:
            chain = PAULI[label[0]]
            for c in label[1:]:
                chain = np.kron(chain, PAULI[c])
            assert pauli_string_matrix(label).tobytes() == chain.tobytes()


class TestEmbed:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_single_spin_matches_the_kronecker_chain(self, n):
        # equal in value only: placement writes +0.0 where the Kronecker chain writes
        # -0.0 beside a negative entry, so the zero signs differ by design
        for p in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            for k in range(1, n + 1):
                chain = functools.reduce(np.kron, [p if q == k else np.eye(2) for q in
                                                   range(1, n + 1)])
                assert np.array_equal(embed(p, (k,), n), chain)

    def test_size_must_match_the_targets(self):
        with pytest.raises(ValidationError, match="does not match target count"):
            embed(np.eye(4), (1,), 2)


class TestStateFidelity:
    def test_identical_pure(self):
        assert state_fidelity(KET0, KET0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure(self):
        assert state_fidelity(KET0, KET1) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        assert state_fidelity(KET_PLUS, mixed(1)) == pytest.approx(0.5)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = random_density_matrix(rng, 2)
            b = random_density_matrix(rng, 2)
            fab = state_fidelity(a, b)
            fba = state_fidelity(b, a)
            assert abs(fab - fba) < 1e-10
            assert 0.0 <= fab <= 1.0
            assert state_fidelity(a, a) == pytest.approx(1.0, abs=1e-10)

    def test_general_reduces_to_pure_mixed(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            psi = random_ket(rng, 2)
            rho = random_density_matrix(rng, 2)
            direct = state_fidelity(psi, rho)
            general = state_fidelity(DensityMatrix.from_ket(psi), rho)
            assert abs(direct - general) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            state_fidelity(KET0, np.array([1, 0, 0, 0], dtype=complex))


class TestDensityMatrixType:
    def test_invariant_violations_rejected(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))  # not a number

    def test_purity_criterion(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            pure = DensityMatrix.from_ket(random_ket(rng, 2))
            assert pure.purity() == pytest.approx(1.0, abs=1e-9)
            assert pure.purity() <= 1.0 + 1e-10
        assert mixed(2).purity() == pytest.approx(0.25, abs=1e-15)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(13)
        rho = random_density_matrix(rng, 2)
        again = DensityMatrix.from_json_dict(rho.to_json_dict())
        assert np.max(np.abs(again.matrix - rho.matrix)) < 1e-15

    def test_ket_normalization_enforced(self):
        with pytest.raises(ValidationError):
            Ket([1.0, 1.0])
        assert Ket.from_bits("01").n == 2

    @pytest.mark.parametrize("u", [np.diag([1.0, 2.0]), 2 * np.eye(2), np.zeros((2, 2)),
                                   np.eye(4), np.eye(2)[0], [[1.0, 0.0], [0.0, np.nan]]],
                             ids=["scaling", "twice_identity", "zero", "wrong_size", "vector",
                                  "nan"])
    def test_evolved_takes_a_unitary_of_the_state_size(self, u):
        # diag(1, 2) maps |0><0| to itself: the state alone would not show it is no unitary
        with pytest.raises(ValidationError, match="^u must be unitary"):
            DensityMatrix.basis(1, 0).evolved(u)

    def test_evolved_returns_a_checked_state(self):
        rho = DensityMatrix.basis(1, 0).evolved([[0, 1], [1, 0]])
        assert np.array_equal(rho.matrix, np.diag([0, 1])) and not rho.matrix.flags.writeable
        # a state wrapped unchecked, as the package wraps the rows of checked stacks only
        bad = DensityMatrix._checked(np.diag([1.0 + 1e-6, -1e-6]).astype(complex))
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            bad.evolved(np.eye(2))

    def test_a_checked_row_is_held_not_copied(self):
        stack = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        rho = DensityMatrix._checked(stack[1])
        assert rho.n == 1 and np.shares_memory(rho.matrix, stack)
        assert not rho.matrix.flags.writeable

    def test_empty_states_rejected(self):
        with pytest.raises(ValidationError, match="dimension 0"):
            Ket([])
        with pytest.raises(ValidationError, match="dimension 0"):
            DensityMatrix(np.zeros((0, 0)))


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                              complex(np.inf, 1.0), complex(1.0, -np.inf)])


class TestNonFiniteStates:
    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), bad=NON_FINITE, data=st.data())
    def test_any_non_finite_entry_is_rejected(self, n, seed, bad, data):
        rng = np.random.default_rng(seed)
        good = random_ket(rng, n)
        ket = random_ket(rng, n)
        rho = random_density_matrix(rng, n).matrix.copy()
        index = st.integers(0, 2**n - 1)
        ket[data.draw(index)] = bad
        rho[data.draw(index), data.draw(index)] = bad
        with pytest.raises(ValidationError):
            Ket(ket)
        with pytest.raises(ValidationError):
            DensityMatrix(rho)
        for state in (ket, rho):
            with pytest.raises(ValidationError, match="finite"):
                state_fidelity(state, good)
            with pytest.raises(ValidationError, match="finite"):
                state_fidelity(good, state)

    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           kinds=st.tuples(*[st.sampled_from(["ket", "array", "rho", "matrix"])] * 2))
    def test_finite_states_give_a_fidelity_in_the_unit_interval(self, n, seed, kinds):
        rng = np.random.default_rng(seed)
        states = []
        for kind in kinds:
            psi, rho = random_ket(rng, n), random_density_matrix(rng, n)
            states.append({"ket": Ket(psi), "array": psi, "rho": rho, "matrix": rho.matrix}[kind])
        assert 0.0 <= state_fidelity(*states) <= 1.0


class TestRawArrayStates:
    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.0, 1e300).filter(lambda x: abs(x - 1.0) > 1e-6))
    def test_a_vector_off_unit_norm_is_rejected(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        good = random_ket(rng, n)
        with pytest.raises(ValidationError, match="norm"):
            state_fidelity(scale * random_ket(rng, n), good)

    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.0, 1e300).filter(lambda x: abs(x - 1.0) > 1e-6))
    def test_a_matrix_off_unit_trace_is_rejected(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, n).matrix
        with pytest.raises(ValidationError):  # off trace 1, or off Hermitian by rounding
            state_fidelity(random_ket(rng, n), scale * rho)

    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(-300, 300).map(lambda e: 10.0**e)
           .filter(lambda x: abs(x - 1.0) > TRACE_TOL))
    def test_a_scaled_state_is_rejected_for_its_trace(self, n, seed, scale):
        # a large scale also lifts a random state's rounding over the absolute Hermiticity
        # tolerance: the trace is the fault to name
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, n).matrix
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(scale * rho)
        with pytest.raises(ValidationError, match="trace"):
            state_fidelity(random_ket(rng, n), scale * rho)

    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           kink=st.floats(1e-3, 1e3), data=st.data())
    def test_a_non_hermitian_matrix_is_rejected(self, n, seed, kink, data):
        rng = np.random.default_rng(seed)
        m = random_density_matrix(rng, n).matrix.copy()
        row = data.draw(st.integers(0, 2**n - 1))
        col = data.draw(st.integers(0, 2**n - 1).filter(lambda c: c != row))
        m[row, col] += kink
        with pytest.raises(ValidationError, match="Hermitian"):
            state_fidelity(m, random_ket(rng, n))

    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), depth=st.floats(1e-3, 1.0))
    def test_a_matrix_that_is_not_positive_is_rejected(self, n, seed, depth):
        # Hermitian with unit trace, and one eigenvalue -depth
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, 2**n)
        eigenvalues = np.zeros(2**n)
        eigenvalues[:2] = 1 + depth, -depth
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            state_fidelity(random_ket(rng, n), (u * eigenvalues) @ u.conj().T)

    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_valid_raw_states_give_a_fidelity_in_the_unit_interval(self, n, seed):
        rng = np.random.default_rng(seed)
        ket, rho = random_ket(rng, n), random_density_matrix(rng, n).matrix
        for a, b in ((ket, rho), (rho, ket), (ket, random_ket(rng, n)), (rho, rho)):
            assert 0.0 <= state_fidelity(a, b) <= 1.0

    def test_the_caller_array_stays_writable(self):
        ket = KET_PLUS.copy()
        state_fidelity(ket, KET0)
        ket[0] = 1.0  # checked on a copy: a Ket would freeze the array it holds
