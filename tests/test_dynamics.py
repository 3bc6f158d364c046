import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import make_weak_config, random_density_matrix
from nmrqc import _kernels, spinsys
from nmrqc.algorithms import _counting_circuit
from nmrqc.control import compile_circuit
from nmrqc.dynamics import (
    Crusher,
    Delay,
    PulseProgram,
    RfSegment,
    _relaxation_factors,
    _relaxation_map,
    evolve_program,
    evolve_programs,
    program_unitary,
)
from nmrqc.errors import ValidationError
from nmrqc.quantum import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    pauli_expand,
    pauli_reconstruct,
    tensor,
)
from nmrqc.measurement import synthesize_fid
from nmrqc.spinsys import MAX_SPINS, internal_hamiltonian, preset, rf_hamiltonian, thermal_state

# A weak 3-spin machine on three channels (J 140/48/190 Hz).
WEAK3 = make_weak_config(
    [0.0, 0.0, 0.0], [[0, 140, 48], [140, 0, 190], [48, 190, 0]], t1=3.0, t2=0.3,
    labels=["1H", "13C", "15N"],
)


def single_spin(offset=0.0, t1=4.0, t2=0.2, eps=1e-5):
    return make_weak_config([offset], [[0.0]], t1=t1, t2=t2, polarization=eps)


def relaxed(rho, dt, cfg):
    """The relaxation map alone: a Delay(dt) with relaxation on cfg with its offsets and J
    set to 0, where the delay's propagator is exactly the identity."""
    still = replace(cfg, nuclei=tuple(replace(nuc, offset_hz=0.0) for nuc in cfg.nuclei),
                    j_hz=np.zeros_like(cfg.j_hz))
    return evolve_program(rho, PulseProgram(still, (Delay(dt),)), relaxation=True)


def crushed(rho, cfg):
    return evolve_program(rho, PulseProgram(cfg, (Crusher(),)))


def propagator(h, dt):
    """The kernel's exp(-i h dt) of one generator."""
    return _kernels.segment_propagators(np.asarray(h, dtype=complex)[np.newaxis], dt)[0]


class TestSegmentPropagator:
    """One-matrix calls of the propagator kernel."""

    def test_zero_hamiltonian(self):
        u = propagator(np.zeros((4, 4)), 1.7)
        assert np.max(np.abs(u - np.eye(4))) < 1e-14

    def test_x180_closed_form(self):
        # 2 pi u I_x for a duration with 2 pi u t = pi gives exp(-i pi sigma_x / 2) = -i sigma_x
        u_hz = 12.5e3
        h = 2 * np.pi * u_hz * SIGMA_X / 2
        u = propagator(h, 1.0 / (2 * u_hz))
        assert np.max(np.abs(u - (-1j) * SIGMA_X)) < 1e-12

    def test_j_evolution_phases(self):
        j = 697.4
        h = 2 * np.pi * j * tensor(SIGMA_Z / 2, SIGMA_Z / 2)
        u = propagator(h, 1.0 / (2 * j))
        expected = np.diag(np.exp(-1j * np.pi / 4 * np.array([1, -1, -1, 1])))
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_composition(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        u_total = propagator(h, 0.7)
        u_split = propagator(h, 0.3) @ propagator(h, 0.4)
        assert np.max(np.abs(u_total - u_split)) < 1e-9

    def test_unitarity(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            u = propagator(a + a.conj().T, rng.uniform(0, 2))
            assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-10

    @pytest.mark.parametrize("h, dt", [
        (np.diag([1e10, -1e10]), 1e300),
        (np.diag([np.inf, -np.inf]), 1.0),
        (np.diag([1.0, -1.0]), np.nan),
    ], ids=["phase_overflow", "inf_generator", "nan_duration"])
    def test_non_finite_phase_rejected(self, h, dt):
        # the check of a program's events: one ValidationError, no RuntimeWarning
        with pytest.raises(ValidationError, match="times event duration is not finite"):
            propagator(h, dt)

    def test_off_resonance_nutation_axis(self):
        # offset D and drive u tilt the axis by atan(u/D) from z at rate sqrt(D^2+u^2)
        d_hz, u_hz, t = 300.0, 400.0, 1.3e-3
        h = 2 * np.pi * (d_hz * SIGMA_Z / 2 + u_hz * SIGMA_X / 2)
        u = propagator(h, t)
        eff = np.hypot(d_hz, u_hz)
        axis = np.array([u_hz, 0.0, d_hz]) / eff
        angle = 2 * np.pi * eff * t
        n_dot_sigma = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
        closed_form = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * n_dot_sigma
        assert np.max(np.abs(u - closed_form)) < 1e-9
        assert np.arctan2(u_hz, d_hz) == pytest.approx(np.arctan(u_hz / d_hz))


class TestSegmentPropagators:
    @pytest.mark.parametrize("n", [1, 100])
    @pytest.mark.parametrize("per_segment_dt", [False, True])
    def test_batched_stack_matches_expm(self, n, per_segment_dt):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(n, 8, 8)) + 1j * rng.normal(size=(n, 8, 8))
        hs = 1e3 * (a + a.conj().transpose(0, 2, 1))
        dt = rng.uniform(0.0, 1e-3, size=n) if per_segment_dt else 7e-4
        props = _kernels.segment_propagators(hs, dt)
        dts = np.broadcast_to(dt, (n,))
        for h, t, u in zip(hs, dts, props):
            assert np.max(np.abs(u - expm(-1j * h * t))) < 1e-12


class TestEvolveProgram:
    def test_rabi_quarter_turn(self):
        cfg = single_spin()
        u_hz = 10e3
        dur = 1.0 / (8 * u_hz)  # 2 pi u t = pi/4 * 2 -> 90 degrees
        prog = PulseProgram(cfg, (RfSegment((u_hz,), (0.0,), dur * 2),))
        rho = evolve_program(DensityMatrix.basis(1, 0), prog)
        target = np.array([1.0, -1.0j]) / np.sqrt(2)
        assert np.max(np.abs(rho.matrix - np.outer(target, target.conj()))) < 1e-9

    def test_free_precession_phase(self):
        nu = 85.0
        cfg = single_spin(offset=nu)
        t = 3.3e-3
        plus = DensityMatrix.from_ket(np.array([1, 1], dtype=complex) / np.sqrt(2))
        rho = evolve_program(plus, PulseProgram(cfg, (Delay(t),)))
        x, y = (rho.expectation(p).real for p in (SIGMA_X, SIGMA_Y))
        angle = 2 * np.pi * nu * t
        assert np.hypot(x, y) == pytest.approx(1.0, abs=1e-9)
        assert np.arctan2(y, x) % (2 * np.pi) == pytest.approx(
            angle % (2 * np.pi), abs=1e-9
        )

    def test_empty_program(self, gemini):
        rho = thermal_state(gemini)
        out = evolve_program(rho, PulseProgram(gemini, ()))
        assert np.max(np.abs(out.matrix - rho.matrix)) == 0.0

    def test_spectrum_preserved_without_relaxation(self, gemini):
        rng = np.random.default_rng(23)
        rho = random_density_matrix(rng, 2)
        prog = PulseProgram(
            gemini,
            (
                RfSegment((5e3, 0.0), (0.0, 0.0), 37e-6),
                Delay(410e-6),
                RfSegment((0.0, 5e3), (0.0, np.pi / 2), 11e-6),
            ),
        )
        out = evolve_program(rho, prog)
        before = np.sort(np.linalg.eigvalsh(rho.matrix))
        after = np.sort(np.linalg.eigvalsh(out.matrix))
        assert np.max(np.abs(before - after)) < 1e-9

    def test_dimension_mismatch(self, gemini):
        with pytest.raises(ValidationError):
            evolve_program(DensityMatrix.basis(1, 0), PulseProgram(gemini, ()))

    def test_program_unitary_matches_event_loop(self, gemini, triangulum):
        rng = np.random.default_rng(24)
        for cfg in (gemini, triangulum):
            n_ch = len(cfg.channels)
            events = []
            for _ in range(16):
                if rng.random() < 0.25:
                    events.append(Delay(float(rng.uniform(0, 1e-3))))
                else:
                    events.append(RfSegment(tuple(rng.uniform(0, 2e4, n_ch)),
                                            tuple(rng.uniform(-np.pi, np.pi, n_ch)),
                                            float(rng.uniform(0, 1e-4))))
            h0 = internal_hamiltonian(cfg)
            expected = np.eye(cfg.dim, dtype=complex)
            for ev in events:
                h = h0
                if isinstance(ev, RfSegment):
                    h = h0 + rf_hamiltonian(cfg, ev.amplitudes_hz, ev.phases_rad)
                expected = expm(-1j * h * ev.duration_s) @ expected
            u = program_unitary(PulseProgram(cfg, tuple(events)))
            assert np.max(np.abs(u - expected)) < 1e-12

    @pytest.mark.parametrize("relaxation", [False, True])
    @pytest.mark.parametrize("machine", ["gemini", "triangulum", "weak3"])
    def test_evolve_program_matches_event_loop(self, machine, relaxation, gemini, triangulum):
        cfg = {"gemini": gemini, "triangulum": triangulum, "weak3": WEAK3}[machine]
        rng = np.random.default_rng(31)
        n_ch = len(cfg.channels)
        events = [Crusher()]
        for _ in range(14):
            r = rng.random()
            if r < 0.15:
                events.append(Crusher())
            elif r < 0.4:
                events.append(Delay(float(rng.uniform(0, 1e-3))))
            else:
                events.append(RfSegment(tuple(rng.uniform(0, 2e4, n_ch)),
                                        tuple(rng.uniform(-np.pi, np.pi, n_ch)),
                                        float(rng.uniform(0, 1e-4))))
        rho0 = random_density_matrix(rng, cfg.n)
        h0 = internal_hamiltonian(cfg)
        expected = rho0.matrix
        for ev in events:
            if isinstance(ev, Crusher):
                expected = np.diag(np.diag(expected))
                continue
            h = h0
            if isinstance(ev, RfSegment):
                h = h0 + rf_hamiltonian(cfg, ev.amplitudes_hz, ev.phases_rad)
            u = expm(-1j * h * ev.duration_s)
            expected = u @ expected @ u.conj().T
            if relaxation:
                expected = kraus_relaxation(expected, ev.duration_s, cfg)
        rho = evolve_program(rho0, PulseProgram(cfg, tuple(events)), relaxation)
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-12

    def test_evolve_program_propagates_in_one_call(self, gemini, monkeypatch):
        stacks = []
        batched = _kernels.segment_propagators

        def counted(h_stack, dt):
            stacks.append(len(h_stack))
            return batched(h_stack, dt)

        monkeypatch.setattr(_kernels, "segment_propagators", counted)
        events = (RfSegment((5e3, 0.0), (0.0, 0.0), 37e-6), Delay(410e-6), Crusher(),
                  RfSegment((0.0, 5e3), (0.0, np.pi / 2), 11e-6), Delay(2e-5))
        evolve_program(thermal_state(gemini), PulseProgram(gemini, events), relaxation=True)
        assert stacks == [4]

    def test_machine_operators_built_once_per_config(self, monkeypatch):
        cfg = make_weak_config([30.0, -20.0], [[0.0, 140.0], [140.0, 0.0]], labels=["a", "b"])
        builds = []
        build = spinsys._build_operators

        def counted(config):
            builds.append(config)
            return build(config)

        monkeypatch.setattr(spinsys, "_build_operators", counted)
        program = PulseProgram(cfg, (RfSegment((5e3, 0.0), (0.0, 0.0), 5e-5), Delay(1e-4)))
        for _ in range(3):
            internal_hamiltonian(cfg)
            rho = evolve_program(thermal_state(cfg), program, relaxation=True)
            synthesize_fid(rho, cfg, "a", 0.05, 1e-4)
        assert builds == [cfg]

    def test_program_unitary_rejects_crushers(self, gemini):
        with pytest.raises(ValidationError):
            program_unitary(PulseProgram(gemini, (Crusher(),)))

    def test_empty_program_is_identity(self, gemini):
        assert np.array_equal(program_unitary(PulseProgram(gemini, ())), np.eye(4))

    @pytest.mark.parametrize("fields", [
        ((np.nan, 0.0), (0.0, 0.0), 1e-5),
        ((1e3, 0.0), (0.0, np.inf), 1e-5),
        ((1e3, 0.0), (0.0, 0.0), -np.inf),
        ((1e3, -np.inf), (0.0, 0.0), 1e-5),
        ((1e3, 0.0), (0.0, 0.0), np.nan),
    ], ids=["nan_amplitude", "inf_phase", "minus_inf_duration", "minus_inf_amplitude",
            "nan_duration"])
    def test_non_finite_pulse_rejected(self, fields):
        with pytest.raises(ValidationError, match="must be finite"):
            RfSegment(*fields)

    def test_pulse_for_other_channel_count_rejected(self, gemini):
        events = (RfSegment((1e3, 0.0), (0.0, 0.0), 1e-5), RfSegment((1e3,), (0.0,), 1e-5))
        with pytest.raises(ValidationError, match="one amplitude and phase per channel"):
            program_unitary(PulseProgram(gemini, events))


class TestCrusher:
    def test_full_dephasing_of_plus(self):
        plus = DensityMatrix.from_ket(np.array([1, 1], dtype=complex) / np.sqrt(2))
        assert np.max(np.abs(crushed(plus, single_spin()).matrix - np.eye(2) / 2)) < 1e-15

    def test_diagonal_states_unchanged_and_idempotent(self, gemini):
        rng = np.random.default_rng(24)
        rho = random_density_matrix(rng, 2)
        once = crushed(rho, gemini)
        twice = crushed(once, gemini)
        assert np.max(np.abs(once.matrix - np.diag(np.diag(rho.matrix)))) == 0.0
        assert np.max(np.abs(twice.matrix - once.matrix)) == 0.0
        assert np.trace(once.matrix) == pytest.approx(1.0)

    def test_deviation_example(self, gemini):
        # sz1 + sz2/2 - sqrt(3)/2 sy2 loses only its transverse part
        dev = (
            tensor(SIGMA_Z, np.eye(2))
            + 0.5 * tensor(np.eye(2), SIGMA_Z)
            - (np.sqrt(3) / 2) * tensor(np.eye(2), SIGMA_Y)
        )
        rho = DensityMatrix(np.eye(4) / 4 + dev / 40)
        out = crushed(rho, gemini)
        expected_dev = tensor(SIGMA_Z, np.eye(2)) + 0.5 * tensor(np.eye(2), SIGMA_Z)
        assert np.max(np.abs(out.matrix - (np.eye(4) / 4 + expected_dev / 40))) < 1e-12


class TestRelaxation:
    def test_transverse_decay_rate(self):
        cfg = single_spin(eps=0.0, t2=0.37)
        rho = pauli_reconstruct({"I": 1.0, "X": 1.0})
        out = relaxed(rho, 0.37, cfg)
        assert pauli_expand(out)["X"] == pytest.approx(np.exp(-1.0), rel=1e-10)

    def test_inversion_recovery_curve(self):
        eps = 1e-3
        cfg = single_spin(eps=eps, t1=2.0)
        inverted = pauli_reconstruct({"I": 1.0, "Z": -eps})
        for dt in (0.1, 1.0, 5.0):
            out = relaxed(inverted, dt, cfg)
            expected = eps * (1 - 2 * np.exp(-dt / 2.0))
            assert pauli_expand(out)["Z"] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("dt", [-1e-3, float("nan")])
    def test_bad_duration_rejected(self, gemini, dt):
        with pytest.raises(ValidationError, match="delay duration must be finite and >= 0"):
            relaxed(thermal_state(gemini), dt, gemini)

    def test_identity_at_zero_duration(self, gemini):
        rng = np.random.default_rng(25)
        rho = random_density_matrix(rng, 2)
        out = relaxed(rho, 0.0, gemini)
        assert np.max(np.abs(out.matrix - rho.matrix)) == 0.0

    def test_trace_and_hermiticity_preserved(self, gemini):
        rng = np.random.default_rng(26)
        for _ in range(20):
            rho = random_density_matrix(rng, 2)
            out = relaxed(rho, 0.05, gemini)
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-14)
            assert abs(np.trace(out.matrix).imag) < 1e-14
            assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12

    def test_fixed_point_is_thermal(self, gemini):
        rng = np.random.default_rng(27)
        rho = random_density_matrix(rng, 2)
        out = relaxed(rho, 50 * 6.0, gemini)  # 50x the longest T1
        assert np.max(np.abs(out.matrix - thermal_state(gemini).matrix)) < 1e-9

    def test_positivity_on_random_states(self, gemini):
        rng = np.random.default_rng(28)
        for _ in range(200):
            rho = random_density_matrix(rng, 2)
            out = relaxed(rho, float(rng.uniform(0, 1.0)), gemini)
            assert np.min(np.linalg.eigvalsh(out.matrix)) > -1e-9

    def test_multi_spin_z_products_damp_by_product(self, gemini):
        rho = pauli_reconstruct({"II": 1.0, "ZZ": 0.5})
        dt = 0.11
        out = relaxed(rho, dt, gemini)
        expected = 0.5 * np.exp(-dt / 4.0) * np.exp(-dt / 6.0)
        zz = pauli_expand(out)["ZZ"]
        # relaxing toward the thermal populations adds only eps^2 (1 - e1)(1 - e1') ~ 5e-14
        assert zz == pytest.approx(expected, abs=1e-12)


def kraus_relaxation(m, dt, config):
    """The relaxation map on a matrix m from its definition: on each spin in turn, the
    Kraus operators of generalized amplitude damping (Nielsen & Chuang 8.3.5) and then
    of phase damping, embedded with np.kron."""
    n = config.n
    for k, nuc in enumerate(config.nuclei):
        p = (1.0 + nuc.polarization) / 2  # fixed-point population of |0>
        e1 = np.exp(-dt / nuc.t1_s)
        # coherence decay beyond the sqrt(e1) of amplitude damping; <= 1 as T2 <= 2 T1
        lam = np.exp(-dt * max(0.0, 1.0 / nuc.t2_s - 0.5 / nuc.t1_s))
        gad = [np.sqrt(p) * np.array([[1.0, 0.0], [0.0, np.sqrt(e1)]]),
               np.sqrt(p) * np.array([[0.0, np.sqrt(1.0 - e1)], [0.0, 0.0]]),
               np.sqrt(1.0 - p) * np.array([[np.sqrt(e1), 0.0], [0.0, 1.0]]),
               np.sqrt(1.0 - p) * np.array([[0.0, 0.0], [np.sqrt(1.0 - e1), 0.0]])]
        dephasing = [np.sqrt((1.0 + lam) / 2) * np.eye(2), np.sqrt((1.0 - lam) / 2) * SIGMA_Z]
        for kraus in (gad, dephasing):
            ops = [np.kron(np.kron(np.eye(2**k), a), np.eye(2 ** (n - 1 - k))) for a in kraus]
            m = sum(e @ m @ e.conj().T for e in ops)
    return m


@st.composite
def relaxing_machines(draw):
    """Weak machines of 1 to MAX_SPINS spins, T1 from 1 ms to 100 s, T2 up to 2 T1, any
    polarization in [-1/n, 1/n], so that the n of them sum to at most 1 in magnitude."""
    n = draw(st.integers(1, MAX_SPINS))
    cfg = make_weak_config([0.0] * n, np.zeros((n, n)))
    nuclei = []
    for nuc in cfg.nuclei:
        t1 = 10.0 ** draw(st.floats(-3.0, 2.0))
        nuclei.append(replace(nuc, t1_s=t1, t2_s=t1 * draw(st.floats(0.01, 2.0)),
                              polarization=draw(st.floats(-1.0, 1.0)) / n))
    return replace(cfg, nuclei=tuple(nuclei))


DURATIONS = st.floats(-6.0, 1.0).map(lambda e: 10.0**e)


class TestBatchedRelaxation:
    @given(cfg=relaxing_machines(), dt=DURATIONS, seed=st.integers(0, 2**32 - 1))
    def test_matches_kraus_reference(self, cfg, dt, seed):
        rho = random_density_matrix(np.random.default_rng(seed), cfg.n)
        out = relaxed(rho, dt, cfg)
        assert np.max(np.abs(out.matrix - kraus_relaxation(rho.matrix, dt, cfg))) <= 1e-14

    @given(cfg=relaxing_machines(), dt=DURATIONS)
    def test_choi_matrix_is_psd_and_trace_preserving(self, cfg, dt):
        d = cfg.dim
        units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)  # |i><j| at row i * d + j
        factors = _relaxation_factors(np.full(d * d, dt), [cfg], [0] * (d * d))
        images = _relaxation_map(units, *factors).reshape(d, d, d, d)  # [i, j]: Phi(|i><j|)
        # [i, a, j, b]: |i><j| (x) Phi(|i><j|)
        choi = images.transpose(0, 2, 1, 3)
        traces = np.trace(images, axis1=2, axis2=3)
        assert np.max(np.abs(traces - np.eye(d))) <= 1e-14
        assert np.min(np.linalg.eigvalsh(choi.reshape(d * d, d * d))) >= -1e-14

    @given(cfg=relaxing_machines(), dt=DURATIONS)
    def test_product_thermal_state_is_fixed(self, cfg, dt):
        rho = np.eye(1)
        for nuc in cfg.nuclei:
            rho = np.kron(rho, np.diag([1.0 + nuc.polarization, 1.0 - nuc.polarization]) / 2)
        out = relaxed(DensityMatrix(rho), dt, cfg)
        assert np.max(np.abs(out.matrix - rho)) <= 1e-15


MACHINES = {"gemini": preset("gemini"), "triangulum": preset("triangulum"), "weak3": WEAK3}


class TestEvolvePrograms:
    @given(
        machine=st.sampled_from(sorted(MACHINES)),
        kinds=st.lists(st.lists(st.sampled_from([RfSegment, Delay, Crusher]), max_size=5),
                       min_size=1, max_size=6),
        relaxation=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_one_program_at_a_time(self, machine, kinds, relaxation, seed):
        # one kinds list per program: empty programs, programs ending in a crusher and
        # programs of different lengths share the stack
        base = MACHINES[machine]
        rng = np.random.default_rng(seed)
        n, n_ch = base.n, len(base.channels)

        def variant():
            # the sampled spin layout with offsets, J, T1, T2 and polarization of its own
            j = np.triu(rng.uniform(-300.0, 300.0, (n, n)), 1)
            t1 = 10.0 ** rng.uniform(-3, 1, n)
            nuclei = tuple(
                replace(nuc, offset_hz=float(rng.uniform(-3e3, 3e3)), t1_s=float(t1_k),
                        t2_s=float(t1_k * rng.uniform(0.05, 2.0)),
                        polarization=float(rng.uniform(-1.0, 1.0) / n))
                for nuc, t1_k in zip(base.nuclei, t1)
            )
            return replace(base, nuclei=nuclei, j_hz=j + j.T)

        def event(kind):
            if kind is Crusher:
                return Crusher()
            if kind is Delay:
                return Delay(float(10.0 ** rng.uniform(-6, 0)))
            return RfSegment(tuple(rng.uniform(0, 2e4, n_ch)),
                             tuple(rng.uniform(-np.pi, np.pi, n_ch)),
                             float(rng.uniform(0, 1e-4)))

        # programs share machine objects, and half the events come from a pool of two per
        # kind, so events repeat across programs and positions
        machines = [variant() for _ in range(rng.integers(1, len(kinds) + 1))]
        pool = {kind: [event(kind), event(kind)] for kind in (RfSegment, Delay)}

        def drawn(kind):
            if kind in pool and rng.random() < 0.5:
                return pool[kind][rng.integers(2)]
            return event(kind)

        programs = [PulseProgram(machines[rng.integers(len(machines))], tuple(map(drawn, ks)))
                    for ks in kinds]
        rho0 = random_density_matrix(rng, n)
        states = evolve_programs(rho0, programs, relaxation)
        assert states.shape == (len(kinds), 2**n, 2**n)
        for prog, row in zip(programs, states):
            assert np.array_equal(row, evolve_program(rho0, prog, relaxation).matrix)

    def test_crusher_zeroes_off_diagonals_exactly(self, gemini):
        rho = random_density_matrix(np.random.default_rng(40), 2)
        (out,) = evolve_programs(rho, [PulseProgram(gemini, (Crusher(),))])
        assert np.array_equal(out, np.diag(np.diag(rho.matrix)))
        assert not np.signbit(out[~np.eye(4, dtype=bool)].view(float)).any()

    def test_no_programs(self, gemini):
        assert evolve_programs(thermal_state(gemini), []).shape == (0, 4, 4)

    def test_equal_events_share_a_row(self, gemini, monkeypatch):
        stacks = []
        batched = _kernels.segment_propagators

        def counted(h_stack, dt):
            stacks.append(len(h_stack))
            return batched(h_stack, dt)

        monkeypatch.setattr(_kernels, "segment_propagators", counted)
        twin = replace(gemini)
        pulse, delay = RfSegment((1e3, 2e3), (0.0, 0.5), 1e-5), Delay(1e-4)
        programs = [PulseProgram(gemini, (pulse, delay)),
                    PulseProgram(gemini, (RfSegment((1e3, 2e3), (0.0, 0.5), 1e-5), Delay(1e-4))),
                    PulseProgram(twin, (pulse, delay)),
                    PulseProgram(twin, (delay, Crusher(), pulse,
                                        RfSegment((1e3, 2e3), (0.0, 0.5), 1e-5))),
                    PulseProgram(gemini, ())]
        rho0 = thermal_state(gemini)
        first, second, third, ragged, empty = evolve_programs(rho0, programs, relaxation=True)
        # the pulse and the delay once per machine object: equal values share a row, at
        # whichever step of whichever program they come
        assert stacks == [4]
        assert np.array_equal(first, second)
        assert np.array_equal(first, third)
        assert np.array_equal(ragged, evolve_program(rho0, programs[3], True).matrix)
        assert empty.tobytes() == rho0.matrix.tobytes()

    @pytest.mark.parametrize("other", [
        make_weak_config([0.0, 0.0, 0.0], np.zeros((3, 3)), labels=["1H", "31P", "31P"]),
        make_weak_config([0.0, 0.0], np.zeros((2, 2)), labels=["31P", "1H"]),
        make_weak_config([0.0, 0.0], np.zeros((2, 2)), labels=["1H", "13C"]),
    ], ids=["more_spins", "swapped_labels", "other_label"])
    def test_other_spin_layout_rejected(self, gemini, other):
        programs = [PulseProgram(gemini, (Delay(1e-4),)), PulseProgram(other, (Delay(1e-4),))]
        with pytest.raises(ValidationError, match="spin layout"):
            evolve_programs(thermal_state(gemini), programs)

    def test_equal_but_distinct_machine_accepted(self, gemini):
        twin = replace(gemini)
        assert twin is not gemini
        pulse = RfSegment((1e3, 2e3), (0.0, 0.5), 1e-5)
        programs = [PulseProgram(cfg, (pulse, Delay(1e-4))) for cfg in (gemini, twin)]
        first, second = evolve_programs(thermal_state(gemini), programs, relaxation=True)
        assert np.array_equal(first, second)

    def test_echo_scan_memory(self, triangulum):
        # the relaxation factors are per spin, (distinct rows, n, 2, 2), so the peak is a
        # few state and propagator stacks, not (2^n, 4^n) weights per event and program
        p90, p180 = (RfSegment((1e4,), (0.0,), angle / (2 * np.pi * 1e4))
                     for angle in (np.pi / 2, np.pi))
        programs = [PulseProgram(triangulum, (p90, Delay(half), p180, Delay(half)))
                    for half in np.geomspace(1e-5, 1.0, 1000).tolist()]
        rho0 = thermal_state(triangulum)
        tracemalloc.start()
        try:
            evolve_programs(rho0, programs, relaxation=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6

    def test_ragged_counting_memory(self, gemini):
        # 100 programs of 8 to 305 events (15,650 in all) on 377 distinct event values: the
        # propagators and relaxation factors are kept per distinct (machine, event) row, so
        # the peak is far below one propagator and factor pair per event of each program
        programs = [compile_circuit(_counting_circuit("M2", l), gemini) for l in range(1, 101)]
        rho0 = thermal_state(gemini)
        tracemalloc.start()
        try:
            evolve_programs(rho0, programs, relaxation=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_every_state_is_validated(self, gemini):
        # relaxing for 100 s mends the slightly negative start state; no delay keeps it. The
        # public constructor rejects that state, so the private wrap of checked rows holds it
        bad = DensityMatrix._checked(np.diag([0.5, 0.5 + 1e-6, 0.0, -1e-6]).astype(complex))
        mended = PulseProgram(gemini, (Delay(100.0),))
        (out,) = evolve_programs(bad, [mended], relaxation=True)
        assert np.min(np.linalg.eigvalsh(out)) > 0
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            evolve_programs(bad, [mended, PulseProgram(gemini, (Delay(0.0),))], relaxation=True)
