from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import make_weak_config, random_density_matrix
from nmrqc import _kernels, spinsys
from nmrqc.dynamics import (
    Crusher,
    Delay,
    PulseProgram,
    RfSegment,
    apply_crusher,
    apply_relaxation,
    evolve_program,
    evolve_programs,
    program_unitary,
    segment_propagator,
)
from nmrqc.errors import ValidationError
from nmrqc.quantum import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    bloch_vector,
    pauli_expand,
    pauli_reconstruct,
    tensor,
)
from nmrqc.measurement import synthesize_fid
from nmrqc.spinsys import internal_hamiltonian, preset, rf_hamiltonian, thermal_state

# A weak 3-spin machine on three channels (J 140/48/190 Hz).
WEAK3 = make_weak_config(
    [0.0, 0.0, 0.0], [[0, 140, 48], [140, 0, 190], [48, 190, 0]], t1=3.0, t2=0.3,
    labels=["1H", "13C", "15N"],
)


def single_spin(offset=0.0, t1=4.0, t2=0.2, eps=1e-5):
    return make_weak_config([offset], [[0.0]], t1=t1, t2=t2, polarization=eps)


class TestSegmentPropagator:
    def test_zero_hamiltonian(self):
        u = segment_propagator(np.zeros((4, 4)), 1.7)
        assert np.max(np.abs(u - np.eye(4))) < 1e-14

    def test_x180_closed_form(self):
        # 2 pi u I_x for a duration with 2 pi u t = pi gives exp(-i pi sigma_x / 2) = -i sigma_x
        u_hz = 12.5e3
        h = 2 * np.pi * u_hz * SIGMA_X / 2
        u = segment_propagator(h, 1.0 / (2 * u_hz))
        assert np.max(np.abs(u - (-1j) * SIGMA_X)) < 1e-12

    def test_j_evolution_phases(self):
        j = 697.4
        h = 2 * np.pi * j * tensor(SIGMA_Z / 2, SIGMA_Z / 2)
        u = segment_propagator(h, 1.0 / (2 * j))
        expected = np.diag(np.exp(-1j * np.pi / 4 * np.array([1, -1, -1, 1])))
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_composition(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        u_total = segment_propagator(h, 0.7)
        u_split = segment_propagator(h, 0.3) @ segment_propagator(h, 0.4)
        assert np.max(np.abs(u_total - u_split)) < 1e-9

    def test_unitarity(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            u = segment_propagator(a + a.conj().T, rng.uniform(0, 2))
            assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            segment_propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)

    def test_off_resonance_nutation_axis(self):
        # offset D and drive u tilt the axis by atan(u/D) from z at rate sqrt(D^2+u^2)
        d_hz, u_hz, t = 300.0, 400.0, 1.3e-3
        h = 2 * np.pi * (d_hz * SIGMA_Z / 2 + u_hz * SIGMA_X / 2)
        u = segment_propagator(h, t)
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
        vec = bloch_vector(rho)
        angle = 2 * np.pi * nu * t
        assert np.hypot(vec.x, vec.y) == pytest.approx(1.0, abs=1e-9)
        assert np.arctan2(vec.y, vec.x) % (2 * np.pi) == pytest.approx(
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

    def test_program_json_roundtrip(self, gemini):
        prog = PulseProgram(
            gemini,
            (RfSegment((1e3, 0.0), (0.0, 0.0), 2e-5), Delay(1e-4), Crusher()),
        )
        again = PulseProgram.from_json_dict(prog.to_json_dict(), gemini)
        assert again == prog
        assert again.duration_s == pytest.approx(1.2e-4)

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
                expected = segment_propagator(h, ev.duration_s) @ expected
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
        expected = rho0
        for ev in events:
            if isinstance(ev, Crusher):
                expected = apply_crusher(expected)
                continue
            h = h0
            if isinstance(ev, RfSegment):
                h = h0 + rf_hamiltonian(cfg, ev.amplitudes_hz, ev.phases_rad)
            expected = expected.evolved(segment_propagator(h, ev.duration_s))
            if relaxation:
                expected = apply_relaxation(expected, ev.duration_s, cfg)
        rho = evolve_program(rho0, PulseProgram(cfg, tuple(events)), relaxation)
        assert np.max(np.abs(rho.matrix - expected.matrix)) <= 1e-12

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


class TestCrusher:
    def test_full_dephasing_of_plus(self):
        plus = DensityMatrix.from_ket(np.array([1, 1], dtype=complex) / np.sqrt(2))
        assert np.max(np.abs(apply_crusher(plus).matrix - np.eye(2) / 2)) < 1e-15

    def test_diagonal_states_unchanged_and_idempotent(self):
        rng = np.random.default_rng(24)
        rho = random_density_matrix(rng, 2)
        once = apply_crusher(rho)
        twice = apply_crusher(once)
        assert np.max(np.abs(once.matrix - np.diag(np.diag(rho.matrix)))) == 0.0
        assert np.max(np.abs(twice.matrix - once.matrix)) == 0.0
        assert np.trace(once.matrix) == pytest.approx(1.0)

    def test_deviation_example(self):
        # sz1 + sz2/2 - sqrt(3)/2 sy2 loses only its transverse part
        dev = (
            tensor(SIGMA_Z, np.eye(2))
            + 0.5 * tensor(np.eye(2), SIGMA_Z)
            - (np.sqrt(3) / 2) * tensor(np.eye(2), SIGMA_Y)
        )
        rho = DensityMatrix(np.eye(4) / 4 + dev / 40)
        out = apply_crusher(rho)
        expected_dev = tensor(SIGMA_Z, np.eye(2)) + 0.5 * tensor(np.eye(2), SIGMA_Z)
        assert np.max(np.abs(out.matrix - (np.eye(4) / 4 + expected_dev / 40))) < 1e-12


class TestRelaxation:
    def test_transverse_decay_rate(self):
        cfg = single_spin(eps=0.0, t2=0.37)
        rho = pauli_reconstruct({"I": 1.0, "X": 1.0})
        out = apply_relaxation(rho, 0.37, cfg)
        assert pauli_expand(out)["X"] == pytest.approx(np.exp(-1.0), rel=1e-10)

    def test_inversion_recovery_curve(self):
        eps = 1e-3
        cfg = single_spin(eps=eps, t1=2.0)
        inverted = pauli_reconstruct({"I": 1.0, "Z": -eps})
        for dt in (0.1, 1.0, 5.0):
            out = apply_relaxation(inverted, dt, cfg)
            expected = eps * (1 - 2 * np.exp(-dt / 2.0))
            assert pauli_expand(out)["Z"] == pytest.approx(expected, abs=1e-15)

    def test_identity_at_zero_duration(self, gemini):
        rng = np.random.default_rng(25)
        rho = random_density_matrix(rng, 2)
        out = apply_relaxation(rho, 0.0, gemini)
        assert np.max(np.abs(out.matrix - rho.matrix)) == 0.0

    def test_trace_and_hermiticity_preserved(self, gemini):
        rng = np.random.default_rng(26)
        for _ in range(20):
            rho = random_density_matrix(rng, 2)
            out = apply_relaxation(rho, 0.05, gemini)
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-14)
            assert abs(np.trace(out.matrix).imag) < 1e-14
            assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12

    def test_fixed_point_is_thermal(self, gemini):
        rng = np.random.default_rng(27)
        rho = random_density_matrix(rng, 2)
        out = apply_relaxation(rho, 50 * 6.0, gemini)  # 50x the longest T1
        assert np.max(np.abs(out.matrix - thermal_state(gemini).matrix)) < 1e-9

    def test_positivity_on_random_states(self, gemini):
        rng = np.random.default_rng(28)
        for _ in range(200):
            rho = random_density_matrix(rng, 2)
            out = apply_relaxation(rho, float(rng.uniform(0, 1.0)), gemini)
            assert np.min(np.linalg.eigvalsh(out.matrix)) > -1e-9

    def test_multi_spin_z_products_damp_by_product(self, gemini):
        rho = pauli_reconstruct({"II": 1.0, "ZZ": 0.5})
        dt = 0.11
        out = apply_relaxation(rho, dt, gemini)
        expected = 0.5 * np.exp(-dt / 4.0) * np.exp(-dt / 6.0)
        zz = pauli_expand(out)["ZZ"]
        # the restoration terms also generate no ZZ weight
        assert zz == pytest.approx(expected, abs=1e-12)


def reference_relaxation(rho, dt, config):
    """`apply_relaxation` as a per-spin moveaxis/stack loop: the reference the
    batched channel must reproduce bit for bit."""
    if dt == 0:
        return rho.matrix
    n = config.n
    t = rho.matrix.reshape((2,) * (2 * n)).copy()
    for k, nuc in enumerate(config.nuclei):
        e1 = np.exp(-dt / nuc.t1_s)
        e2 = np.exp(-dt / nuc.t2_s)
        t = np.moveaxis(t, (k, n + k), (0, 1))
        p00, p01, p10, p11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
        mean = 0.5 * (p00 + p11)
        half_diff = 0.5 * (p00 - p11)
        t = np.stack(
            [
                np.stack([mean + e1 * half_diff, e2 * p01]),
                np.stack([e2 * p10, mean - e1 * half_diff]),
            ]
        )
        t = np.moveaxis(t, (0, 1), (k, n + k))
    m = t.reshape(config.dim, config.dim)
    for nuc, sz in zip(config.nuclei, config._operators.sz):
        e1 = np.exp(-dt / nuc.t1_s)
        if nuc.polarization != 0.0:
            m = m + (nuc.polarization * (1.0 - e1) / config.dim) * sz
    return m


class TestBatchedRelaxation:
    @given(
        n=st.integers(1, 3),
        times=st.lists(st.tuples(st.floats(1e-3, 100.0), st.floats(1e-3, 100.0)),
                       min_size=3, max_size=3),
        polarizations=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
        log_dt=st.floats(-6.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_moveaxis_loop_exactly(self, n, times, polarizations, log_dt, seed):
        cfg = make_weak_config([0.0] * n, np.zeros((n, n)))
        cfg = replace(cfg, nuclei=tuple(
            replace(nuc, t1_s=t1, t2_s=t2, polarization=pol)
            for nuc, (t1, t2), pol in zip(cfg.nuclei, times, polarizations)
        ))
        rho = random_density_matrix(np.random.default_rng(seed), n)
        dt = 10.0**log_dt
        out = apply_relaxation(rho, dt, cfg)
        assert np.array_equal(out.matrix, reference_relaxation(rho, dt, cfg))


MACHINES = {"gemini": preset("gemini"), "triangulum": preset("triangulum"), "weak3": WEAK3}


class TestEvolvePrograms:
    @given(
        machine=st.sampled_from(sorted(MACHINES)),
        kinds=st.lists(st.sampled_from([RfSegment, Delay, Crusher]), min_size=1, max_size=5),
        batch=st.integers(1, 6),
        relaxation=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_one_program_at_a_time(self, machine, kinds, batch, relaxation, seed):
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
        machines = [variant() for _ in range(rng.integers(1, batch + 1))]
        pool = {kind: [event(kind), event(kind)] for kind in (RfSegment, Delay)}

        def drawn(kind):
            if kind in pool and rng.random() < 0.5:
                return pool[kind][rng.integers(2)]
            return event(kind)

        programs = [PulseProgram(machines[rng.integers(len(machines))], tuple(map(drawn, kinds)))
                    for _ in range(batch)]
        rho0 = random_density_matrix(rng, n)
        states = evolve_programs(rho0, programs, relaxation)
        assert len(states) == batch
        for prog, rho in zip(programs, states):
            assert np.array_equal(rho.matrix, evolve_program(rho0, prog, relaxation).matrix)

    def test_crusher_zeroes_off_diagonals_exactly(self, gemini):
        rho = random_density_matrix(np.random.default_rng(40), 2)
        (out,) = evolve_programs(rho, [PulseProgram(gemini, (Crusher(),))])
        assert np.array_equal(out.matrix, apply_crusher(rho).matrix)
        assert not np.signbit(out.matrix[~np.eye(4, dtype=bool)].view(float)).any()

    def test_no_programs(self, gemini):
        assert evolve_programs(thermal_state(gemini), []) == []

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
        assert np.array_equal(first.matrix, second.matrix)

    @pytest.mark.parametrize("events", [
        (RfSegment((1e3, 0.0), (0.0, 0.0), 1e-5),),
        (Delay(1e-4), Crusher()),
        (Crusher(), Delay(1e-4)),
    ], ids=["rf_for_delay", "extra_crusher", "reordered"])
    def test_mismatched_event_kinds_rejected(self, gemini, events):
        programs = [PulseProgram(gemini, (Delay(1e-4),)), PulseProgram(gemini, events)]
        with pytest.raises(ValidationError, match="sequence of event kinds"):
            evolve_programs(thermal_state(gemini), programs)

    def test_every_state_is_validated(self, gemini):
        # relaxing for 100 s mends the slightly negative start state; no delay keeps it
        bad = DensityMatrix(np.diag([0.5, 0.5 + 1e-6, 0.0, -1e-6]).astype(complex),
                            validate=False)
        mended = PulseProgram(gemini, (Delay(100.0),))
        (out,) = evolve_programs(bad, [mended], relaxation=True)
        assert np.min(np.linalg.eigvalsh(out.matrix)) > 0
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            evolve_programs(bad, [mended, PulseProgram(gemini, (Delay(0.0),))], relaxation=True)
