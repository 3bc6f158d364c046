import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_weak_config, random_density_matrix, random_unitary
from nmrqc import _kernels
from nmrqc.control import Gate, GrapeConfig, gate_fidelity, gate_matrix, grape_optimize
from nmrqc.dynamics import RfSegment, evolve_program, program_unitary
from nmrqc.errors import ValidationError
from nmrqc.quantum import _check_density
from nmrqc.spinsys import control_operators, internal_hamiltonian, preset


def small_system():
    return make_weak_config([30.0, -20.0], [[0.0, 50.0], [50.0, 0.0]])


def hamiltonians(u, config):
    h0 = internal_hamiltonian(config).astype(np.complex128)
    controls, _ = control_operators(config)
    return h0[np.newaxis] + np.tensordot(u, controls.astype(np.complex128), axes=(1, 0))


def fidelity_and_gradient(u, config, dt, target_dag):
    controls, _ = control_operators(config)
    return _kernels.grape_fidelity_and_gradient(
        hamiltonians(u, config), target_dag, controls.astype(np.complex128), dt
    )


def chain_fidelity(u, config, dt, target_dag):
    props = _kernels.segment_propagators(hamiltonians(u, config), dt)
    return gate_fidelity(_kernels.unitary_chain(props), target_dag.conj().T)


def central_difference(u, config, dt, target_dag, delta, picks):
    out = []
    for j, m in picks:
        up = u.copy()
        up[j, m] += delta
        dn = u.copy()
        dn[j, m] -= delta
        out.append(
            (chain_fidelity(up, config, dt, target_dag)
             - chain_fidelity(dn, config, dt, target_dag)) / (2 * delta)
        )
    return np.asarray(out)


class TestGradient:
    def test_finite_difference_agreement(self):
        cfg = small_system()
        rng = np.random.default_rng(41)
        target = random_unitary(rng, 4)
        target_dag = np.ascontiguousarray(target.conj().T)
        n_seg, dt, m = 8, 5e-6, 4
        u = rng.uniform(-50.0, 50.0, size=(n_seg, m))
        _, grad = fidelity_and_gradient(u, cfg, dt, target_dag)
        picks = [(int(j), int(k)) for j, k in zip(rng.integers(0, n_seg, 20),
                                                  rng.integers(0, m, 20))]
        fds = central_difference(u, cfg, dt, target_dag, 1e-3, picks)
        analytic = np.asarray([grad[j, k] for j, k in picks])
        # relative error over the sampled components; a per-component relative
        # criterion is ill-posed where the gradient crosses zero, so each
        # sample is instead held to 1e-5 of the gradient scale
        assert np.linalg.norm(fds - analytic) <= 1e-5 * np.linalg.norm(fds)
        scale = float(np.max(np.abs(grad)))
        for fd, g in zip(fds, analytic):
            assert abs(fd - g) <= 1e-5 * scale

    def test_exact_on_triangulum_benchmark_pulse(self, triangulum):
        # 20 segments over 1 ms with kHz amplitudes: dt * ||H|| is far from
        # small, where a first-order gradient is off by tens of percent
        rng = np.random.default_rng(43)
        target_dag = np.ascontiguousarray(gate_matrix(Gate("X90", (1,)), 3).conj().T)
        n_seg, dt = 20, 1e-3 / 20
        u = rng.uniform(-1000.0, 1000.0, size=(n_seg, 2))
        _, grad = fidelity_and_gradient(u, triangulum, dt, target_dag)
        picks = [(j, k) for j in range(n_seg) for k in range(2)]
        fds = central_difference(u, triangulum, dt, target_dag, 1e-2, picks)
        assert np.linalg.norm(fds - grad.ravel()) <= 1e-6 * np.linalg.norm(fds)

    def test_degenerate_spectrum(self):
        # H0 = 0 and a single drive axis leave degenerate eigenvalues in every
        # segment, where the divided difference takes its limit
        cfg = make_weak_config([0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
        rng = np.random.default_rng(45)
        target_dag = np.ascontiguousarray(random_unitary(rng, 4).conj().T)
        n_seg, dt = 6, 2e-5
        u = np.zeros((n_seg, 4))
        u[:, 0] = rng.uniform(-2e3, 2e3, size=n_seg)
        _, grad = fidelity_and_gradient(u, cfg, dt, target_dag)
        picks = [(j, k) for j in range(n_seg) for k in range(4)]
        fds = central_difference(u, cfg, dt, target_dag, 1e-2, picks)
        assert np.linalg.norm(fds - grad.ravel()) <= 1e-6 * np.linalg.norm(fds)

    def test_identity_target_zero_drive_is_stationary(self):
        cfg = make_weak_config([0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])  # H0 = 0
        target = np.eye(4, dtype=complex)
        gcfg = GrapeConfig(segments=10, dt_s=1e-5, max_iters=50, initial="constant")
        result = grape_optimize(target, cfg, gcfg, seed=0)
        assert result.fidelity_trace[0] == pytest.approx(1.0, abs=1e-12)
        assert result.iterations == 0
        assert result.final_fidelity == pytest.approx(1.0, abs=1e-12)
        # gradient vanishes at the stationary point
        fid, grad = fidelity_and_gradient(np.zeros((10, 4)), cfg, 1e-5, target)
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(grad)) < 1e-15


class TestOptimizer:
    def test_single_qubit_gate_converges(self):
        cfg = small_system()
        target = gate_matrix(Gate("X90", (1,)), 2)
        gcfg = GrapeConfig(segments=30, dt_s=2e-5, max_iters=300, target_fidelity=0.999)
        result = grape_optimize(target, cfg, gcfg, seed=2)
        assert result.final_fidelity >= 0.999
        trace = result.fidelity_trace
        assert np.all(np.diff(trace) >= 0)

    def test_trace_consistency_and_metadata(self):
        cfg = small_system()
        target = gate_matrix(Gate("Y90", (2,)), 2)
        gcfg = GrapeConfig(segments=12, dt_s=2e-5, max_iters=25, target_fidelity=0.9999)
        result = grape_optimize(target, cfg, gcfg, seed=3)
        assert abs(result.final_fidelity - gate_fidelity(result.final_unitary, target)) <= 1e-12
        assert result.fidelity_trace[-1] == pytest.approx(result.final_fidelity, abs=1e-12)
        assert result.amplitudes_hz.shape == (12, 4)
        meta = result.metadata_dict()
        assert meta["seed"] == 3
        assert meta["restarts"] == result.restarts == 0
        assert meta["segments"] == 12
        csv = result.csv_text()
        assert csv.splitlines()[0] == "segment_index,channel,u_x_hz,u_y_hz"
        assert len(csv.splitlines()) == 1 + 12 * 2

    def test_stop_reasons(self):
        cfg = small_system()
        target = gate_matrix(Gate("X90", (1,)), 2)
        capped = grape_optimize(target, cfg, GrapeConfig(segments=10, dt_s=2e-5, max_iters=3),
                                seed=5)
        assert (capped.stop_reason, capped.iterations) == ("max_iters", 3)
        assert len(capped.fidelity_trace) == 4
        reached = grape_optimize(target, cfg, GrapeConfig(segments=10, dt_s=2e-5,
                                                          target_fidelity=0.99), seed=5)
        assert reached.stop_reason == "target_fidelity"
        assert reached.final_fidelity >= 0.99
        assert reached.fidelity_trace[-2] < 0.99

    def test_seed_reproducibility(self):
        cfg = small_system()
        target = gate_matrix(Gate("X90", (1,)), 2)
        gcfg = GrapeConfig(segments=10, dt_s=2e-5, max_iters=10)
        r1 = grape_optimize(target, cfg, gcfg, seed=5)
        r2 = grape_optimize(target, cfg, gcfg, seed=5)
        assert np.array_equal(r1.amplitudes_hz, r2.amplitudes_hz)
        assert np.array_equal(r1.fidelity_trace, r2.fidelity_trace)

    def test_bad_inputs(self):
        cfg = small_system()
        with pytest.raises(ValidationError):
            GrapeConfig(segments=0, dt_s=1e-5)
        with pytest.raises(ValidationError):
            GrapeConfig(segments=10, dt_s=1e-5, target_fidelity=0.0)
        with pytest.raises(ValidationError):
            GrapeConfig(segments=10, dt_s=float("nan"))
        with pytest.raises(ValidationError):
            GrapeConfig(segments=10, dt_s=1e-5, max_iters=-1)
        with pytest.raises(ValidationError):
            grape_optimize(np.eye(8), cfg, GrapeConfig(segments=4, dt_s=1e-5), seed=0)

    @pytest.mark.parametrize("dt_s", ["1e-4", True, None, 1e-4 + 0j, np.nan, np.inf, 0.0, -1e-5],
                             ids=["string", "bool", "none", "complex", "nan", "inf", "zero",
                                  "negative"])
    def test_dt_s_outside_its_domain(self, dt_s):
        with pytest.raises(ValidationError, match="^dt_s must be finite and > 0$"):
            GrapeConfig(segments=4, dt_s=dt_s)

    def test_dt_s_is_stored_as_a_float(self):
        assert type(GrapeConfig(segments=4, dt_s=np.float64(1e-4)).dt_s) is float
        assert GrapeConfig(segments=4, dt_s=1).dt_s == 1.0

    @pytest.mark.parametrize("target", [2 * np.eye(4), np.zeros((4, 4)), np.diag([1, 1, 1, 0.9]),
                                        np.full((4, 4), np.nan)],
                             ids=["twice_identity", "zero", "contraction", "nan"])
    def test_target_must_be_unitary(self, target):
        # a fidelity against a non-unitary target is no gate fidelity: 2 I read 1.117
        with pytest.raises(ValidationError, match="target must be unitary"):
            grape_optimize(target, small_system(), GrapeConfig(segments=4, dt_s=1e-5), seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
    def test_seed_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            grape_optimize(np.eye(2), small_system(), GrapeConfig(segments=4, dt_s=1e-5), seed=seed)

    def test_segment_cap_scales_with_the_machine(self, gemini, triangulum):
        # segments * dim^2 <= 2^20: 262,144 segments on 1 spin, 65,536 on 2, 16,384 on 3
        one = make_weak_config([0.0], np.zeros((1, 1)))
        for cfg, most in ((one, 262144), (gemini, 65536), (triangulum, 16384)):
            gcfg = GrapeConfig(segments=most + 1, dt_s=1e-6, max_iters=0)
            with pytest.raises(ValidationError, match=f"at most {most} segments"):
                grape_optimize(np.eye(cfg.dim), cfg, gcfg)


def triangulum_x90(triangulum, seed, max_iters=100):
    # perfbench's triangulum solve: X90 on qubit 1, 20 segments over 1 ms, F >= 0.9
    gcfg = GrapeConfig(segments=20, dt_s=1e-3 / 20, max_iters=max_iters, target_fidelity=0.9)
    return grape_optimize(gate_matrix(Gate("X90", (1,)), 3), triangulum, gcfg, seed=seed)


# Starts from which one L-BFGS run climbs slowly and ends at F = 0.74-0.80 after 100 iterates
TRAP_SEEDS = (2056662040, 711811843)


class TestRestarts:
    @pytest.mark.parametrize("seed", TRAP_SEEDS)
    def test_trapped_start_restarts_and_reaches_target(self, triangulum, seed):
        result = triangulum_x90(triangulum, seed)
        assert result.stop_reason == "target_fidelity"
        assert result.final_fidelity >= 0.9
        assert result.iterations <= 100
        assert result.restarts == 1
        assert result.metadata_dict()["restarts"] == 1
        trace = result.fidelity_trace
        assert np.all(np.diff(trace) >= 0)
        # the first start's best stands until the second start passes it
        assert trace[51] == trace[50] < 0.9
        assert abs(result.final_fidelity - trace[-1]) <= 1e-12

    def test_iterations_of_every_start_count_against_max_iters(self, triangulum):
        # 50 iterates in the first start, 5 in the second, which stays below the first's best
        result = triangulum_x90(triangulum, TRAP_SEEDS[0], max_iters=55)
        assert (result.stop_reason, result.iterations, result.restarts) == ("max_iters", 55, 1)
        trace = result.fidelity_trace
        assert len(trace) == 56 and trace[-1] == trace[50]
        assert abs(result.final_fidelity - trace[-1]) <= 1e-12

    def test_converged_start_restarts(self, gemini):
        # perfbench's gemini H solve from this start converges at F = 0.147 after 148 iterates
        gcfg = GrapeConfig(segments=16, dt_s=4e-4 / 16, max_iters=400, target_fidelity=0.9)
        result = grape_optimize(gate_matrix(Gate("H", (1,)), 2), gemini, gcfg, seed=1269762018)
        assert (result.stop_reason, result.restarts) == ("target_fidelity", 1)
        assert result.fidelity_trace[148] < 0.15 and result.final_fidelity >= 0.9

    def test_stationary_start_restarts(self):
        # H0 = 0 and no drive leave U = I: F = |Tr(Z (x) I)|^2 / 16 = 0, with zero gradient, so
        # the start takes no step; it spends one iterate and gives way to a fresh draw
        cfg = make_weak_config([0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
        gcfg = GrapeConfig(segments=4, dt_s=1e-5, max_iters=50, initial="constant")
        result = grape_optimize(gate_matrix(Gate("Z", (1,)), 2), cfg, gcfg, seed=0)
        assert result.fidelity_trace[1] == result.fidelity_trace[0] == 0.0
        assert result.stop_reason == "target_fidelity" and result.restarts >= 1
        assert result.iterations <= 50 and result.final_fidelity >= gcfg.target_fidelity

    def test_start_near_zero_fidelity_restarts(self, gemini):
        # perfbench's gemini H solve, seed 1003 job 185: the first draw reads F = 2.6e-8, where
        # the gradient is below L-BFGS's projected-gradient stop, and takes no step
        gcfg = GrapeConfig(segments=16, dt_s=4e-4 / 16, max_iters=400, target_fidelity=0.9)
        result = grape_optimize(gate_matrix(Gate("H", (2,)), 2), gemini, gcfg, seed=478544002)
        assert result.fidelity_trace[1] == result.fidelity_trace[0] < 1e-7
        assert (result.stop_reason, result.restarts) == ("target_fidelity", 1)
        assert result.final_fidelity >= 0.9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_iters=st.integers(0, 6),
           target_fidelity=st.floats(0.5, 1.0, exclude_min=True),
           initial=st.sampled_from(["random", "constant"]), qubit=st.sampled_from([1, 2]))
    def test_a_result_below_target_spent_max_iters(self, gemini, seed, max_iters,
                                                   target_fidelity, initial, qubit):
        gcfg = GrapeConfig(4, 4e-4 / 4, max_iters, target_fidelity, initial)
        result = grape_optimize(gate_matrix(Gate("H", (qubit,)), 2), gemini, gcfg, seed=seed)
        if result.fidelity_trace[-1] < target_fidelity:
            assert (result.stop_reason, result.iterations) == ("max_iters", max_iters)
        else:
            assert result.stop_reason == "target_fidelity" and result.iterations <= max_iters

    def test_restart_is_reproducible(self, triangulum):
        r1 = triangulum_x90(triangulum, TRAP_SEEDS[1])
        r2 = triangulum_x90(triangulum, TRAP_SEEDS[1])
        assert r1.restarts == r2.restarts == 1
        assert np.array_equal(r1.amplitudes_hz, r2.amplitudes_hz)
        assert np.array_equal(r1.fidelity_trace, r2.fidelity_trace)

    def test_restart_budget(self):
        assert GrapeConfig(segments=4, dt_s=1e-5, max_iters=100).restart_iters == 50
        assert GrapeConfig(segments=4, dt_s=1e-5, max_iters=40).restart_iters == 50
        assert GrapeConfig(segments=4, dt_s=1e-5, max_iters=1000).restart_iters == 500

    def test_readme_request_needs_no_restart(self, triangulum):
        # c09b, the README `grape` request: 41 iterates from one start
        gcfg = GrapeConfig(segments=100, dt_s=1.5e-3 / 100, max_iters=1000,
                           target_fidelity=0.995)
        result = grape_optimize(gate_matrix(Gate("X90", (1,)), 3), triangulum, gcfg, seed=1)
        assert (result.iterations, result.restarts) == (41, 0)
        assert result.final_fidelity >= 0.995


class TestPulseProgram:
    @settings(max_examples=60)
    @given(machine=st.sampled_from(["gemini", "triangulum"]),
           gate=st.sampled_from(["X90", "Y90", "H"]), segments=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_program_unitary_is_the_final_unitary(self, machine, gate, segments, seed, data):
        cfg = preset(machine)
        qubit = data.draw(st.integers(1, cfg.n))
        gcfg = GrapeConfig(segments=segments, dt_s=4e-4 / segments, max_iters=5)
        result = grape_optimize(gate_matrix(Gate(gate, (qubit,)), cfg.n), cfg, gcfg, seed=seed)
        program = result.program
        assert program.system is cfg and len(program.events) == segments
        assert all(isinstance(ev, RfSegment) and ev.duration_s == result.dt_s
                   for ev in program.events)
        # each channel's (x, y) amplitudes in polar form
        x, y = result.amplitudes_hz[:, 0::2], result.amplitudes_hz[:, 1::2]
        assert np.array_equal([ev.amplitudes_hz for ev in program.events], np.hypot(x, y))
        assert np.array_equal([ev.phases_rad for ev in program.events], np.arctan2(y, x))
        assert np.array_equal(program_unitary(program), result.final_unitary)
        # the search's own chain over the same amplitudes
        chain = _kernels.unitary_chain(_kernels.segment_propagators(
            hamiltonians(result.amplitudes_hz, cfg), result.dt_s))
        assert np.max(np.abs(result.final_unitary - chain)) <= 1e-12

    @pytest.mark.parametrize("machine", ["gemini", "triangulum"])
    def test_evolve_program_plays_the_pulse(self, machine):
        cfg = preset(machine)
        gcfg = GrapeConfig(segments=12, dt_s=4e-4 / 12, max_iters=20)
        result = grape_optimize(gate_matrix(Gate("X90", (1,)), cfg.n), cfg, gcfg, seed=4)
        rho = random_density_matrix(np.random.default_rng(11), cfg.n)
        relaxed = evolve_program(rho, result.program, relaxation=True)
        _check_density(relaxed.matrix)
        u = result.final_unitary
        plain = evolve_program(rho, result.program)
        assert np.max(np.abs(plain.matrix - u @ rho.matrix @ u.conj().T)) <= 1e-12
        assert not np.array_equal(relaxed.matrix, plain.matrix)
