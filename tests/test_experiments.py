import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_weak_config
from nmrqc import _kernels, experiments
from nmrqc.control import _single_channel_pulse
from nmrqc.dynamics import (
    Crusher,
    Delay,
    PulseProgram,
    RfSegment,
    apply_crusher,
    evolve_program,
    evolve_programs,
)
from nmrqc.errors import FitError, ValidationError
from nmrqc.experiments import (
    _abs_sine_period_guess,
    _transverse,
    fit_model,
    prepare_pseudo_pure,
    rabi_calibration,
    relaxation_experiment,
)
from nmrqc.quantum import pauli_expand
from nmrqc.spinsys import thermal_state


class TestFitModel:
    def test_exponential_decay_exact(self):
        x = np.linspace(0, 5, 40)
        y = np.exp(-x / 1.0)
        fit = fit_model(x, y, "exp_decay")
        assert fit.params["tau"] == pytest.approx(1.0, abs=1e-6)
        assert fit.params["amplitude"] == pytest.approx(1.0, abs=1e-6)

    def test_inversion_recovery_exact(self):
        tau = 0.7
        x = np.linspace(0.01, 4, 30)
        y = 1 - 2 * np.exp(-x / tau)
        fit = fit_model(x, y, "inversion_recovery")
        assert fit.params["tau"] == pytest.approx(tau, abs=1e-6)

    def test_abs_sine_period(self):
        t180 = 40e-6
        x = np.linspace(2e-6, 1.5 * t180 * 2, 12)
        y = np.abs(np.sin(np.pi * x / t180))
        fit = fit_model(x, y, "abs_sine")
        assert fit.params["period"] == pytest.approx(t180, rel=1e-4)

    def test_no_signal_raises(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(FitError):
            fit_model(x, np.zeros(10), "exp_decay")

    def test_wrong_model_shape_raises(self):
        x = np.linspace(0, 4, 25)
        y = np.sin(7 * x) + 2.0  # nothing like an exponential decay
        with pytest.raises(FitError):
            fit_model(x, y, "exp_decay")

    def test_determinism(self):
        rng = np.random.default_rng(61)
        x = np.linspace(0, 3, 20)
        y = 0.8 * np.exp(-x / 0.9) + 1e-3 * rng.normal(size=20)
        f1 = fit_model(x, y, "exp_decay")
        f2 = fit_model(x, y, "exp_decay")
        assert f1.params == f2.params

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            fit_model([0.0, 1.0], [1.0, 0.5], "exp_decay")

    @pytest.mark.parametrize("x, y", [
        (np.linspace(0, 3, 10), np.exp(-np.linspace(0, 3, 10)) + np.where(np.arange(10) == 4,
                                                                            np.nan, 0.0)),
        (np.append(np.linspace(0, 3, 9), np.inf), np.exp(-np.linspace(0, 3, 10))),
    ], ids=["nan_in_y", "inf_in_x"])
    def test_non_finite_data_rejected_without_warnings(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                fit_model(x, y, "exp_decay")

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(experiments, "_MAX_ITERATIONS", 1)
        x = np.linspace(0, 5, 40)
        with pytest.raises(FitError, match="did not converge within 1 iterations"):
            fit_model(x, np.exp(-x / 1.3), "exp_decay")


MODEL_CURVES = {
    "exp_decay": ("tau", lambda x, a, t: a * np.exp(-x / t)),
    "inversion_recovery": ("tau", lambda x, a, t: a * (1.0 - 2.0 * np.exp(-x / t))),
    "abs_sine": ("period", lambda x, a, t: a * np.abs(np.sin(np.pi * x / t))),
}


def _least_squares_reference(x, y, model):
    """rms of the bounded trust-region fit that fit_model replaced, from its start point."""
    from scipy.optimize import least_squares

    curve = MODEL_CURVES[model][1]
    span = float(np.max(x) - np.min(x))
    theta0 = _abs_sine_period_guess(x, y) if model == "abs_sine" else span / 2.0
    sol = least_squares(lambda p: curve(x, *p) - y, [float(np.max(np.abs(y))), theta0],
                        bounds=([0.0, 1e-30], [np.inf, np.inf]), method="trf",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return float(np.sqrt(np.mean(sol.fun**2)))


@st.composite
def fit_problems(draw):
    """A model, its amplitude and time constant, and an x grid that samples
    it: decays over 1.5-8 time constants (linear or log-spaced), |sin| over
    1.2-3 periods at 6 or more points per period."""
    model = draw(st.sampled_from(sorted(MODEL_CURVES)))
    amplitude = 10.0 ** draw(st.floats(-6.0, 3.0))
    theta = 10.0 ** draw(st.floats(-6.0, 2.0))
    if model == "abs_sine":
        start = draw(st.floats(0.01, 0.3))
        periods = draw(st.floats(1.2, 3.0))
        points = draw(st.integers(int(np.ceil(6 * periods)), 40))
        u = np.linspace(start, start + periods, points)
    elif draw(st.booleans()):
        u = np.geomspace(draw(st.floats(1e-4, 0.1)), draw(st.floats(1.5, 8.0)),
                         draw(st.integers(8, 40)))
    else:
        u = np.linspace(draw(st.floats(0.0, 0.5)), draw(st.floats(1.5, 8.0)),
                        draw(st.integers(8, 40)))
    return model, amplitude, theta, theta * u


class TestSeparableFit:
    @given(problem=fit_problems())
    # 6.1 samples per period, the first close to a multiple of the spacing: a period
    # search below two spacings finds the alias at 0.195
    @example(problem=("abs_sine", 1.0, 1.0, np.linspace(0.1640625, 2.7734375, 17)))
    def test_recovers_noise_free_parameters(self, problem):
        model, amplitude, theta, x = problem
        name, curve = MODEL_CURVES[model]
        fit = fit_model(x, curve(x, amplitude, theta), model)
        assert fit.params[name] == pytest.approx(theta, rel=1e-9)
        assert fit.params["amplitude"] == pytest.approx(amplitude, rel=1e-9)

    @given(problem=fit_problems(), noise=st.floats(1e-4, 1e-2), seed=st.integers(0, 2**32 - 1))
    def test_noisy_residual_no_worse_than_least_squares(self, problem, noise, seed):
        model, amplitude, theta, x = problem
        y = MODEL_CURVES[model][1](x, amplitude, theta)
        y = y + noise * amplitude * np.random.default_rng(seed).normal(size=x.size)
        fit = fit_model(x, y, model)
        assert fit.residual <= _least_squares_reference(x, y, model) * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_converges_at_a_kink_of_samples_on_zeros(self, seed):
        # Samples sit on every zero of |sin|, x = m T. Where noise puts them below
        # zero, the residual has a V-shaped minimum at T that Gauss-Newton steps
        # would jump across forever.
        x = 40e-6 * np.arange(1, 13) / 4
        y = np.abs(np.sin(np.pi * x / 40e-6)) + 0.01 * np.random.default_rng(seed).normal(size=12)
        fit = fit_model(x, y, "abs_sine")
        assert fit.params["period"] == pytest.approx(40e-6, rel=2e-3)
        assert fit.residual <= _least_squares_reference(x, y, "abs_sine") * (1 + 1e-9)


class TestPseudoPure:
    def test_final_deviation(self, gemini):
        program, rho = prepare_pseudo_pure(gemini)
        eps = gemini.nuclei[0].polarization
        co = pauli_expand(rho)
        for label in ("ZI", "IZ", "ZZ"):
            assert co[label] / eps == pytest.approx(0.5, abs=1e-9)
        # everything else vanishes
        for label, value in co.items():
            if label not in ("II", "ZI", "IZ", "ZZ"):
                assert abs(value) / eps < 1e-9

    def test_final_state_matches_pseudo_pure_form(self, gemini):
        _, rho = prepare_pseudo_pure(gemini)
        eps = gemini.nuclei[0].polarization
        eta = eps / 2  # deviation (eps/8)(sz1+sz2+szsz) = eta (|00><00| - I/4) * 2
        ket00 = np.zeros(4)
        ket00[0] = 1
        expected = (1 - eta) * np.eye(4) / 4 + eta * np.outer(ket00, ket00)
        assert np.max(np.abs(rho.matrix - expected)) / eps < 1e-9

    def test_intermediate_after_first_crusher(self, gemini):
        program, _ = prepare_pseudo_pure(gemini)
        # run only the first two events: Rx2(pi/3) then crusher
        partial = evolve_program(
            thermal_state(gemini),
            type(program)(system=gemini, events=program.events[:2]),
        )
        eps = gemini.nuclei[0].polarization
        co = pauli_expand(partial)
        assert co["ZI"] / eps == pytest.approx(1.0, abs=1e-9)
        assert co["IZ"] / eps == pytest.approx(0.5, abs=1e-9)

    def test_state_is_crusher_invariant(self, gemini):
        _, rho = prepare_pseudo_pure(gemini)
        assert np.max(np.abs(apply_crusher(rho).matrix - rho.matrix)) < 1e-20

    def test_event_vocabulary(self, gemini):
        program, _ = prepare_pseudo_pure(gemini)
        assert all(isinstance(ev, (RfSegment, Delay, Crusher)) for ev in program.events)
        assert sum(isinstance(ev, Crusher) for ev in program.events) == 2
        delays = [ev.duration_s for ev in program.events if isinstance(ev, Delay)]
        assert delays == [pytest.approx(1 / (2 * 697.4))]

    def test_zero_polarization_passthrough(self):
        cfg = make_weak_config([0.0, 0.0], [[0.0, 697.4], [697.4, 0.0]], polarization=0.0)
        _, rho = prepare_pseudo_pure(cfg)
        assert np.max(np.abs(rho.matrix - np.eye(4) / 4)) < 1e-15

    def test_zero_j_rejected(self):
        cfg = make_weak_config([0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            prepare_pseudo_pure(cfg)

    def test_wrong_qubit_count_rejected(self):
        cfg = make_weak_config([0.0], [[0.0]])
        with pytest.raises(ValidationError):
            prepare_pseudo_pure(cfg)


class TestRabiCalibration:
    @pytest.mark.parametrize("u_khz", [5.0, 12.5, 25.0])
    def test_t180_matches_inverse_drive(self, gemini, u_khz):
        u = u_khz * 1e3
        durations = np.linspace(0.0, 1.5 / u, 20)[1:]
        scan, t90, t180 = rabi_calibration(gemini, "1H", u, durations)
        assert t180 == pytest.approx(1 / (2 * u), rel=5e-3)
        assert t90 == pytest.approx(t180 / 2)

    def test_inversion_probability_at_t180(self, gemini):
        # an isolated check of the underlying nutation: at t180 the spin is inverted
        u = 12.5e3
        cfg = make_weak_config([0.0], [[0.0]], polarization=1.0)
        prog_events = (RfSegment((u,), (0.0,), 1 / (2 * u)),)
        from nmrqc.dynamics import PulseProgram
        from nmrqc.quantum import DensityMatrix

        rho = evolve_program(
            DensityMatrix.basis(1, 0), PulseProgram(system=cfg, events=prog_events)
        )
        assert rho.probabilities()["1"] == pytest.approx(1.0, abs=1e-12)

    def test_fitted_frequency_on_resonance(self, gemini):
        u = 12.5e3
        durations = np.linspace(0.0, 2.0 / u, 24)[1:]
        _, _, t180 = rabi_calibration(gemini, "1H", u, durations)
        fitted_freq = 1 / (2 * t180)
        assert fitted_freq == pytest.approx(u, rel=5e-3)

    @pytest.mark.parametrize("u, channel", [(12.5e3, "1H"), (8e3, "1H"), (20e3, "31P")])
    def test_fit_is_exact_across_the_kink_of_a_sample_on_a_zero(self, gemini, u, channel):
        # On resonance each line nutates at sqrt(u^2 + (J/2)^2), so the scan is exactly
        # A|sin(pi t / t180)|; the sample at t = 1/(2u) sits just past a zero and puts a
        # kink, with a false minimum behind it, at 1/(2u) in the residual.
        scan, _, t180 = rabi_calibration(gemini, channel, u, np.linspace(0.0, 2.0 / u, 17)[1:])
        assert t180 == pytest.approx(1 / (2 * np.hypot(u, 697.4 / 2)), rel=1e-10)
        assert scan.fit.residual <= 1e-11 * scan.fit.params["amplitude"]

    def test_zero_drive_fails(self, gemini):
        durations = np.linspace(1e-6, 1e-4, 12)
        with pytest.raises(FitError):
            rabi_calibration(gemini, "1H", 0.0, durations)

    def test_too_few_durations(self, gemini):
        with pytest.raises(ValidationError):
            rabi_calibration(gemini, "1H", 1e4, [1e-6, 2e-6, 3e-6])

    @pytest.mark.parametrize("u_khz, points, noise", [
        (5.0, 19, 0.0), (12.5, 16, 0.0), (20.0, 23, 0.05), (8.0, 40, 0.2),
    ])
    def test_period_guess_matches_candidate_loop(self, gemini, u_khz, points, noise):
        def loop_guess(x, y):
            span = float(np.max(x) - np.min(x))
            shortest = max(span / 20.0, 2.0 * float(np.median(np.diff(np.sort(x)))))
            candidates = np.linspace(shortest, 4.0 * span, 800)
            amp = float(np.max(np.abs(y)))
            best_p, best_sse = candidates[0], np.inf
            for period in candidates:
                sse = float(np.sum((amp * np.abs(np.sin(np.pi * x / period)) - y) ** 2))
                if sse < best_sse:
                    best_p, best_sse = period, sse
            return best_p

        u = u_khz * 1e3
        scan, _, _ = rabi_calibration(gemini, "1H", u, np.linspace(0.0, 2.0 / u, points + 1)[1:])
        y = scan.y * (1 + noise * np.random.default_rng(points).normal(size=points))
        assert _abs_sine_period_guess(scan.x, y) == loop_guess(scan.x, y)


T1_DELAYS = [20e-6, 50e-6, 100e-6, 200e-6, 400e-6, 1.2e-3, 4e-3, 12e-3,
             50e-3, 200e-3, 1.0, 4.0, 15.0]
T2_DELAYS = [2 * h for h in (10e-6, 20e-6, 40e-6, 80e-6, 160e-6, 500e-6, 1.5e-3,
                             5e-3, 20e-3, 80e-3, 320e-3, 1.5)]


class TestRelaxationExperiments:
    def test_t1_recovery(self, gemini):
        scan = relaxation_experiment(gemini, "1H", "T1", T1_DELAYS)
        assert scan.fit.params["tau"] == pytest.approx(4.0, rel=0.02)

    def test_t1_starts_fully_inverted(self, gemini):
        scan = relaxation_experiment(gemini, "1H", "T1", T1_DELAYS)
        amplitude = scan.fit.params["amplitude"]
        assert scan.y[0] == pytest.approx(-amplitude, rel=0.01)

    def test_t2_echo_decay(self, gemini):
        scan = relaxation_experiment(gemini, "1H", "T2", T2_DELAYS)
        assert scan.fit.params["tau"] == pytest.approx(0.2, rel=0.02)

    def test_t2_second_channel(self, gemini):
        scan = relaxation_experiment(gemini, "31P", "T2", T2_DELAYS)
        assert scan.fit.params["tau"] == pytest.approx(0.3, rel=0.02)

    def test_spin_echo_cancels_inhomogeneity(self, gemini):
        # static offset ensemble much broader than 1/T2 still returns true T2
        scan = relaxation_experiment(
            gemini, "1H", "T2", T2_DELAYS, offset_spread_hz=200.0, ensemble_points=11
        )
        assert scan.fit.params["tau"] == pytest.approx(0.2, rel=0.02)

    def test_inhomogeneity_kills_plain_fid(self, gemini):
        # without the echo the same ensemble dephases far faster than T2;
        # verified directly on the free-induction signal
        from nmrqc.dynamics import PulseProgram
        from nmrqc.control import _single_channel_pulse
        from nmrqc.experiments import _transverse
        from dataclasses import replace

        deltas = np.linspace(-200.0, 200.0, 11)
        t = 20e-3
        total = 0j
        for d in deltas:
            nuclei = tuple(
                replace(nuc, offset_hz=nuc.offset_hz + (d if k == 1 else 0.0))
                for k, nuc in enumerate(gemini.nuclei, start=1)
            )
            cfg = replace(gemini, nuclei=nuclei)
            prog = PulseProgram(
                system=cfg,
                events=(
                    _single_channel_pulse(cfg, "1H", 0.0, 1 / (4 * 12.5e3), 12.5e3),
                    Delay(t),
                ),
            )
            rho = evolve_program(thermal_state(cfg), prog, relaxation=True)
            total += _transverse(rho, cfg, "1H")
        ensemble = abs(total) / 11
        echo = np.exp(-t / 0.2) * gemini.nuclei[0].polarization
        assert ensemble < 0.2 * echo

    @pytest.mark.parametrize("scan, rows", [
        (lambda cfg: rabi_calibration(cfg, "1H", 12.5e3, np.linspace(0, 1.6e-4, 17)[1:]), [16]),
        # one row per distinct (machine, event): the 180, each delay and the 90
        (lambda cfg: relaxation_experiment(cfg, "1H", "T1", T1_DELAYS), [15]),
        # per offset machine: the 90, the 180 and each half delay, used twice
        (lambda cfg: relaxation_experiment(cfg, "31P", "T2", T2_DELAYS, offset_spread_hz=200.0,
                                           ensemble_points=11), [154]),
    ], ids=["rabi", "t1", "t2_ensemble11"])
    def test_one_propagator_call_per_scan_config(self, gemini, monkeypatch, scan, rows):
        stacks = []
        batched = _kernels.segment_propagators

        def counted(h_stack, dt):
            stacks.append(len(h_stack))
            return batched(h_stack, dt)

        monkeypatch.setattr(_kernels, "segment_propagators", counted)
        scan(gemini)
        assert stacks == rows

    @pytest.mark.parametrize("channel", ["1H", "31P"])
    def test_signal_contraction_matches_per_state_trace(self, gemini, channel):
        c = gemini.channel_index(channel)
        pulse = _single_channel_pulse(gemini, channel, 0.0, 1 / (4 * 12.5e3), 12.5e3)
        programs = [PulseProgram(gemini, (pulse, Delay(t))) for t in T2_DELAYS]
        states = evolve_programs(thermal_state(gemini), programs, relaxation=True)
        sx, sy = gemini._operators.sx[c], gemini._operators.sy[c]
        expected = np.array([np.real(np.trace(rho.matrix @ sx))
                             + 1j * np.real(np.trace(rho.matrix @ sy)) for rho in states])
        signal = _transverse(states, gemini, channel)
        assert np.max(np.abs(signal - expected)) <= 1e-15 * np.max(np.abs(expected))
        assert _transverse(states[3], gemini, channel) == signal[3]

    def test_scan_csv_header(self, gemini):
        scan = relaxation_experiment(gemini, "1H", "T1", T1_DELAYS)
        assert scan.csv_text().splitlines()[0] == "x,y,fit_y"

    @pytest.mark.parametrize("points", [0, 1, -3, 2.0, True])
    def test_ensemble_needs_two_members(self, gemini, points):
        with pytest.raises(ValidationError, match="ensemble_points must be an integer >= 2"):
            relaxation_experiment(gemini, "1H", "T2", T2_DELAYS, offset_spread_hz=200.0,
                                  ensemble_points=points)

    def test_ensemble_size_unused_without_spread(self, gemini):
        scan = relaxation_experiment(gemini, "1H", "T2", T2_DELAYS, ensemble_points=0)
        assert np.array_equal(scan.y, relaxation_experiment(gemini, "1H", "T2", T2_DELAYS).y)

    def test_bad_mode_and_short_scan(self, gemini):
        with pytest.raises(ValidationError):
            relaxation_experiment(gemini, "1H", "T0", T1_DELAYS)
        with pytest.raises(ValidationError):
            relaxation_experiment(gemini, "1H", "T1", [1e-3, 2e-3])
