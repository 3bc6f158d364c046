import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import make_weak_config, random_density_matrix
from nmrqc import _kernels, measurement
from nmrqc.errors import UnresolvedPeaksError, ValidationError
from nmrqc.measurement import (
    MAX_FID_SAMPLES,
    FIDSignal,
    readout_peak_table,
    spectrum_of,
    synthesize_fid,
    tomography,
)
from nmrqc.quantum import (
    SIGMA_X,
    SIGMA_Y,
    DensityMatrix,
    all_pauli_strings,
    embed,
    pauli_expand,
    pauli_reconstruct,
)
from nmrqc.spinsys import internal_hamiltonian, preset

PHI_MINUS_MATRIX = 0.5 * np.array(
    [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
)


def offset_config(nu1=120.0, nu2=-80.0, j=40.0, t2=5.0):
    return make_weak_config([nu1, nu2], [[0.0, j], [j, 0.0]], t2=t2)


def largest_bins(fid, k):
    """Frequencies and amplitudes of the k largest-magnitude bins of the spectrum of fid."""
    spec = spectrum_of(fid)
    top = np.argsort(np.abs(spec.amplitudes))[-k:]
    return spec.frequencies_hz[top], spec.amplitudes[top]


def single_transverse(strings):
    return {s for s in strings if sum(c in "XY" for c in s) == 1}


def weak3_config():
    return make_weak_config([0.0, 0.0, 0.0], [[0, 140, 48], [140, 0, 190], [48, 190, 0]],
                            labels=["1H", "13C", "15N"])


def drawn_machine(n, offsets, couplings, t2, homonuclear, coupling_model="weak"):
    """A machine with offsets and couplings drawn in units of 1/T2, so a short T2 leaves
    the lines unresolved no more often than a long one."""
    j = np.zeros((n, n))
    for (a, b), value in zip(itertools.combinations(range(n), 2), couplings):
        j[a, b] = j[b, a] = value / t2
    labels = ["1H"] * n if homonuclear else [f"S{i}" for i in range(n)]
    cfg = make_weak_config([o / t2 for o in offsets[:n]], j, t1=20.0, t2=t2, labels=labels)
    return replace(cfg, coupling_model=coupling_model)


MACHINE_DRAWS = dict(
    n=st.sampled_from((3, 2, 1)),
    offsets=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
    couplings=st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3),
    t2=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
    homonuclear=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def eigen_sum_fid(rho, cfg, channel, duration_s, dt_s):
    """The FID as the sum over every pair of H0's eigenstates a, b of
    rho_e[a, b] D_e[b, a] exp(-i (w_a - w_b) t), times exp(-t / T2)."""
    w, v = np.linalg.eigh(internal_hamiltonian(cfg))
    members = cfg.channel_members(channel)
    detect = sum(embed(SIGMA_X + 1j * SIGMA_Y, (k,), cfg.n) for k in members)
    rho_e, detect_e = (v.conj().T @ m @ v for m in (rho.matrix, detect))
    t = np.arange(round(duration_s / dt_s)) * dt_s
    phases = np.exp(-1j * np.subtract.outer(w, w)[..., np.newaxis] * t)
    signal = np.einsum("ab,ba,abt->t", rho_e, detect_e, phases)
    return signal * np.exp(-t / min(cfg.nuclei[k - 1].t2_s for k in members))


def plus_state(n=1, qubit=1):
    coeffs = {"I" * n: 1.0}
    label = ["I"] * n
    label[qubit - 1] = "X"
    coeffs["".join(label)] = 1.0
    return pauli_reconstruct(coeffs)


class TestSynthesizeFid:
    def test_plus_state_on_resonance_is_constant(self):
        cfg = make_weak_config([0.0], [[0.0]], t1=1e9, t2=1e9)
        fid = synthesize_fid(plus_state(), cfg, "S0", 0.01, 1e-4)
        assert np.max(np.abs(fid.samples - 1.0)) < 1e-9

    def test_the_state_is_of_the_machine_size(self):
        with pytest.raises(ValidationError, match="^state has 3 qubits, machine has 2$"):
            synthesize_fid(DensityMatrix.basis(3, 0), preset("gemini"), "1H", 0.01, 1e-4)

    def test_ground_state_is_silent(self):
        cfg = make_weak_config([0.0], [[0.0]])
        fid = synthesize_fid(DensityMatrix.basis(1, 0), cfg, "S0", 0.01, 1e-4)
        assert np.max(np.abs(fid.samples)) < 1e-12

    def test_offset_oscillation_at_three_times(self):
        nu = 55.0
        cfg = make_weak_config([nu], [[0.0]], t1=1e9, t2=1e9)
        dt = 1e-3
        fid = synthesize_fid(plus_state(), cfg, "S0", 5 * dt, dt)
        for m in (1, 2, 3):
            assert fid.samples[m] == pytest.approx(np.exp(1j * 2 * np.pi * nu * m * dt),
                                                   abs=1e-9)

    def test_decay_envelope(self):
        t2 = 0.05
        cfg = make_weak_config([0.0], [[0.0]], t2=t2)
        fid = synthesize_fid(plus_state(), cfg, "S0", 0.2, 1e-3)
        assert np.allclose(np.abs(fid.samples), np.exp(-fid.times_s / t2), atol=1e-9)

    def test_only_single_transverse_strings_radiate(self):
        cfg = offset_config()
        quiet = [
            s for s in all_pauli_strings(2)
            if sum(c in "XY" for c in s) != 1 and s != "II"
        ]
        for label in quiet:
            rho = pauli_reconstruct({"II": 1.0, label: 0.4})
            for channel in cfg.channels:
                fid = synthesize_fid(rho, cfg, channel, 1e-2, 1e-4)
                assert np.max(np.abs(fid.samples)) < 1e-10, label

    def test_unknown_channel(self, gemini):
        with pytest.raises(ValidationError):
            synthesize_fid(DensityMatrix.basis(2, 0), gemini, "13C", 1e-3, 1e-5)

    @pytest.mark.parametrize("duration_s, dt_s", [
        (0.01, 0.0), (np.inf, 1e-4), (np.nan, 1e-4), (0.01, np.nan),
    ], ids=["dt_0", "duration_inf", "duration_nan", "dt_nan"])
    def test_bad_sampling_rejected(self, duration_s, dt_s):
        cfg = make_weak_config([0.0], [[0.0]])
        with pytest.raises(ValidationError, match="finite"):
            synthesize_fid(plus_state(), cfg, "S0", duration_s, dt_s)

    @pytest.mark.parametrize("duration_s, dt_s", [
        (1e308, 1e-300), (1.0, 1e-300), (MAX_FID_SAMPLES + 1.0, 1.0),
    ], ids=["ratio_overflow", "ratio_huge", "one_sample_over"])
    def test_sample_count_bounded(self, duration_s, dt_s):
        cfg = make_weak_config([0.0], [[0.0]])
        with pytest.raises(ValidationError, match=f"2 to {MAX_FID_SAMPLES} samples"):
            synthesize_fid(plus_state(), cfg, "S0", duration_s, dt_s)

    def test_largest_fid(self):
        cfg = make_weak_config([0.0], [[0.0]])
        fid = synthesize_fid(plus_state(), cfg, "S0", MAX_FID_SAMPLES * 1e-4, 1e-4)
        assert fid.samples.size == MAX_FID_SAMPLES

    def test_h0_diagonalized_only_on_isotropic_machines(self, monkeypatch):
        # a weak machine reads its lines in the computational basis; an isotropic one in
        # H0's eigenbasis, built on first use and cached, read-only, on the config
        eigh, diagonalized = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: diagonalized.append(a) or eigh(a))
        measurement._line_table.cache_clear()  # else an equal machine's lines may be cached
        for cfg in (offset_config(), preset("triangulum")):
            rho = random_density_matrix(np.random.default_rng(59), cfg.n)
            for _ in range(2):
                synthesize_fid(rho, cfg, cfg.channels[0], 1e-2, 1e-4)
                readout_peak_table(rho, cfg)
                tomography(rho, cfg)
            h0 = internal_hamiltonian(cfg)
            builds = sum(a is h0 for a in diagonalized)
            assert builds == (0 if cfg.coupling_model == "weak" else 1)
            assert ("_h0_eigh" in vars(cfg)) == (cfg.coupling_model == "isotropic")
        w, v = cfg._h0_eigh
        reference = eigh(h0)
        assert np.array_equal(w, reference[0]) and np.array_equal(v, reference[1])
        for arr in (w, v):
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    @settings(max_examples=40)
    @example(n=3, offsets=[720.0, -1080.0, -2160.0], couplings=[27.86, 18.924, -51.328],
             t2=0.4, homonuclear=True, seed=3)  # triangulum
    @given(**MACHINE_DRAWS)
    def test_isotropic_fid_is_the_eigen_sum(self, n, offsets, couplings, t2, homonuclear,
                                            seed):
        cfg = drawn_machine(n, offsets, couplings, t2, homonuclear, "isotropic")
        rho = random_density_matrix(np.random.default_rng(seed), n)
        dt = 0.01 * t2
        for channel in cfg.channels:
            fid = synthesize_fid(rho, cfg, channel, 1000 * dt, dt)
            reference = eigen_sum_fid(rho, cfg, channel, 1000 * dt, dt)
            assert np.max(np.abs(fid.samples - reference)) <= 1e-12


class TestSpectrum:
    def test_parseval(self):
        rng = np.random.default_rng(51)
        samples = rng.normal(size=256) + 1j * rng.normal(size=256)
        fid = FIDSignal("S0", samples, 1e-4)
        spec = spectrum_of(fid)
        assert np.sum(np.abs(samples) ** 2) == pytest.approx(
            float(np.sum(np.abs(spec.amplitudes) ** 2)), rel=1e-9
        )

    def test_single_tone_peak_position(self):
        nu, t2 = 200.0, 0.02
        dt = 1e-4
        t = np.arange(512) * dt
        fid = FIDSignal("S0", np.exp(2j * np.pi * nu * t) * np.exp(-t / t2), dt)
        (found,), _ = largest_bins(fid, 1)
        bin_hz = 1.0 / (512 * dt)
        assert abs(found - nu) <= bin_hz

    def test_two_tone_amplitude_ratio(self):
        # equal-weight tones at nu +- J/2 with a shared decay envelope
        nu, j, t2, dt = 0.0, 100.0, 0.5, 1e-3
        t = np.arange(1024) * dt
        s = 0.5 * (np.exp(2j * np.pi * (nu + j / 2) * t) + np.exp(2j * np.pi * (nu - j / 2) * t))
        fid = FIDSignal("S0", s * np.exp(-t / t2), dt)
        freqs, amps = largest_bins(fid, 2)
        bin_hz = 1.0 / (1024 * dt)
        assert np.max(np.abs(np.sort(freqs) - [nu - j / 2, nu + j / 2])) <= bin_hz
        ratio = abs(amps[0]) / abs(amps[1])
        assert ratio == pytest.approx(1.0, abs=0.01)

    def test_weak_two_spin_line_positions(self):
        nu1, nu2, j = 120.0, -80.0, 40.0
        cfg = offset_config(nu1, nu2, j)
        for channel, nu in (("S0", nu1), ("S1", nu2)):
            fid = synthesize_fid(plus_state(2, 1 if channel == "S0" else 2), cfg,
                                 channel, 0.5, 2e-4)
            found = sorted(largest_bins(fid, 2)[0])
            bin_hz = 1.0 / 0.5
            expected = sorted([nu - j / 2, nu + j / 2])
            for f, e in zip(found, expected):
                assert abs(f - e) <= bin_hz


class TestPeakReadout:
    def test_pure_x_deviation_two_equal_peaks(self):
        cfg = offset_config()
        rho = pauli_reconstruct({"II": 1.0, "XI": 1.0})
        peaks = readout_peak_table(rho, cfg)["S0"]
        assert len(peaks) == 2
        for p in peaks:
            assert p.amplitude == pytest.approx(1.0, abs=1e-9)
        co = pauli_expand(tomography(rho, cfg))
        assert co["XI"] == pytest.approx(1.0, abs=1e-9)
        assert co["XZ"] == pytest.approx(0.0, abs=1e-9)

    def test_single_peak_cancellation(self):
        # equal x and xz deviations cancel one of the two lines entirely
        # (scaled to keep the state positive; the pattern is scale-free)
        cfg = offset_config()
        rho = pauli_reconstruct({"II": 1.0, "XI": 0.4, "XZ": 0.4})
        peaks = readout_peak_table(rho, cfg)["S0"]
        amps = sorted(abs(p.amplitude) for p in peaks)
        assert amps[0] == pytest.approx(0.0, abs=1e-9)
        assert amps[1] == pytest.approx(0.8, abs=1e-9)
        co = pauli_expand(tomography(rho, cfg))
        assert co["XI"] == pytest.approx(0.4, abs=1e-9)
        assert co["XZ"] == pytest.approx(0.4, abs=1e-9)

    def test_fractional_pattern(self):
        # x and xz in ratio 0.5 : 1.0 give the 1.5 / -0.5 peak pattern
        cfg = offset_config()
        scale = 0.4
        rho = pauli_reconstruct({"II": 1.0, "XI": 0.5 * scale, "XZ": 1.0 * scale})
        peaks = readout_peak_table(rho, cfg)["S0"]
        values = sorted(p.amplitude.real / scale for p in peaks)
        assert values[0] == pytest.approx(-0.5, rel=0.01)
        assert values[1] == pytest.approx(1.5, rel=0.01)
        co = pauli_expand(tomography(rho, cfg))
        assert co["XI"] == pytest.approx(0.5 * scale, abs=1e-9)
        assert co["XZ"] == pytest.approx(1.0 * scale, abs=1e-9)

    def test_y_coefficients_in_imaginary_part(self):
        cfg = offset_config()
        rho = pauli_reconstruct({"II": 1.0, "YI": 0.6, "YZ": -0.2})
        co = pauli_expand(tomography(rho, cfg))
        assert co["YI"] == pytest.approx(0.6, abs=1e-9)
        assert co["YZ"] == pytest.approx(-0.2, abs=1e-9)
        assert co["XI"] == pytest.approx(0.0, abs=1e-9)

    def test_unresolved_peaks_error(self):
        # homonuclear pair 1 Hz apart: lines collide within 3 linewidths
        cfg = make_weak_config([0.0, 1.0], [[0.0, 50.0], [50.0, 0.0]], t2=0.2,
                               labels=["19F", "19F"])
        rho = pauli_reconstruct({"II": 1.0, "XI": 0.5})
        with pytest.raises(UnresolvedPeaksError):
            readout_peak_table(rho, cfg)

    @pytest.mark.parametrize("cfg, duration_s, n_samples", [
        (make_weak_config([150.0, -40.0, 300.0],
                          [[0.0, 30.0, 12.0], [30.0, 0.0, 18.0], [12.0, 18.0, 0.0]],
                          t2=0.5, labels=["A", "B", "A"]), 1.0, 1024),
        (preset("gemini"), 10.0, 8192),
    ], ids=["integer_hz_3spin", "gemini"])
    def test_amplitudes_equal_fid_spectrum(self, cfg, duration_s, n_samples):
        # Every line completes a whole number of periods in duration_s, so the
        # spectrum of the FID with its decay divided out has each line on one bin.
        rho = random_density_matrix(np.random.default_rng(56), cfg.n)
        scale = 2 ** (cfg.n - 1) / np.sqrt(n_samples)
        for channel, peaks in readout_peak_table(rho, cfg).items():
            fid = synthesize_fid(rho, cfg, channel, duration_s, duration_s / n_samples)
            t2 = min(cfg.nuclei[k - 1].t2_s for k in cfg.channel_members(channel))
            spec = spectrum_of(FIDSignal(channel, fid.samples * np.exp(fid.times_s / t2),
                                         fid.dt_s))
            for p in peaks:
                i = int(np.argmin(np.abs(spec.frequencies_hz - p.frequency_hz)))
                assert spec.frequencies_hz[i] == pytest.approx(p.frequency_hz, abs=1e-9)
                assert abs(p.amplitude - scale * spec.amplitudes[i]) <= 1e-12

    def test_state_size_must_match_machine(self, gemini):
        with pytest.raises(ValidationError, match="machine has 2"):
            readout_peak_table(DensityMatrix.basis(1, 0), gemini)

    def test_recovers_all_single_transverse_coefficients(self, gemini):
        rng = np.random.default_rng(52)
        rho = random_density_matrix(rng, 2)
        exact = pauli_expand(rho)
        measured = pauli_expand(tomography(rho, gemini))
        for key in single_transverse(all_pauli_strings(2)):
            assert measured[key] == pytest.approx(exact[key], abs=1e-10)


class TestTomography:
    def test_basis_state(self, gemini):
        rho = DensityMatrix.basis(2, 0)
        recon = tomography(rho, gemini)
        assert np.max(np.abs(recon.matrix - rho.matrix)) < 1e-8

    def test_bell_state_matrix(self, gemini):
        rho = DensityMatrix(PHI_MINUS_MATRIX)
        recon = tomography(rho, gemini)
        assert np.max(np.abs(recon.matrix - PHI_MINUS_MATRIX)) < 1e-8

    def test_random_roundtrip(self, gemini):
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(50):
            rho = random_density_matrix(rng, 2)
            recon = tomography(rho, gemini)
            worst = max(worst, float(np.max(np.abs(recon.matrix - rho.matrix))))
        assert worst < 1e-8

    def test_three_qubit_roundtrip(self):
        cfg = make_weak_config(
            [150.0, -40.0, 300.0],
            [[0.0, 30.0, 12.0], [30.0, 0.0, 18.0], [12.0, 18.0, 0.0]],
            t1=20.0, t2=20.0,
        )
        rng = np.random.default_rng(54)
        rho = random_density_matrix(rng, 3)
        recon = tomography(rho, cfg)
        assert np.max(np.abs(recon.matrix - rho.matrix)) < 1e-8

    @settings(max_examples=100)
    # T2 = 1 ms: offsets of 1 and 3 Hz with J = 2000 Hz, and a resolved three-spin machine
    @example(n=2, offsets=[0.001, 0.003, 0.0], couplings=[2.0, 0.0, 0.0], t2=1e-3,
             homonuclear=False, seed=1)
    @example(n=3, offsets=[0.1234567, -0.7654321, 0.3141592], couplings=[3.3, 7.7, 12.1],
             t2=1e-3, homonuclear=False, seed=2)
    @given(**MACHINE_DRAWS)
    def test_roundtrip_on_weak_machines(self, n, offsets, couplings, t2, homonuclear, seed):
        cfg = drawn_machine(n, offsets, couplings, t2, homonuclear)
        rho = random_density_matrix(np.random.default_rng(seed), n)
        try:
            recon = tomography(rho, cfg)
        except UnresolvedPeaksError:
            reject()
        assert np.max(np.abs(recon.matrix - rho.matrix)) <= 1e-8
        # every single-transverse-factor string, which the identity setting reads directly
        exact, measured = pauli_expand(rho), pauli_expand(recon)
        assert max(abs(measured[s] - exact[s]) for s in single_transverse(exact)) <= 1e-12

    @settings(max_examples=100)
    @example(n=3, offsets=[720.0, -1080.0, -2160.0], couplings=[27.86, 18.924, -51.328],
             t2=0.4, homonuclear=True, seed=3)  # triangulum
    @given(**MACHINE_DRAWS)
    def test_roundtrip_on_isotropic_machines(self, n, offsets, couplings, t2, homonuclear,
                                             seed):
        # lines in H0's eigenbasis; lines closer than 3 linewidths reject the draw
        cfg = drawn_machine(n, offsets, couplings, t2, homonuclear, "isotropic")
        rho = random_density_matrix(np.random.default_rng(seed), n)
        try:
            recon = tomography(rho, cfg)
        except UnresolvedPeaksError:
            reject()
        assert np.max(np.abs(recon.matrix - rho.matrix)) <= 1e-8

    @pytest.mark.parametrize("machine,compiled", [("gemini", False), ("gemini", True),
                                                  ("triangulum", False)])
    def test_each_row_of_a_stack_reconstructs_as_alone(self, request, machine, compiled):
        cfg = request.getfixturevalue(machine)
        rng = np.random.default_rng(63)
        stack = np.array([random_density_matrix(rng, cfg.n).matrix for _ in range(5)])
        recons, _, _, readings = measurement._reconstruct(stack, cfg, compiled)
        assert len(recons) == 5 and readings.shape[0] == 5
        for recon, row_readings, row in zip(recons, readings, stack):
            (alone,), _, _, (alone_readings,) = measurement._reconstruct(row[np.newaxis], cfg,
                                                                         compiled)
            assert recon.matrix.tobytes() == alone.matrix.tobytes()
            assert row_readings.tobytes() == alone_readings.tobytes()
            assert recon.matrix.tobytes() == tomography(DensityMatrix(row), cfg,
                                                        compiled).matrix.tobytes()

    def test_reads_no_fid(self, gemini, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("readout synthesized an FID or ran an FFT")

        monkeypatch.setattr(measurement, "synthesize_fid", forbidden)
        monkeypatch.setattr(np.fft, "fft", forbidden)
        rho = random_density_matrix(np.random.default_rng(57), 2)
        assert np.max(np.abs(tomography(rho, gemini).matrix - rho.matrix)) < 1e-8

    def test_config_work_done_once_per_sweep(self, monkeypatch):
        machines = [
            make_weak_config([30.0, -20.0, 5.0], [[0, 140, 48], [140, 0, 190], [48, 190, 0]],
                             labels=["1H", "13C", "15N"]),
            make_weak_config([150.0, -40.0, 300.0], [[0, 30, 12], [30, 0, 18], [12, 18, 0]],
                             t1=20.0, t2=20.0, labels=["A", "B", "A"]),
        ]
        calls = {"circuit_unitary": 0, "_line_table": 0, "_inverse": 0}

        def counting(name):
            original = getattr(measurement, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(measurement, name, counting(name))
        measurement._readout.cache_clear()
        measurement._readout_lines.cache_clear()
        rng = np.random.default_rng(58)
        for cfg in machines:
            for _ in range(2):
                rho = random_density_matrix(rng, 3)
                assert np.max(np.abs(tomography(rho, cfg).matrix - rho.matrix)) < 1e-8
        # 27 ideal readouts and one inverse map for n = 3, whatever the machine; lines
        # listed and checked once per machine
        assert calls == {"circuit_unitary": 27, "_line_table": 2, "_inverse": 1}
        lines = measurement._line_table(machines[0])
        us, inverse = measurement._readout(3, lines.rows, lines.cols, (2.0,) * 12, None)
        assert not us.flags.writeable
        assert not inverse.flags.writeable

    def test_isotropic_inverse_built_once_per_readout_basis(self, triangulum, monkeypatch):
        calls = []
        original = measurement._inverse
        monkeypatch.setattr(measurement, "_inverse", lambda a: calls.append(1) or original(a))
        measurement._readout.cache_clear()
        shifted = replace(triangulum, j_hz=triangulum.j_hz * 1.5)  # another eigenbasis
        rng = np.random.default_rng(60)
        for cfg, built in ((triangulum, 1), (triangulum, 1), (shifted, 2), (triangulum, 2)):
            rho = random_density_matrix(rng, 3)
            assert np.max(np.abs(tomography(rho, cfg).matrix - rho.matrix)) < 1e-8
            assert len(calls) == built
        # the cached inverse has the bits of the map built from the machine's own basis
        lines = measurement._line_table(triangulum)
        key = (3, lines.rows, lines.cols, tuple(lines.weights.tolist()), lines.basis.tobytes())
        us, inverse = measurement._readout(*key)
        rebuilt = original(measurement._readout_map(us, lines))
        assert inverse.tobytes() == rebuilt.tobytes()

    def test_a_repeated_compiled_readout_is_cached(self, gemini, monkeypatch):
        rho = random_density_matrix(np.random.default_rng(61), 2)
        measurement._readout.cache_clear()
        first = measurement.tomography_sweep(rho, gemini, compiled_readout=True)
        calls = []
        batched = _kernels.segment_propagators
        monkeypatch.setattr(_kernels, "segment_propagators",
                            lambda *args: calls.append(1) or batched(*args))
        again = measurement.tomography_sweep(rho, gemini, compiled_readout=True)
        assert calls == []
        assert again[0].matrix.tobytes() == first[0].matrix.tobytes() and again[1] == first[1]
        # an equal config built anew shares the entry; another amplitude gets its own
        tomography(rho, preset("gemini"), compiled_readout=True)
        assert calls == []
        tomography(rho, gemini, compiled_readout=True, pulse_amp_hz=1e5)
        assert calls

    @pytest.mark.parametrize("machine", ["gemini", "triangulum"])
    def test_line_table_is_read_only_and_shared_by_equal_configs(self, machine):
        a, b = preset(machine), preset(machine)
        assert a is not b
        table = measurement._line_table(a)
        assert measurement._line_table(b) is table
        assert not table.weights.flags.writeable
        assert table.basis is None or not table.basis.flags.writeable

    def test_undetermined_coefficients_rejected(self, gemini):
        # the identity setting alone sees only the single-transverse-factor strings
        lines = measurement._line_table(gemini)
        with pytest.raises(ValidationError, match="does not determine"):
            measurement._inverse(measurement._readout_map(np.eye(4)[None], lines))

    def test_compiled_readout_pulses(self, gemini):
        # the reconstruction inverts the compiled readout it applied
        rng = np.random.default_rng(55)
        for cfg in (gemini, weak3_config()):
            rho = random_density_matrix(rng, cfg.n)
            recon = tomography(rho, cfg, compiled_readout=True)
            assert np.max(np.abs(recon.matrix - rho.matrix)) < 1e-12, cfg.n

    def test_oversized_register_rejected(self):
        cfg = make_weak_config([1.0, 2.0, 3.0, 4.0], np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            tomography(DensityMatrix(np.eye(16) / 16), cfg)
