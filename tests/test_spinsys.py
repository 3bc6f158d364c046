import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_weak_config
from nmrqc import spinsys
from nmrqc.errors import ValidationError
from nmrqc.quantum import SIGMA_X, SIGMA_Y, SIGMA_Z, embed
from nmrqc.spinsys import (
    COUPLING_MODELS,
    NucleusSpec,
    SpinSystemConfig,
    control_operators,
    internal_hamiltonian,
    load_machine_config,
    preset,
    rf_hamiltonian,
    thermal_state,
)


class TestConfigLoading:
    def test_gemini_preset(self, gemini):
        assert gemini.n == 2
        assert gemini.j_hz[0, 1] == pytest.approx(697.4)
        assert gemini.coupling_model == "weak"
        assert gemini.channels == ("1H", "31P")

    def test_triangulum_preset(self, triangulum):
        assert triangulum.n == 3
        assert triangulum.coupling_model == "isotropic"
        assert triangulum.channels == ("19F",)
        assert triangulum.channel_members("19F") == (1, 2, 3)

    @pytest.mark.parametrize("n", [0, 7])
    def test_a_machine_has_1_to_6_nuclei(self, n):
        nuclei = (NucleusSpec("1H", 0.0, 4.0, 0.2, 0.0),) * n
        with pytest.raises(ValidationError, match=f"^nuclei count {n} outside 1..6$"):
            SpinSystemConfig("m", nuclei, np.zeros((n, n)))

    def test_asymmetric_j_rejected(self, tmp_path):
        cfg = preset("gemini").to_json_dict()
        cfg["j_hz"][0][1] = 600.0
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        with pytest.raises(ValidationError, match="j_hz"):
            load_machine_config(p)

    def test_three_nucleus_isotropic_accepted(self, tmp_path):
        cfg = preset("triangulum").to_json_dict()
        p = tmp_path / "tri.json"
        p.write_text(json.dumps(cfg))
        assert load_machine_config(p).n == 3

    def test_an_unknown_field_is_rejected(self, tmp_path):
        cfg = json.loads((Path(spinsys.__file__).parent / "presets" / "triangulum.json").read_text())
        assert "_note" in cfg  # a "_" key is a note: the preset loads
        cfg["coupling_modle"] = cfg.pop("coupling_model")  # would load as a weak machine
        p = tmp_path / "tri.json"
        p.write_text(json.dumps(cfg))
        with pytest.raises(ValidationError) as exc:
            load_machine_config(p)
        assert str(exc.value) == f"{p}: machine config: unknown field 'coupling_modle'"

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"name": "x",\n  "nuclei": [}')
        with pytest.raises(ValidationError, match="line 2"):
            load_machine_config(p)

    def test_nonpositive_relaxation_rejected(self):
        with pytest.raises(ValidationError, match="t1_s"):
            NucleusSpec("1H", 0.0, -1.0, 0.2, 1e-5)

    def test_t2_beyond_twice_t1_rejected(self):
        assert NucleusSpec("1H", 0.0, 1.0, 2.0, 1e-5).t2_s == 2.0
        with pytest.raises(ValidationError, match=r"t2_s must be <= 2 \* t1_s"):
            NucleusSpec("1H", 0.0, 1.0, 5.0, 1e-5)

    @pytest.mark.parametrize("value", [1e308, -1e308])
    @pytest.mark.parametrize("field", ["offset", "j"])
    def test_rad_s_overflow_rejected(self, field, value):
        offsets, j = [0.0, 0.0], [[0.0, 100.0], [100.0, 0.0]]
        if field == "offset":
            offsets[1] = value
        else:
            j[0][1] = j[1][0] = value
        with pytest.raises(ValidationError, match="finite in rad/s"):
            make_weak_config(offsets, j)

    @pytest.mark.parametrize("field", ["offset_hz", "t1_s", "t2_s", "polarization"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_nucleus_rejected(self, field, value):
        values = {"offset_hz": 0.0, "t1_s": 1.0, "t2_s": 0.5, "polarization": 1e-5}
        values[field] = value
        with pytest.raises(ValidationError, match="finite"):
            NucleusSpec("1H", **values)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="diagonal"):
            make_weak_config([0.0, 0.0], [[1.0, 5.0], [5.0, 0.0]])


class TestPresets:
    @pytest.mark.parametrize("name", ["nope", "../gemini", "../presets/gemini", "GEMINI", ""])
    def test_an_unknown_name_reads_no_file(self, monkeypatch, name):
        def forbidden(*args):
            raise AssertionError("an unknown preset name was read as a file")

        monkeypatch.setattr(spinsys, "_read_json", forbidden)
        with pytest.raises(ValidationError, match="unknown preset"):
            preset(name)

    def test_the_preset_list_is_the_preset_files(self):
        files = sorted(p.stem for p in (Path(spinsys.__file__).parent / "presets").glob("*.json"))
        assert sorted(spinsys.PRESETS) == files
        for name in spinsys.PRESETS:
            assert isinstance(preset(name), SpinSystemConfig)


class TestConfigEquality:
    def test_equal_presets_are_equal_and_hash_alike(self):
        a, b = preset("gemini"), preset("gemini")
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, preset("triangulum")}) == 2
        assert a != preset("triangulum") and a != a.to_json_dict()

    @pytest.mark.parametrize("change", [
        lambda cfg: replace(cfg, name="other"),
        lambda cfg: replace(cfg, j_hz=cfg.j_hz + np.array([[0.0, 1.0], [1.0, 0.0]])),
        lambda cfg: replace(cfg, nuclei=(replace(cfg.nuclei[0], offset_hz=1.0), cfg.nuclei[1])),
        lambda cfg: replace(cfg, coupling_model="isotropic"),
    ], ids=["name", "j", "offset", "coupling_model"])
    def test_a_changed_field_makes_them_unequal(self, change):
        assert change(preset("gemini")) != preset("gemini")

    def test_signed_zeros_in_j_are_equal(self):
        j = np.zeros((2, 2))
        j[0, 1] = j[1, 0] = -0.0
        plain = make_weak_config([0.0, 0.0], np.zeros((2, 2)))
        signed = make_weak_config([0.0, 0.0], j)
        assert plain == signed and hash(plain) == hash(signed)

    def test_programs_on_equal_configs_are_equal(self):
        from nmrqc.control import Circuit, Gate, compile_circuit

        circuit = Circuit(2, (Gate("H", (1,)), Gate("CNOT", (1, 2))))
        a, b = (compile_circuit(circuit, preset("gemini")) for _ in range(2))
        assert a.system is not b.system and a == b and hash(a) == hash(b)


class TestInternalHamiltonian:
    def test_a_sum_past_the_float_range_is_rejected(self):
        # each offset is finite in rad/s, but H0[0, 0], half their sum, is not
        cfg = make_weak_config([2.5e307] * 3, np.zeros((3, 3)))
        with pytest.raises(ValidationError, match=r"^test: internal Hamiltonian \(rad/s\) is not "
                                                  "finite$"):
            internal_hamiltonian(cfg)

    def test_gemini_weak_diagonal(self, gemini):
        h = internal_hamiltonian(gemini)
        expected = 2 * np.pi * 697.4 / 4 * np.diag([1.0, -1.0, -1.0, 1.0])
        assert np.max(np.abs(h - expected)) < 1e-9

    def test_single_nucleus_gap(self):
        cfg = make_weak_config([123.0], [[0.0]])
        h = internal_hamiltonian(cfg)
        w = np.linalg.eigvalsh(h)
        assert w[1] - w[0] == pytest.approx(2 * np.pi * 123.0, rel=1e-12)

    def test_isotropic_two_spin_spectrum(self):
        # 2 pi J (I.I) has a triplet at pi J / 2 and a singlet at -3 pi J / 2
        j = 50.0
        cfg = SpinSystemConfig(
            name="iso",
            nuclei=tuple(
                NucleusSpec("19F", 0.0, 1.0, 0.5, 1e-5) for _ in range(2)
            ),
            j_hz=np.array([[0.0, j], [j, 0.0]]),
            coupling_model="isotropic",
        )
        w = np.sort(np.linalg.eigvalsh(internal_hamiltonian(cfg)))
        assert w[0] == pytest.approx(-3 * np.pi * j / 2, rel=1e-12)
        assert np.allclose(w[1:], np.pi * j / 2)

    def test_weak_model_conserves_total_z(self):
        cfg = make_weak_config([100.0, -50.0, 30.0],
                               [[0, 10, 5], [10, 0, 20], [5, 20, 0]])
        h = internal_hamiltonian(cfg)
        total_z = sum(embed(SIGMA_Z, (k,), 3) for k in (1, 2, 3))
        assert np.max(np.abs(h @ total_z - total_z @ h)) < 1e-10

    def test_weak_model_is_diagonal(self, gemini):
        h = internal_hamiltonian(gemini)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0

    def test_transition_frequencies_split_by_j(self):
        nu1, nu2, j = 400.0, -150.0, 40.0
        cfg = make_weak_config([nu1, nu2], [[0.0, j], [j, 0.0]])
        h = np.real(np.diag(internal_hamiltonian(cfg))) / (2 * np.pi)
        # single-flip transitions of spin 1: |0b> <-> |1b>
        f_partner0 = h[0] - h[2]
        f_partner1 = h[1] - h[3]
        assert sorted([f_partner0, f_partner1]) == pytest.approx(
            sorted([nu1 + j / 2, nu1 - j / 2])
        )


class TestRfHamiltonian:
    def test_single_qubit_x_drive(self):
        cfg = make_weak_config([0.0], [[0.0]])
        h = rf_hamiltonian(cfg, [100.0], [0.0])
        assert np.max(np.abs(h - np.pi * 100.0 * SIGMA_X)) < 1e-9

    def test_homonuclear_channel_drives_all(self, triangulum):
        u = 250.0
        h = rf_hamiltonian(triangulum, [u], [np.pi / 2])
        expected = sum(
            2 * np.pi * u * embed(SIGMA_Y / 2, (k,), 3) for k in (1, 2, 3)
        )
        assert np.max(np.abs(h - expected)) < 1e-9

    def test_zero_amplitude(self, gemini):
        assert np.max(np.abs(rf_hamiltonian(gemini, [0.0, 0.0], [0.3, 1.1]))) == 0.0

    def test_channel_count_mismatch(self, gemini):
        with pytest.raises(ValidationError):
            rf_hamiltonian(gemini, [100.0], [0.0])

    def test_traceless_hermitian(self, gemini):
        h = rf_hamiltonian(gemini, [123.0, 77.0], [0.4, 2.1])
        assert abs(np.trace(h)) < 1e-9
        assert np.max(np.abs(h - h.conj().T)) < 1e-10

    @settings(max_examples=60)
    @given(machine=st.sampled_from(["gemini", "triangulum"]), data=st.data())
    def test_drive_contraction_has_tensordots_bits(self, machine, data):
        # np.tensordot is the reference GRAPE's tests build their Hamiltonians with
        controls = preset(machine)._operators.controls
        rows = data.draw(st.integers(0, 24))
        drive = data.draw(arrays(float, (rows, len(controls)), elements=st.floats(-1e7, 1e7)))
        expected = np.tensordot(drive, controls, axes=(1, 0))
        assert spinsys._drive_hamiltonian(controls, drive).tobytes() == expected.tobytes()


class TestRfDrive:
    @pytest.mark.parametrize("rows", [0, 1, 2, 7, 40])
    def test_rows_are_single_pairs(self, gemini, rows):
        rng = np.random.default_rng(70 + rows)
        u = rng.uniform(0.0, 2e4, (rows, 2))
        phi = rng.choice([0.0, np.pi / 2, np.pi, -np.pi / 2, 1.3, -4.1], (rows, 2))
        # the engine builds H_rf once per distinct event row: each must be a 1-D call's bits
        h = rf_hamiltonian(gemini, u, phi)
        assert h.shape == (rows, 4, 4)
        # the generators weighted by (u cos(phi), u sin(phi)) per channel, in tensordot's bits
        drive = np.stack([u * np.cos(phi), u * np.sin(phi)], axis=-1).reshape(rows, 4)
        expected = np.tensordot(drive, gemini._operators.controls, axes=(1, 0))
        assert h.tobytes() == expected.tobytes()
        for row, a, p in zip(h, u.tolist(), phi.tolist()):
            assert row.tobytes() == rf_hamiltonian(gemini, tuple(a), tuple(p)).tobytes()

    @pytest.mark.parametrize("amps, phases", [
        ((1.0,), (0.0,)),
        ((1.0, 2.0), (0.0,)),
        ([(1.0, 2.0), (1.0,)], [(0.0, 0.0), (0.0,)]),
        ([(1.0,), (2.0,)], [(0.0,), (0.0,)]),
    ], ids=["too_few", "phase_missing", "ragged_rows", "rows_too_short"])
    def test_wrong_channel_count_rejected(self, gemini, amps, phases):
        with pytest.raises(ValidationError, match="one amplitude and phase per channel"):
            rf_hamiltonian(gemini, amps, phases)


class TestThermalState:
    def test_full_polarization_single_qubit(self):
        cfg = make_weak_config([0.0], [[0.0]], polarization=1.0)
        rho = thermal_state(cfg)
        assert np.max(np.abs(rho.matrix - np.diag([1.0, 0.0]))) < 1e-12

    def test_two_qubit_diagonal_pattern(self):
        eps = 0.01
        cfg = make_weak_config([0.0, 0.0], [[0.0, 697.4], [697.4, 0.0]], polarization=eps)
        rho = thermal_state(cfg)
        expected = np.diag([1 + 2 * eps, 1.0, 1.0, 1 - 2 * eps]) / 4
        assert np.max(np.abs(rho.matrix - expected)) < 1e-12

    def test_zero_polarization_is_maximally_mixed(self):
        cfg = make_weak_config([10.0, 20.0], [[0.0, 5.0], [5.0, 0.0]], polarization=0.0)
        rho = thermal_state(cfg)
        assert np.max(np.abs(rho.matrix - np.eye(4) / 4)) < 1e-15

    def test_unphysical_polarization_rejected(self):
        # the machine itself is rejected, so no thermal state can be asked of it
        with pytest.raises(ValidationError, match="polarizations sum to 1.8 > 1"):
            make_weak_config([0.0, 0.0], [[0.0, 5.0], [5.0, 0.0]], polarization=0.9)

    def test_commutes_with_internal_hamiltonian(self, gemini):
        rho = thermal_state(gemini)
        h = internal_hamiltonian(gemini)
        assert np.max(np.abs(h @ rho.matrix - rho.matrix @ h)) < 1e-10


def reference_h0(cfg):
    """H0 term by term from freshly embedded Paulis, in the order the package adds them."""
    n = cfg.n
    x, y, z = ([embed(p, (k,), n) for k in range(1, n + 1)]
               for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    h0 = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for k, nuc in enumerate(cfg.nuclei):
        if nuc.offset_hz != 0.0:
            h0 += 2 * np.pi * nuc.offset_hz * (z[k] / 2)
    for a in range(n):
        for b in range(a + 1, n):
            if cfg.j_hz[a, b] != 0.0:
                for p in (x, y, z) if cfg.coupling_model == "isotropic" else (z,):
                    h0 += 2 * np.pi * cfg.j_hz[a, b] * ((p[a] / 2) @ (p[b] / 2))
    return h0


class TestOperatorCache:
    @pytest.mark.parametrize("model", COUPLING_MODELS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_variant_builds_only_its_h0(self, n, model):
        rng = np.random.default_rng(60 + n)
        labels = ("1H", "13C", "1H", "15N")[:n]

        def drawn():
            offsets = rng.uniform(-500.0, 500.0, n) * (rng.random(n) < 0.8)  # some exactly 0
            j = np.triu(rng.uniform(-200.0, 200.0, (n, n)) * (rng.random((n, n)) < 0.8), 1)
            return offsets.tolist(), j + j.T

        offsets, j = drawn()
        base = SpinSystemConfig("base", tuple(NucleusSpec(label, o, 3.0, 0.5, 1e-5)
                                              for label, o in zip(labels, offsets)), j, model)
        offsets, j = drawn()
        variant = replace(base, nuclei=tuple(replace(nuc, offset_hz=o)
                                             for nuc, o in zip(base.nuclei, offsets)), j_hz=j)
        fresh = SpinSystemConfig("fresh", tuple(NucleusSpec(label, o, 3.0, 0.5, 1e-5)
                                                for label, o in zip(labels, offsets)), j, model)
        for name in ("controls", "sx", "sy", "sz"):
            arr = getattr(variant._operators, name)
            assert arr is getattr(base._operators, name)
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0
        h0 = internal_hamiltonian(variant)
        assert h0.tobytes() == internal_hamiltonian(fresh).tobytes()
        assert h0.tobytes() == reference_h0(fresh).tobytes()
        assert not np.array_equal(h0, internal_hamiltonian(base))

    def test_replace_builds_new_operators(self):
        cfg = preset("gemini")
        before = [arr.copy() for arr in cfg._operators]
        nuclei = (replace(cfg.nuclei[0], offset_hz=120.0), cfg.nuclei[1])
        shifted = replace(cfg, nuclei=nuclei)
        delta = internal_hamiltonian(shifted) - internal_hamiltonian(cfg)
        assert np.allclose(delta, 2 * np.pi * 120.0 * embed(SIGMA_Z / 2, (1,), 2),
                           rtol=0, atol=1e-9)
        for old, arr in zip(before, cfg._operators):
            assert np.array_equal(old, arr)
        assert np.array_equal(control_operators(shifted)[0], control_operators(cfg)[0])

    def test_channels_are_cached(self, triangulum):
        cfg = make_weak_config([0.0, 0.0, 0.0], np.zeros((3, 3)), labels=["1H", "13C", "1H"])
        assert cfg.channels == ("1H", "13C") and cfg.channels is cfg.channels
        assert cfg.channel_index("13C") == 1 and cfg.channel_members("1H") == (1, 3)
        relabeled = replace(cfg, nuclei=(replace(cfg.nuclei[0], label="31P"), *cfg.nuclei[1:]))
        assert relabeled.channels == ("31P", "13C", "1H")
        assert triangulum.channels == ("19F",)

    def test_cached_arrays_are_read_only(self, gemini):
        thermal_state(gemini)
        for arr in (internal_hamiltonian(gemini), control_operators(gemini)[0],
                    *gemini._operators):
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    def test_pauli_embeddings_are_built_once_per_n(self, monkeypatch):
        calls = []

        def counted(op, targets, n):
            calls.append(n)
            return embed(op, targets, n)

        monkeypatch.setattr(spinsys, "embed", counted)
        spinsys._pauli_embeddings.cache_clear()
        configs = [make_weak_config([10.0 * k, -5.0, 3.0 * k], [[0, 140, 48], [140, 0, 190],
                                                                [48, 190, 0]]) for k in range(12)]
        for cfg in configs:
            internal_hamiltonian(cfg)
        assert calls == [3] * 9
        x, y, z = spinsys._pauli_embeddings(3)
        assert configs[0]._operators.sz is z and configs[-1]._operators.sz is z
        for arr in (x, y, z):
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0
