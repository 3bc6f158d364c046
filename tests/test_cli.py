import argparse
import copy
import functools
import hashlib
import io
import json
import operator
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmrqc
from conftest import (ROOT, abtime, child_env, make_weak_config, random_density_matrix,
                      random_unitary)
from nmrqc import algorithms, cli, control, dynamics, experiments, measurement, quantum, spinsys
from nmrqc.cli import _canonical, build_parser, main
from nmrqc.control import _GATES, MAX_GRAPE_ELEMENTS, Circuit, Gate, compile_circuit
from nmrqc.dynamics import evolve_program, program_unitary
from nmrqc.errors import NmrqcError, ValidationError
from nmrqc.quantum import DensityMatrix, Option
from nmrqc.spinsys import preset


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


BELL_CIRCUIT = {
    "n": 2,
    "gates": [
        {"name": "H", "targets": [1], "params": []},
        {"name": "X", "targets": [2], "params": []},
        {"name": "CY", "targets": [1, 2], "params": []},
    ],
}

HUGE_DELAY_CIRCUIT = {"n": 2, "gates": [{"name": "H", "targets": [1], "params": []},
                                         {"name": "Delay", "targets": [], "params": [1e300]}]}


class TestSimulate:
    def test_pulse_path_bell(self, tmp_path):
        circuit = write_json(tmp_path / "bell.json", BELL_CIRCUIT)
        out = tmp_path / "run"
        rc = main(["simulate", "--machine", "gemini", "--circuit", circuit,
                   "--path", "pulse", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "simulate_report.json").read_text())
        assert report["fidelity"] >= 1 - 1e-6
        assert report["path"] == "pulse"
        probs = report["probabilities"]
        assert probs["01"] == pytest.approx(0.5, abs=1e-6)
        assert probs["10"] == pytest.approx(0.5, abs=1e-6)

    def test_missing_circuit_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--circuit", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("circuit, match", [
        ({"n": 40, "gates": []}, "qubit count 40 outside 1..6"),
        ({"n": 0, "gates": []}, "qubit count 0 outside 1..6"),
        ({"n": 3, "gates": [{"name": "H", "targets": [3]}]}, "circuit has 3 qubits, machine has 2"),
        ({"n": 2, "gates": [{"name": "H", "targets": [1], "params": [3]}]},
         "gate H takes 0 parameter(s)"),
    ], ids=["n40", "n0", "n3_on_gemini", "h_with_parameter"])
    def test_circuit_size_exits_2(self, tmp_path, capsys, circuit, match):
        circuit = write_json(tmp_path / "c.json", circuit)
        rc = main(["simulate", "--machine", "gemini", "--circuit", circuit, "--path", "ideal",
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: validation:") and match in err
        assert len(err.strip().splitlines()) == 1

    def test_repeated_target_same_message_in_compile_and_simulate(self, tmp_path, capsys):
        circuit = write_json(tmp_path / "c.json",
                             {"n": 2, "gates": [{"name": "CNOT", "targets": [1, 1]}]})
        errs = []
        for command in ("compile", "simulate"):
            assert main([command, "--circuit", circuit, "--out", str(tmp_path / "o")]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        # an error in a circuit file names the file
        assert errs[0].strip() == (
            f"error: validation: {circuit}: gate CNOT: repeated target in (1, 1)")

    def test_byte_identical_reruns(self, tmp_path):
        circuit = write_json(tmp_path / "bell.json", BELL_CIRCUIT)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["simulate", "--circuit", circuit, "--path", "pulse",
                         "--relaxation", "on", "--out", str(out)]) == 0
            outs.append((out / "simulate_report.json").read_bytes())
        assert outs[0] == outs[1]


class TestArtifacts:
    def test_compile_writes_program(self, tmp_path):
        circuit = write_json(tmp_path / "c.json",
                             {"n": 2, "gates": [{"name": "CNOT", "targets": [1, 2],
                                                 "params": []}]})
        out = tmp_path / "out"
        assert main(["compile", "--circuit", circuit, "--out", str(out)]) == 0
        prog = json.loads((out / "pulse_program.json").read_text())
        kinds = [ev["type"] for ev in prog["events"]]
        assert "delay" in kinds and "rf" in kinds

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["022", "027"])
    def test_a_report_takes_the_umasks_mode(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            cli.emit_report({"x": 1}, "json", tmp_path / "r.json")
        finally:
            os.umask(old)
        assert (tmp_path / "r.json").stat().st_mode & 0o777 == mode
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_tomography_report(self, tmp_path):
        rho = DensityMatrix.basis(2, 2)
        state = write_json(tmp_path / "state.json", rho.to_json_dict())
        out = tmp_path / "out"
        assert main(["tomography", "--state", state, "--out", str(out)]) == 0
        report = json.loads((out / "tomography_report.json").read_text())
        assert report["max_error_vs_input"] < 1e-8
        assert len(report["peak_tables"]) == 9  # one table per readout setting
        assert set(report["peak_tables"]["I,I"]) == {"1H", "31P"}

    @pytest.mark.parametrize("edit", [
        lambda cfg: (cfg["nuclei"][0].update(offset_hz=1.0, t2_s=1e-3),
                     cfg["nuclei"][1].update(offset_hz=3.0, t2_s=1e-3), set_j(cfg, 2000.0)),
        lambda cfg: (cfg["nuclei"][0].update(offset_hz=123.456789),
                     cfg["nuclei"][1].update(offset_hz=-98.7654321)),
    ], ids=["short_t2", "long_decimal_offsets"])
    def test_tomography_on_resolved_machines(self, tmp_path, edit):
        rng = np.random.default_rng(58)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T))
        state = write_json(tmp_path / "state.json", rho.to_json_dict())
        out = tmp_path / "out"
        assert main(["tomography", "--state", state, "--machine",
                     machine_file(tmp_path, edit), "--out", str(out)]) == 0
        report = json.loads((out / "tomography_report.json").read_text())
        assert report["max_error_vs_input"] <= 1e-8

    def test_tomography_on_triangulum(self, tmp_path, capsys):
        # lines in H0's eigenbasis: 15 on the one 19F channel, 3 of them weak
        rng = np.random.default_rng(60)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T))
        state = write_json(tmp_path / "state.json", rho.to_json_dict())
        argv = ["tomography", "--machine", "triangulum", "--state", state]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "tomography_report.json").read_text())
        assert report["max_error_vs_input"] <= 1e-8
        assert len(report["peak_tables"]) == 27
        assert all(list(table) == ["19F"] and len(table["19F"]) == 15
                   for table in report["peak_tables"].values())
        # the compiled readout needs a weak machine
        capsys.readouterr()
        assert main([*argv, "--path", "pulse", "--out", str(tmp_path / "pulse")]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "pulse").exists()

    def test_experiment_rabi_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["experiment", "rabi", "--channel", "1H", "--amp-hz", "12500",
                     "--out", str(out)]) == 0
        scan = (out / "rabi_scan.csv").read_text().splitlines()
        assert scan[0] == "x,y,fit_y"
        fit = json.loads((out / "rabi_fit.json").read_text())
        assert fit["t180_s"] == pytest.approx(1 / 25e3, rel=5e-3)

    def test_experiment_pps(self, tmp_path):
        out = tmp_path / "out"
        assert main(["experiment", "pps", "--out", str(out)]) == 0
        report = json.loads((out / "pps_report.json").read_text())
        eps = 1e-5
        assert report["pauli_coefficients"]["ZZ"] == pytest.approx(eps / 2, rel=1e-6)

    def test_grape_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["grape", "--gate", "X90", "--targets", "1", "--segments", "20",
                   "--duration-s", "4e-4", "--max-iters", "60",
                   "--target-fidelity", "0.99", "--seed", "1", "--out", str(out)])
        assert rc == 0
        names = ("grape_pulse.csv", "grape_meta.json", "pulse_program.json")
        assert capsys.readouterr().out.splitlines() == [str(out / name) for name in names]
        lines = (out / "grape_pulse.csv").read_text().splitlines()
        assert lines[0] == "segment_index,channel,u_x_hz,u_y_hz"
        assert len(lines) == 1 + 20 * 2
        meta = json.loads((out / "grape_meta.json").read_text())
        assert meta["final_fidelity"] >= 0.99
        assert meta["seed"] == 1
        # compile's schema: one rf event per segment, (x, y) as amplitude and phase
        events = json.loads((out / "pulse_program.json").read_text())["events"]
        assert len(events) == 20 and {ev["type"] for ev in events} == {"rf"}
        assert {ev["dur_s"] for ev in events} == {meta["dt_s"]}
        for row in lines[1:]:
            segment, channel, ux, uy = row.split(",")
            amp = events[int(segment)]["amp_hz"][meta["channels"].index(channel)]
            assert amp == pytest.approx(np.hypot(float(ux), float(uy)), rel=1e-11, abs=1e-9)


class TestAlgorithms:
    def test_grover_target_three(self, tmp_path):
        out = tmp_path / "out"
        assert main(["algorithm", "grover4", "--target", "3", "--out", str(out)]) == 0
        report = json.loads((out / "algorithm_grover4.json").read_text())
        assert report["probabilities"]["10"] == pytest.approx(1.0, abs=1e-9)

    def test_counting_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["algorithm", "count", "--case", "M2", "--l-values", "1,2,3,4",
                     "--out", str(out)]) == 0
        report = json.loads((out / "algorithm_count.json").read_text())
        assert report["derived"]["m_est"] == 2

    def test_dqc1_roundtrip(self, tmp_path):
        u = np.diag([1.0, np.exp(1j * np.pi / 5)])
        upath = write_json(tmp_path / "u.json",
                           {"re": np.real(u).tolist(), "im": np.imag(u).tolist()})
        out = tmp_path / "out"
        assert main(["algorithm", "dqc1", "--unitary", upath, "--epsilon", "1.0",
                     "--out", str(out)]) == 0
        report = json.loads((out / "algorithm_dqc1.json").read_text())
        assert report["estimate"]["re"] == pytest.approx(report["exact"]["re"], abs=1e-9)
        assert report["estimate"]["im"] == pytest.approx(report["exact"]["im"], abs=1e-9)

    def test_qho_report_points(self, tmp_path):
        out = tmp_path / "out"
        assert main(["algorithm", "qho", "--initial", "n0", "--omega-t", "0.628,1.256",
                     "--out", str(out)]) == 0
        report = json.loads((out / "algorithm_qho.json").read_text())
        assert len(report["points"]) == 2

    def test_cnot_table_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["algorithm", "cnot-table", "--direction", "21",
                     "--out", str(out)]) == 0
        report = json.loads((out / "algorithm_cnot_table.json").read_text())
        rows = {r["input"]: r["output"] for r in report["rows"]}
        assert rows == {"00": "00", "01": "11", "10": "10", "11": "01"}

    def test_bad_machine_exits_2(self, tmp_path, capsys):
        rc = main(["algorithm", "grover4", "--machine", str(tmp_path / "x.json"),
                   "--out", str(tmp_path)])
        assert rc == 2


class TestGrapeInputErrors:
    @staticmethod
    def assert_one_line_exit_2(rc, capsys):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: validation:")
        assert len(err.strip().splitlines()) == 1

    def test_zero_segments(self, tmp_path, capsys):
        rc = main(["grape", "--gate", "X90", "--segments", "0", "--out", str(tmp_path)])
        self.assert_one_line_exit_2(rc, capsys)
        assert not list(tmp_path.iterdir())

    def test_negative_seed(self, tmp_path, capsys):
        rc = main(["grape", "--gate", "X90", "--seed", "-1", "--segments", "4", "--max-iters", "2",
                   "--out", str(tmp_path / "out")])
        self.assert_one_line_exit_2(rc, capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("machine", ["gemini", "triangulum"])
    def test_segments_over_the_memory_cap(self, tmp_path, capsys, machine):
        # one evaluation holds about 210 B per segment and matrix element: the cap is
        # checked before GRAPE allocates anything
        segments = MAX_GRAPE_ELEMENTS // preset(machine).dim ** 2 + 1
        tracemalloc.start()
        try:
            rc = main(["grape", "--machine", machine, "--gate", "X90", "--segments",
                       str(segments), "--max-iters", "0", "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assert_one_line_exit_2(rc, capsys)
        assert not (tmp_path / "out").exists()
        assert peak < 1e6

    def test_grape_unitary_without_im(self, tmp_path, capsys):
        upath = write_json(tmp_path / "u.json", {"re": np.eye(4).tolist()})
        rc = main(["grape", "--unitary", upath, "--segments", "4",
                   "--out", str(tmp_path / "out")])
        self.assert_one_line_exit_2(rc, capsys)

    def test_dqc1_unitary_without_re(self, tmp_path, capsys):
        upath = write_json(tmp_path / "u.json", {"im": np.zeros((2, 2)).tolist()})
        rc = main(["algorithm", "dqc1", "--unitary", upath, "--out", str(tmp_path / "out")])
        self.assert_one_line_exit_2(rc, capsys)

    @pytest.mark.parametrize("argv, doc", [
        (["grape", "--gate", "X90", "--targets", "abc"], None),
        (["grape", "--gate", "X90", "--segments", "4", "--duration-s", "1e308", "--max-iters",
          "3"], None),
        (["algorithm", "dqc1"], None),
        (["algorithm", "dqc1", "--unitary", "{doc}"],
         {"re": [[1.0, 0.0], [0.0, 0.0]], "im": 1e308}),
        (["tomography", "--state", "{doc}"],
         {"n": 1, "re": [[0.5, 1e308], [-1e308, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}),
        (["tomography", "--state", "{doc}"],
         {"n": float("inf"), "re": [[1.0]], "im": [[0.0]]}),
        (["tomography", "--state", "{doc}"],
         {"n": 1, "re": [[float("nan"), 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}),
        (["tomography", "--state", "{doc}"], {"n": 10**30, "re": [[1.0]], "im": [[0.0]]}),
        (["simulate", "--circuit", "{doc}"], {"n": float("inf"), "gates": []}),
        (["simulate", "--circuit", "{doc}"], {"n": 1, "gates": [
            {"name": "U", "targets": [1], "matrix": {"re": np.eye(2).tolist(), "im": 1e999}}]}),
        # targets off gemini's qubits 1 and 2, which the one routine placing gates checks
        (["grape", "--gate", "X90", "--targets", "5"], None),
        (["grape", "--gate", "X90", "--targets", "0"], None),
        (["grape", "--gate", "X90", "--targets=-1"], None),
        (["grape", "--gate", "CNOT", "--targets", "1,3"], None),
        # targets that are not unitary: 2 I ran to a fidelity of 1.117, 0 to 0, with exit 0
        (["grape", "--unitary", "{doc}"], {"re": (2 * np.eye(4)).tolist(),
                                           "im": np.zeros((4, 4)).tolist()}),
        (["grape", "--unitary", "{doc}"], {"re": np.zeros((4, 4)).tolist(),
                                           "im": np.zeros((4, 4)).tolist()}),
    ], ids=["grape_targets_abc", "grape_duration_1e308", "dqc1_no_unitary", "unitary_1e308",
            "state_1e308", "state_n_inf", "state_nan", "state_n_1e30", "circuit_n_inf",
            "unitary_gate_inf", "grape_target_5", "grape_target_0", "grape_target_-1",
            "grape_targets_1_3", "grape_unitary_2I", "grape_unitary_0"])
    def test_bad_request(self, tmp_path, capsys, argv, doc):
        # inputs TestErrorContractFuzz drew, and GRAPE targets off the register or not
        # unitary: one line each, no traceback or numpy warning, and no output directory
        path = write_json(tmp_path / "doc.json", doc)
        rc = main([a.format(doc=path) for a in argv] + ["--out", str(tmp_path / "out")])
        self.assert_one_line_exit_2(rc, capsys)
        assert not (tmp_path / "out").exists()


def machine_file(tmp_path, edit):
    cfg = preset("gemini").to_json_dict()
    edit(cfg)
    return write_json(tmp_path / "machine.json", cfg)


def set_j(cfg, value):
    cfg["j_hz"][0][1] = cfg["j_hz"][1][0] = value


class TestNonFiniteInputs:
    @staticmethod
    def assert_one_line_exit_2(rc, capsys, match):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: validation:") and match in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("edit", [
        lambda cfg: cfg["nuclei"][0].update(t1_s=float("nan")),
        lambda cfg: cfg["nuclei"][1].update(polarization=float("nan")),
        lambda cfg: cfg["nuclei"][0].update(offset_hz=float("inf")),
        lambda cfg: set_j(cfg, float("nan")),
        lambda cfg: cfg["nuclei"][0].update(offset_hz=1e308),
        lambda cfg: set_j(cfg, 1e308),
        # the frames take back 2*pi * offset * 1/(2J) of precession per J delay
        lambda cfg: (set_j(cfg, 1e-300), cfg["nuclei"][0].update(offset_hz=1e10)),
    ], ids=["nan_t1", "nan_polarization", "inf_offset", "nan_j", "offset_1e308", "j_1e308",
            "j_1e-300"])
    def test_machine_value(self, tmp_path, capsys, edit):
        machine = machine_file(tmp_path, edit)
        # the pulse path builds the machine's Hamiltonian, so values that only
        # overflow in rad/s are caught too
        rc = main(["algorithm", "grover4", "--path", "pulse", "--machine", machine,
                   "--out", str(tmp_path / "o")])
        self.assert_one_line_exit_2(rc, capsys, "finite")

    @pytest.mark.parametrize("edit, match", [
        (lambda cfg: cfg["nuclei"][0].update(offset_hz=1e308), "finite"),
        (lambda cfg: set_j(cfg, 1e308), "finite"),
        (lambda cfg: cfg["nuclei"][0].update(t1_s=1.0, t2_s=5.0), "t2_s must be <= 2 * t1_s"),
    ], ids=["offset_1e308", "j_1e308", "t2_over_twice_t1"])
    def test_machine_value_on_ideal_path(self, tmp_path, capsys, edit, match):
        # the ideal path never builds the machine's Hamiltonian: loading rejects these
        machine = machine_file(tmp_path, edit)
        rc = main(["algorithm", "grover4", "--machine", machine, "--out", str(tmp_path / "o")])
        self.assert_one_line_exit_2(rc, capsys, match)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, match", [
        (["experiment", "t2", "--offset-spread-hz", "nan"], "finite"),
        (["experiment", "t2", "--offset-spread-hz", "inf"], "finite"),
        (["experiment", "t2", "--offset-spread-hz", "1e308"], "finite"),
        (["experiment", "t2", "--offset-spread-hz", "5e307"], "finite"),
        (["experiment", "rabi", "--amp-hz", "nan"], "finite"),
        (["experiment", "rabi", "--amp-hz", "1e308"], "finite"),
        (["experiment", "rabi", "--durations", "1e-5,2e-5,3e-5,4e-5,5e-5,6e-5,7e-5,inf"],
         "finite"),
        (["experiment", "t1", "--delays", "1e-3,2e-3,nan,4e-3,5e-3,6e-3"], "finite"),
        (["simulate", "--path", "pulse", "--pulse-amp-hz", "nan", "--circuit", "{circuit}"],
         "finite"),
        (["simulate", "--path", "pulse", "--pulse-amp-hz", "1e308", "--circuit", "{circuit}"],
         "finite"),
        (["tomography", "--path", "pulse", "--pulse-amp-hz", "0", "--state", "{state}"],
         "pulse amplitude must be > 0"),
        (["experiment", "rabi", "--amp-hz", "0"], "pulse amplitude must be > 0"),
        (["experiment", "t1", "--amp-hz", "0"], "pulse amplitude must be > 0"),
        (["experiment", "rabi", "--amp-hz", "-12500", "--durations",
          "1e-5,2e-5,3e-5,4e-5,5e-5,6e-5,7e-5,8e-5"], "pulse amplitude must be > 0"),
        # checked on the ideal path too, which does not read it
        (["simulate", "--pulse-amp-hz", "-5", "--circuit", "{circuit}"],
         "pulse amplitude must be > 0"),
        (["tomography", "--pulse-amp-hz", "-5", "--state", "{state}"],
         "pulse amplitude must be > 0"),
        (["simulate", "--pulse-amp-hz", "nan", "--circuit", "{circuit}"],
         "pulse amplitude must be > 0 and finite"),
        (["simulate", "--pulse-amp-hz", "inf", "--circuit", "{circuit}"],
         "pulse amplitude must be > 0 and finite"),
        (["tomography", "--pulse-amp-hz", "inf", "--state", "{state}"],
         "pulse amplitude must be > 0 and finite"),
        # repetition counts are integers, not floats cut short, and each builds l steps
        (["algorithm", "count", "--l-values", "1.5,2"], "bad int list '1.5,2'"),
        (["algorithm", "count", "--l-values", "1000000000"],
         "l_values must be integers from 1 to 1000"),
    ], ids=["t2_spread", "t2_spread_inf", "t2_spread_1e308", "t2_spread_5e307", "rabi_amp",
            "rabi_amp_1e308", "rabi_duration", "t1_delay", "pulse_amp", "pulse_amp_1e308",
            "tomography_amp_0", "rabi_amp_0", "t1_amp_0", "rabi_amp_negative",
            "simulate_ideal_amp_negative", "tomography_ideal_amp_negative",
            "simulate_ideal_amp_nan", "simulate_ideal_amp_inf", "tomography_ideal_amp_inf",
            "count_l_fraction", "count_l_huge"])
    def test_pulse_argument(self, tmp_path, capsys, argv, match):
        circuit = write_json(tmp_path / "bell.json", BELL_CIRCUIT)
        state = write_json(tmp_path / "rho.json", DensityMatrix.basis(2, 0).to_json_dict())
        argv = [a.format(circuit=circuit, state=state) for a in argv]
        rc = main([*argv, "--out", str(tmp_path / "o")])
        self.assert_one_line_exit_2(rc, capsys, match)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path", ["ideal", "pulse"])
    def test_delay_phase_overflow(self, tmp_path, capsys, path):
        # 2*pi * 1e10 Hz * 1e300 s is past the float range: named, not a nan state
        machine = machine_file(tmp_path, lambda cfg: cfg["nuclei"][0].update(offset_hz=1e10))
        circuit = write_json(tmp_path / "c.json", HUGE_DELAY_CIRCUIT)
        rc = main(["simulate", "--machine", machine, "--circuit", circuit, "--path", path,
                   "--out", str(tmp_path / "o")])
        self.assert_one_line_exit_2(rc, capsys, "finite")

    def test_relaxation_past_the_float_range(self, tmp_path, capsys):
        # dt/T = 1e310 overflows, and exp(-inf) = 0 is the fully relaxed state
        def fast(cfg):
            set_j(cfg, 0.0)
            for nuc in cfg["nuclei"]:
                nuc.update(offset_hz=0.0, t1_s=1e-10, t2_s=1e-10)

        machine = machine_file(tmp_path, fast)
        circuit = write_json(tmp_path / "c.json", HUGE_DELAY_CIRCUIT)
        rc = main(["simulate", "--machine", machine, "--circuit", circuit, "--path", "pulse",
                   "--relaxation", "on", "--out", str(tmp_path / "o")])
        assert rc == 0 and capsys.readouterr().err == ""
        report = json.loads((tmp_path / "o" / "simulate_report.json").read_text())
        assert all(abs(p - 0.25) < 1e-4 for p in report["probabilities"].values())

    def test_zero_qubit_state(self, tmp_path, capsys):
        state = write_json(tmp_path / "rho.json", {"n": 0, "re": [[1.0]], "im": [[0.0]]})
        rc = main(["tomography", "--state", state, "--out", str(tmp_path / "o")])
        self.assert_one_line_exit_2(rc, capsys, "must be >= 1")


# Each subcommand accepts only the options it reads; these it would ignore.
UNREAD_OPTIONS = [
    ("simulate", "--seed"),
    ("tomography", "--seed"), ("tomography", "--relaxation"),
    ("compile", "--seed"), ("compile", "--path"), ("compile", "--relaxation"),
    ("grape", "--path"), ("grape", "--relaxation"), ("grape", "--pulse-amp-hz"),
    ("experiment", "--seed"), ("experiment", "--path"), ("experiment", "--relaxation"),
    ("experiment", "--pulse-amp-hz"),
    ("algorithm", "--seed"), ("algorithm", "--pulse-amp-hz"),
    # each experiment and algorithm accepts only its own options
    ("experiment pps", "--delays"), ("experiment pps", "--durations"),
    ("experiment pps", "--amp-hz"), ("experiment pps", "--channel"),
    ("experiment pps", "--offset-spread-hz"), ("experiment rabi", "--delays"),
    ("experiment rabi", "--offset-spread-hz"), ("experiment t1", "--durations"),
    ("experiment t2", "--durations"),
    ("algorithm grover4", "--case"), ("algorithm grover4", "--a"),
    ("algorithm grover4", "--which"), ("algorithm grover4", "--epsilon"),
    ("algorithm deutsch", "--target"), ("algorithm count", "--unitary"),
    ("algorithm dqc1", "--path"), ("algorithm dqc1", "--relaxation"),
    ("algorithm dqc1", "--machine"),
]
SUBCOMMAND_ARGV = {
    "simulate": ["simulate", "--circuit", "c.json"],
    "tomography": ["tomography", "--state", "rho.json"],
    "compile": ["compile", "--circuit", "c.json"],
    "grape": ["grape", "--gate", "X90"],
    "experiment": ["experiment", "rabi"],
    "algorithm": ["algorithm", "deutsch", "--case", "f3"],
    "experiment pps": ["experiment", "pps"],
    "experiment rabi": ["experiment", "rabi"],
    "experiment t1": ["experiment", "t1"],
    "experiment t2": ["experiment", "t2"],
    "algorithm grover4": ["algorithm", "grover4"],
    "algorithm deutsch": ["algorithm", "deutsch"],
    "algorithm count": ["algorithm", "count"],
    "algorithm dqc1": ["algorithm", "dqc1", "--unitary", "u.json"],
}
OPTION_VALUES = {"--seed": "1", "--path": "pulse", "--relaxation": "on",
                 "--pulse-amp-hz": "2e4", "--delays": "1,2", "--durations": "3",
                 "--amp-hz": "5", "--channel": "31P", "--offset-spread-hz": "10",
                 "--case": "f3", "--a": "101", "--which": "psi+", "--epsilon": "0",
                 "--target": "2", "--unitary": "u.json", "--machine": "gemini"}


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS)
def test_unread_option_exits_2(tmp_path, capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([*SUBCOMMAND_ARGV[command], option, OPTION_VALUES[option],
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestReadmeRequests:
    """The README requests, abtime's CLI_REQUESTS, each run on the input files it writes."""

    @pytest.mark.parametrize("name", abtime.CLI_REQUESTS)
    def test_rerun_is_byte_identical(self, tmp_path, name):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(abtime.readme_argv(abtime.CLI_REQUESTS[name], str(out))) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0] and outs[0] == outs[1]

    # sha256 of each report of the README requests: grape's CSV and metadata
    # recorded when GRAPE ran on the package's own L-BFGS (its pulse program
    # when the result came to carry one), pps recorded before the scans were evolved
    # as batches, rabi re-recorded for the closed-form separable fits, t1/t2
    # re-recorded for the relaxation map applied spin by spin, the pulse-path
    # reports (simulate-pulse, compile, tomography-pulse, deutsch) re-recorded
    # for the frame-tracked compiler, count re-recorded for the counting fit's
    # Newton refinement, the rest recorded before the gate table replaced the
    # per-gate dispatch, and tomography-triangulum recorded when readout came
    # to isotropic machines. A change that keeps the numbers must keep
    # them all.
    SCAN_REPORTS = {
        "simulate-pulse": {
            "simulate_report.json": "7f75bbb92ab323b41affa803591104692a87e7633f098fe45ad94edd5c6b8e49",
        },
        "compile": {
            "pulse_program.json": "8f7348fd09c483ce786dc4dad4524c8988b6b262e484f1dc8363cc20416013de",
        },
        "tomography": {
            "tomography_report.json": "28677664cdea9f423f68d53099578247da7d596cf5218ca27bcd735b59adc2fa",
        },
        "tomography-pulse": {
            "tomography_report.json": "50e2f24784094d0d2eb65f43339d3062a7a24037924e0f331a291ae01e6b09e3",
        },
        "tomography-triangulum": {
            "tomography_report.json": "897ffb96bf0ec1e39b1fea02a8de3b50fb7507238cf1b1884bdbccb66ba6316c",
        },
        "grape": {
            "grape_pulse.csv": "60f477644f51b8aa701c82cc8fe23c6150138ecfa8f741cf976fbb9e0890d929",
            "grape_meta.json": "bdc8d7e15057580246a90905651775fbe8075ffa473964ec2c1f806ca191a11d",
            "pulse_program.json": "dbcc6a614d0b06d4a7430ec652899c589387452c53819ab4f83880b670a31002",
        },
        "experiment-rabi": {
            "rabi_fit.json": "4efeb06e6457edbf1b0e468a5c4dfcbde4f0e6efb6d290e1a56496da1f1db70c",
            "rabi_scan.csv": "2acb1aa8c06ae797bd98bd35614e7e126e76e07d3074af0e85689ad584c1ab2d",
        },
        "experiment-t1": {
            "t1_fit.json": "cca48881853e8d4f185897ebe9e582992d60cd8d5000b9dfe2a9b476857cf7d1",
            "t1_scan.csv": "407f5b5b9355357c3b57a3370ea8bc029353fa4b6d913eafec378e73b36732f3",
        },
        "experiment-t2": {
            "t2_fit.json": "dfc329f618a5a33bf6d04718e8b9576cdfd5ea34e0850e86afb1a0c315d3c56b",
            "t2_scan.csv": "3b8f0c375e6e5ab2c8105170a5e6db986b93cafc3cf658e654ca37fdba043de5",
        },
        "experiment-pps": {
            "pps_report.json": "6334ebc43d04c413fae6d08c8b094d6de27b8146e02214a905292e40bc3d3b0a",
        },
        "algorithm-grover4": {
            "algorithm_grover4.json": "e1ece1be1b7e3a33e46bb584cb49d4169454111fd3ba2cd3df952c0362b94d00",
        },
        "algorithm-deutsch": {
            "algorithm_deutsch.json": "42bb5e3f5aaaf9e5a34db67e806220ccc010f78e4534dac9077eabef47f3e165",
        },
        "algorithm-count": {
            "algorithm_count.json": "cb2549edf75e3442d48f0e9eeeadcb85ed6a1f2c9b656da4e707212df82686df",
        },
        "algorithm-qho": {
            "algorithm_qho.json": "7b198c69bb20ee41969194c449b6e5d109394dd3d41ee77b67573d8ea950b070",
        },
        "algorithm-dqc1": {
            "algorithm_dqc1.json": "5b08735ba7162dcad358a1f0a99dd0abb6d01d03c3bdc99809f317308efdfa46",
        },
        "algorithm-cnot-table": {
            "algorithm_cnot_table.json": "512a6a74dc53f4d573a959f5584ae8de11dd196bbbbd264fbe87dc58569e96b4",
        },
    }

    @pytest.mark.parametrize("name", abtime.CLI_REQUESTS)
    def test_scan_reports_are_pinned(self, tmp_path, name):
        assert main(abtime.readme_argv(abtime.CLI_REQUESTS[name], str(tmp_path / "out"))) == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in (tmp_path / "out").iterdir()}
        assert digests == self.SCAN_REPORTS[name]

    def test_the_readme_block_is_the_table(self):
        # the block after the README names the table: continuations joined, comments dropped,
        # each input file read as the name the table gives it
        readme = (ROOT / "README.md").read_text().split("`CLI_REQUESTS` in `tools/abtime.py`")
        block = readme[1].split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
        requests = [re.sub(r"\b(bell|rho3?|u)\.json\b", r"{\1}", line.split("#")[0]).split()
                    for line in block.splitlines() if line.split("#")[0].strip()]
        assert requests == [["nmrqc", *request.split(), "--out", "run/"]
                            for request in abtime.CLI_REQUESTS.values()]
        assert list(self.SCAN_REPORTS) == list(abtime.CLI_REQUESTS)

    def test_pulse_tomography_tables_are_the_compiled_readout(self, tmp_path):
        out = tmp_path / "out"
        argv = abtime.readme_argv(abtime.CLI_REQUESTS["tomography-pulse"], str(out))
        assert main(argv) == 0
        report = json.loads((out / "tomography_report.json").read_text())
        state = json.loads(Path(abtime.cli_inputs()["rho"]).read_text())
        cfg, rho = preset("gemini"), DensityMatrix.from_json_dict(state)
        expected = {}
        for s1 in ("I", "X90", "Y90"):
            for s2 in ("I", "X90", "Y90"):
                gates = tuple(Gate(s, (q,)) for q, s in ((1, s1), (2, s2)) if s != "I")
                u = program_unitary(compile_circuit(Circuit(2, gates), cfg))
                table = measurement.readout_peak_table(rho.evolved(u), cfg)
                expected[f"{s1},{s2}"] = {
                    ch: [{"freq_hz": p.frequency_hz, "re": p.amplitude.real,
                          "im": p.amplitude.imag} for p in peaks]
                    for ch, peaks in table.items()
                }
        assert report["peak_tables"] == _canonical(expected)


class TestStartup:
    """`import nmrqc`, the scan experiments and GRAPE run on numpy alone."""

    def run(self, tmp_path, argv, module):
        script = (
            "import sys\n"
            "import nmrqc\n"
            "from nmrqc.cli import main\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            f"for argv in {argv!r}:\n"
            f"    assert main([*argv, '--out', {str(tmp_path)!r}]) == 0\n"
            f"print({module!r} in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_scans_never_import_scipy(self, tmp_path):
        argv = [["experiment", "t1"], ["experiment", "rabi"],
                ["algorithm", "count", "--case", "M2", "--l-values", "1,2,3"]]
        assert self.run(tmp_path, argv, "scipy") == "False"

    def test_grape_never_imports_scipy(self, tmp_path):
        argv = [["grape", "--gate", "X90", "--segments", "5", "--duration-s", "1e-4",
                 "--max-iters", "2", "--seed", "1"]]
        assert self.run(tmp_path, argv, "scipy") == "False"


FUZZ_DOCS = {
    "machine": preset("gemini").to_json_dict(),
    "circuit": {"n": 2, "gates": [{"name": "H", "targets": [1], "params": []},
                                  {"name": "CNOT", "targets": [1, 2], "params": []}]},
    "state": {"n": 2, "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()},
    "unitary": {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 1.0]]},
}
# Cheap requests that between them read every document; grape and count are
# left out because their cost grows with the numbers a mutation may draw.
FUZZ_COMMANDS = [
    ["simulate", "--machine", "{machine}", "--circuit", "{circuit}"],
    ["simulate", "--machine", "{machine}", "--circuit", "{circuit}", "--path", "pulse",
     "--relaxation", "on"],
    ["compile", "--machine", "{machine}", "--circuit", "{circuit}"],
    ["tomography", "--machine", "{machine}", "--state", "{state}"],
    ["experiment", "rabi", "--machine", "{machine}", "--durations",
     "1e-5,2e-5,3e-5,4e-5,5e-5,6e-5,7e-5,8e-5"],
    ["experiment", "t1", "--machine", "{machine}", "--delays", "1e-3,1e-2,0.1,1,4,10"],
    ["experiment", "t2", "--machine", "{machine}", "--delays", "1e-3,1e-2,0.1,0.3,0.5,1",
     "--offset-spread-hz", "50"],
    ["experiment", "pps", "--machine", "{machine}"],
    ["algorithm", "deutsch", "--machine", "{machine}", "--path", "pulse"],
    ["algorithm", "grover4", "--machine", "{machine}", "--path", "pulse", "--relaxation", "on"],
    ["algorithm", "dqc1", "--unitary", "{unitary}"],
]
JSON_VALUES = st.sampled_from([None, True, 0, -1, 3, 0.5, 1e308, -1e308, float("nan"),
                               float("inf"), "", "1H", "CNOT", [], [1], [[0.0]], {}, 10**30,
                               10**400, "1.5", 2.7, [[[0.0]]]])
ARG_TOKENS = st.sampled_from(["nan", "inf", "-1", "0", "2", "1e308", "", "abc", "1,2",
                              "1e-3,nan", "gemini", "triangulum", "--path", "pulse",
                              "--relaxation", "on", "--machine", "--circuit", "{circuit}"])


@st.composite
def mutated_json(draw, doc):
    """doc with one value, one to four levels down, replaced by JSON_VALUES or deleted."""
    doc = copy.deepcopy(doc)
    parent, key = None, None
    node = doc
    for _ in range(draw(st.integers(1, 4))):
        if not isinstance(node, (dict, list)) or not node:
            break
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    if parent is None:
        return draw(JSON_VALUES)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    return doc


@st.composite
def fuzz_requests(draw):
    """(argv, input documents): a FUZZ_COMMANDS request with up to one mutated document
    and up to two tokens inserted, replaced or deleted in argv."""
    argv = list(draw(st.sampled_from(FUZZ_COMMANDS)))
    docs = dict(FUZZ_DOCS)
    name = draw(st.sampled_from([None, *sorted(FUZZ_DOCS)]))
    if name is not None:
        docs[name] = draw(mutated_json(FUZZ_DOCS[name]))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(ARG_TOKENS))
        elif edit == "replace":
            argv[i] = draw(ARG_TOKENS)
        else:
            del argv[i]
    return argv, docs


def file_tree(root):
    """Relative path -> bytes of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class TestErrorContractFuzz:
    @settings(max_examples=80)
    @given(request=fuzz_requests())
    def test_exit_code_stderr_outputs_and_rerun(self, request):
        argv, docs = request
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths = {name: write_json(root / f"{name}.json", doc) for name, doc in docs.items()}
            argv = [a.format(**paths) for a in argv] + ["--out", str(root / "out")]
            inputs = file_tree(root)
            runs = []
            cwd = os.getcwd()
            os.chdir(root)  # so that a write relative to the working directory shows too
            try:
                for _ in range(2):
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        try:
                            rc = main(argv)
                        except SystemExit as exc:  # argparse: usage errors and --help
                            rc = exc.code
                    runs.append((rc, out.getvalue(), err.getvalue(), file_tree(root / "out")))
            finally:
                os.chdir(cwd)
            outside = {k: v for k, v in file_tree(root).items()
                       if Path(k).parts[0] != "out"}
        rc, _, err, _ = runs[0]
        assert rc in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err
        assert outside == inputs
        assert runs[0] == runs[1]


# Declared domain of each value-taking CLI option: (values inside, values outside).
POSITIVE = (["1e-9", "2.5e4", "1e308"],
            ["0", "-0.0", "-5", "nan", "inf", "-inf", "1e999", "abc", ""])
# the offset spread: finite, and so is the ensemble width, twice it
SPREAD = (["0", "-200", "8e307", "-8e307"],
          ["nan", "inf", "-inf", "1e999", "1e308", "-1e308", "x", ""])
FLOATS = (["1e-5", "1e-5,2e-5", "-1,0,1e308", " 3 , 4 "],
          ["nan", "1,inf", "1,-inf,2", "1,abc", "1;2", "0x10", "", ","])
INTS = (["1", "1,2", "-3,0,7"], ["1.5,2", "1e3", "one", "1,nan", "0x1", "", ","])
ORACLE_DOMAINS = {
    "--pulse-amp-hz": POSITIVE, "--amp-hz": POSITIVE, "--duration-s": POSITIVE,
    "--offset-spread-hz": SPREAD,
    "--seed": (["0", "7", "123456789"], ["-1", "1.5", "1e3", "nan", "inf", "", "one"]),
    "--max-iters": (["0", "3"], ["-1", "2.5", "1e3", "nan", ""]),
    "--segments": (["1", "100", "1048576"], ["0", "-3", "2.0", "inf", "", "1048577", "9" * 400]),
    "--durations": FLOATS, "--delays": FLOATS, "--params": FLOATS, "--omega-t": FLOATS,
    "--targets": INTS,
    "--l-values": (["1", "1,2", "1000", " 7 ,3"], ["0", "-3,0,7", "1001", "1,2000", *INTS[1]]),
    "--a": (["0", "11", "101"], ["", "2", "0101", "1a", "abc", "1 1"]),
    "--target-fidelity": (["1", "0.5", "1e-300"], ["0", "-0.5", "1.0000001", "2", "nan", "inf"]),
    "--epsilon": (["1", "-1", "0.5", "-1e-300", "1e-310"],
                  ["0", "-0.0", "1e-400", "2", "-1.5", "nan", "inf", "-inf"]),
    "--target": (["1", "4"], ["0", "5", "1.5", "x"]),
    "--path": (["ideal", "pulse"], ["bogus", "PULSE", ""]),
    "--relaxation": (["on", "off"], ["yes", ""]),
    # grape takes exactly one of --gate and --unitary; None leaves the option out
    "--gate": (["X90", "H"], [None]),
    "--unitary": ([None], ["u.json"]),
}
# Known-good requests: fixed words, then the options the oracle mutates (None: left out).
ORACLE_REQUESTS = [
    ("simulate --circuit=c.json", {"--path": "pulse", "--relaxation": "on",
                                   "--pulse-amp-hz": "2e4"}),
    ("tomography --state=rho.json", {"--path": "ideal", "--pulse-amp-hz": "2e4"}),
    ("compile --circuit=c.json", {"--pulse-amp-hz": "2e4"}),
    ("grape", {"--gate": "X90", "--unitary": None, "--targets": "1", "--params": "0.5",
               "--segments": "4", "--duration-s": "1e-4", "--max-iters": "2",
               "--target-fidelity": "0.99", "--seed": "1"}),
    ("experiment rabi", {"--amp-hz": "12500", "--durations": "1e-5,2e-5"}),
    ("experiment t1", {"--amp-hz": "12500", "--delays": "1e-3,1e-2"}),
    ("experiment t2", {"--delays": "1e-3,1e-2", "--offset-spread-hz": "50"}),
    ("algorithm grover4", {"--target": "3", "--path": "pulse", "--relaxation": "off"}),
    ("algorithm count --case=M2", {"--l-values": "1,2,3"}),
    ("algorithm bv", {"--a": "101", "--path": "pulse"}),
    ("algorithm qho", {"--omega-t": "0.5,1.0"}),
    ("algorithm dqc1 --unitary=u.json", {"--epsilon": "0.5"}),
]
# Options that name a file, a nucleus or a gate: no declared domain.
LABEL_OPTIONS = {"--machine", "--out", "--circuit", "--state", "--unitary", "--channel",
                 "--gate"}
ORACLE_PARSER = build_parser()


@st.composite
def domain_mutations(draw):
    """(argv, inside): an ORACLE_REQUESTS request with one option's value drawn from
    inside or outside its declared domain. Values go in as --option=value, so that
    argparse takes "-inf" and "-1e-300" for values, not for options."""
    words, options = draw(st.sampled_from(ORACLE_REQUESTS))
    option = draw(st.sampled_from(sorted(options)))
    inside = draw(st.booleans())
    options = {**options, option: draw(st.sampled_from(ORACLE_DOMAINS[option][not inside]))}
    return words.split() + [f"{k}={v}" for k, v in options.items() if v is not None], inside


def run_main(argv):
    """(exit code, stderr) of main, counting argparse's SystemExit as an exit code."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


def leaf_parsers(parser):
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        yield parser
    for action in subcommands:
        for sub in action.choices.values():
            yield from leaf_parsers(sub)


class TestDeclaredDomains:
    @settings(max_examples=200, deadline=None)
    @given(request=domain_mutations())
    def test_parser_rejects_exactly_the_values_outside(self, request):
        argv, inside = request
        if inside:  # never rejected by the parser; what the request reads is its own test
            ORACLE_PARSER.parse_args([*argv, "--out", "out"])
            return
        with tempfile.TemporaryDirectory() as tmp:
            argv = [*argv, "--out", str(Path(tmp) / "out")]
            with redirect_stderr(io.StringIO()), pytest.raises((ValidationError, SystemExit)):
                ORACLE_PARSER.parse_args(argv)
            rc, err = run_main(argv)
            assert rc == 2, (argv, err)
            assert len(err.splitlines()) == 1 and err.startswith("error: validation:"), err
            assert not (Path(tmp) / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["algorithm", "deutsch", "--relaxation=--"], ["algorithm", "deutsch", "--case=--"],
        ["simulate", "--circuit=--"], ["experiment", "t1", "--delays=--"],
        ["algorithm", "deutsch", "--out=--"],
    ], ids=["relaxation", "case", "circuit", "delays", "out"])
    def test_a_double_dash_is_no_value(self, tmp_path, argv):
        # argparse (3.11) read --relaxation=-- as [], unchecked: the run went on with
        # relaxation off and exit 0, and --out=-- ended in a TypeError traceback
        argv = [*argv, "--out", str(tmp_path / "out")]
        with redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
            ORACLE_PARSER.parse_args(argv)
        rc, err = run_main(argv)
        assert rc == 2 and err.startswith("error: validation: argument --") and len(
            err.splitlines()) == 1 and "'--' is no value" in err, err
        assert not (tmp_path / "out").exists()

    def test_every_option_has_a_domain(self):
        leaves = list(leaf_parsers(build_parser()))
        assert len(leaves) == 16  # 4 commands, 4 experiments, 8 algorithms
        undeclared, unfuzzed = [], set()
        for leaf in leaves:
            for action in leaf._actions:
                names = set(action.option_strings)
                if action.nargs == 0 or names & LABEL_OPTIONS:
                    continue
                if action.choices is not None:  # argparse checks the choices
                    continue
                if getattr(action.type, "__func__", None) is Option.parse:  # a declaration's
                    unfuzzed |= names - set(ORACLE_DOMAINS)
                else:
                    undeclared.append((leaf.prog, *names))
        assert not undeclared
        assert not unfuzzed  # the oracle draws from every declared domain

    @pytest.mark.parametrize("argv", [
        ["algorithm", "qho", "--omega-t", ""],
        ["experiment", "rabi", "--durations", ","],
        ["experiment", "t1", "--delays", ""],
        ["grape", "--gate", "X90", "--targets", ""],
    ], ids=["omega_t", "durations", "delays", "targets"])
    def test_empty_list_is_not_the_default(self, tmp_path, argv):
        # leaving the option out gives the default; an empty list is an error
        rc, err = run_main([*argv, "--out", str(tmp_path / "out")])
        assert rc == 2 and "need one or more values" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["algorithm", "dqc1", "--unitary=u.json", "--epsilon", "-1e-3"],
        ["algorithm", "dqc1", "--unitary=u.json", "--epsilon", "-.5"],
        ["algorithm", "qho", "--omega-t", "-1,2"],
        ["experiment", "t2", "--offset-spread-hz", "-5E+1"],
        ["grape", "--gate=X90", "--params", "-0.5,-1e-300"],
    ], ids=["epsilon_exponent", "epsilon", "omega_t", "offset_spread", "params"])
    def test_negative_number_parses_as_with_equals(self, argv):
        # argparse reads these as values only through the matcher cli._Parser sets; if a
        # later Python renames that hook, they exit 2 with "expected one argument"
        joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
        assert vars(ORACLE_PARSER.parse_args(argv)) == vars(ORACLE_PARSER.parse_args(joined))

    @pytest.mark.parametrize("argv, match", [
        (["simulate", "--circuit", "c.json", "--path", "bogus"], "invalid choice: 'bogus'"),
        (["simulate", "--circuit", "c.json", "--seed", "1"], "unrecognized arguments: --seed"),
        (["grape", "--gate", "X90", "--unitary", "u.json"], "not allowed with argument"),
        (["grape", "--segments", "4"], "one of the arguments --gate --unitary is required"),
        (["algorithm", "dqc1", "--unitary", "u.json", "--epsilon", "2"],
         "epsilon must satisfy 0 < |epsilon| <= 1"),
        (["experiment", "rabi", "--amp-hz", "abc"], "pulse amplitude must be > 0 and finite"),
        (["experiment", "rabi", "--amp-hz", "1e-309"], "amplitude_hz too small"),
        (["experiment", "t1", "--amp-hz", "1e-309"], "amplitude_hz too small"),
        ([], "the following arguments are required: command"),
    ], ids=["path_bogus", "unread_option", "gate_and_unitary", "neither_gate_nor_unitary",
            "epsilon_2", "amp_not_a_number", "amp_subnormal", "t1_amp_subnormal", "no_command"])
    def test_parser_errors_are_one_line(self, tmp_path, argv, match):
        rc, err = run_main([*argv, "--out", str(tmp_path / "out")] if argv else argv)
        assert rc == 2
        assert err.startswith("error: validation:") and match in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


# One request per leaf parser that reads a machine: the options each needs to parse, files
# it would read after. dqc1 takes no --machine.
LEAF_REQUESTS = [
    ["simulate", "--circuit", "c.json"], ["tomography", "--state", "rho.json"],
    ["compile", "--circuit", "c.json"], ["grape", "--gate", "X90"],
    *(["experiment", name] for name in ("rabi", "t1", "t2", "pps")),
    *(["algorithm", name] for name in ("deutsch", "grover4", "bv", "count", "bell", "qho",
                                       "cnot-table")),
]


# Every option that reads a file: the request it is given in and how errors name the file.
FILE_OPTIONS = [
    (["simulate"], "--circuit", "circuit file"), (["compile"], "--circuit", "circuit file"),
    (["tomography"], "--state", "state file"), (["grape"], "--unitary", "matrix file"),
    (["algorithm", "dqc1"], "--unitary", "matrix file"),
    (["experiment", "pps"], "--machine", "machine config"),
]
FILE_OPTION_IDS = [argv[-1] + option for argv, option, _ in FILE_OPTIONS]
# One field of the wrong JSON type in the FUZZ_DOCS document of each kind of input file:
# (id, path to the value, the value put there, the field the error must name)
WRONG_TYPES = {
    "circuit file": [
        ("numeric_string", ("gates", 0, "targets", 0), "1", "'targets'"),
        ("bool", ("n",), True, "'n'"),
        ("10**400", ("gates", 0, "params"), [10**400], "'params'"),
        ("2.7_for_an_integer", ("gates", 1, "targets", 1), 2.7, "'targets'"),
        ("ragged_rows", ("gates", 1, "matrix"), {"re": [[1.0, 0.0], [0.0]],
                                                 "im": [[0.0, 0.0], [0.0, 0.0]]}, "'re'"),
        ("3d_matrix", ("gates", 1, "matrix"), {"re": [[[1.0]]], "im": [[[0.0]]]}, "'re'"),
        ("re_im_shapes", ("gates", 1, "matrix"), {"re": [[1.0, 0.0], [0.0, 1.0]],
                                                  "im": [[0.0]]}, "'im'"),
    ],
    "state file": [
        ("numeric_string", ("n",), "2", "'n'"),
        ("bool", ("re", 0, 0), True, "'re'"),
        ("10**400", ("im", 1, 2), 10**400, "'im'"),
        ("2.7_for_an_integer", ("n",), 2.7, "'n'"),
        ("ragged_rows", ("re", 2), [0.25], "'re'"),
        ("3d_matrix", ("im",), [[[0.0]]], "'im'"),
        ("re_im_shapes", ("im",), [[0.0]], "'im'"),
    ],
    "matrix file": [  # no integer field
        ("numeric_string", ("re", 0, 0), "1", "'re'"),
        ("bool", ("im", 1, 1), True, "'im'"),
        ("10**400", ("re", 1, 1), 10**400, "'re'"),
        ("ragged_rows", ("im", 0), [0.0, 0.0, 0.0], "'im'"),
        ("3d_matrix", ("re",), [[[1.0]]], "'re'"),
        ("re_im_shapes", ("im",), [[0.0]], "'im'"),
    ],
    "machine config": [  # no integer field and no re/im pair
        ("numeric_string", ("nuclei", 0, "offset_hz"), "0", "'offset_hz'"),
        ("bool", ("nuclei", 1, "t1_s"), True, "'t1_s'"),
        ("number_for_a_string", ("nuclei", 0, "label"), 5, "'label'"),
        ("10**400", ("nuclei", 1, "polarization"), 10**400, "'polarization'"),
        ("ragged_rows", ("j_hz", 1), [697.4], "'j_hz'"),
        ("3d_matrix", ("j_hz",), [[[0.0]]], "'j_hz'"),
    ],
}
FUZZ_DOC_OF = {"circuit file": "circuit", "state file": "state", "matrix file": "unitary",
               "machine config": "machine"}
# A misspelled key in the FUZZ_DOCS document of each kind of input file, at its top and in
# each kind of nested object: (id, path to the object, the key put there, its value, the
# misspelled key)
UNKNOWN_KEYS = {
    "circuit file": [
        ("top", (), "gatess", [{"name": "X", "targets": [2]}], "gatess"),
        ("gate", ("gates", 0), "param", [0.5], "param"),
        ("gate_matrix", ("gates", 1), "matrix", {"re": np.eye(4).tolist(),
                                                 "im": np.zeros((4, 4)).tolist(), "imag": []},
         "imag"),
    ],
    "state file": [("top", (), "Re", (np.eye(4) / 4).tolist(), "Re")],
    "matrix file": [("top", (), "imag", [[0.0, 0.0], [0.0, 0.0]], "imag")],
    "machine config": [("top", (), "coupling", "weak", "coupling"),
                       ("nucleus", ("nuclei", 1), "t1", 6.0, "t1")],
}

# The declaration of each kind of input file, and a document of each whose objects hold
# every declared key: FUZZ_DOCS's, with a U gate added to the circuit
DECLARED = {"circuit file": control._CIRCUIT, "state file": quantum._STATE,
            "matrix file": quantum.COMPLEX, "machine config": spinsys._MACHINE}
FULL_DOCS = {**FUZZ_DOCS, "circuit": {**FUZZ_DOCS["circuit"], "gates": [
    *FUZZ_DOCS["circuit"]["gates"],
    {"name": "U", "targets": [2], "params": [], "matrix": FUZZ_DOCS["unitary"]}]}}


def object_at(doc, at):
    return functools.reduce(operator.getitem, at, doc)


def declared_objects(declared, doc, at=()):
    """(path, declaration) of the document doc and of each object that its declaration
    nests in it: gate, gate matrix, nucleus."""
    yield at, declared
    for key, spec in declared.items():
        kind = spec[0] if isinstance(spec, tuple) else spec
        if key in doc and kind == "complex":
            yield from declared_objects(quantum.COMPLEX, doc[key], (*at, key))
        elif key in doc and isinstance(kind, list):
            for i, item in enumerate(doc[key]):
                yield from declared_objects(kind[1], item, (*at, key, i))


def declared_keys(what):
    """(path to an object, its declaration, key) of each key in each object of the FULL_DOCS
    document of a kind of input file, from the declarations."""
    doc = FULL_DOCS[FUZZ_DOC_OF[what]]
    return [(at, declared, key) for at, declared in declared_objects(DECLARED[what], doc)
            for key in declared if key in object_at(doc, at)]


def key_id(at, key):
    return ".".join(map(str, (*at, key)))


# Every required key of every input file, and every optional one with its declared default
MISSING_KEYS = [
    pytest.param(argv, option, what, at, key, id=f"{argv[-1]}{option}-{key_id(at, key)}")
    for argv, option, what in FILE_OPTIONS for at, declared, key in declared_keys(what)
    if not isinstance(declared[key], tuple)]
OPTIONAL_KEYS = [
    pytest.param(what, at, declared, key, id=f"{FUZZ_DOC_OF[what]}-{key_id(at, key)}")
    for what in DECLARED for at, declared, key in declared_keys(what)
    if isinstance(declared[key], tuple)]


@st.composite
def package_objects(draw):
    """(object, decoder of its JSON document): a circuit of every gate, U and Delay included,
    a random density matrix, a preset or a random weak machine."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["circuit", "state", "machine"]))
    if kind == "state":
        return random_density_matrix(rng, draw(st.integers(1, 3))), DensityMatrix.from_json_dict
    decode_machine = functools.partial(spinsys._config_from_dict, source="machine")
    if kind == "machine":
        name = draw(st.sampled_from(["gemini", "triangulum", None]))
        if name is not None:
            return preset(name), decode_machine
        n = draw(st.integers(1, 3))
        j = np.triu(rng.uniform(-500.0, 500.0, (n, n)), 1)
        return make_weak_config(rng.uniform(-3e3, 3e3, n), j + j.T), decode_machine
    n = draw(st.integers(2, 3))
    gates = []
    for name in draw(st.permutations([*_GATES, "U"])):  # every gate, in any order
        targets = draw(st.permutations(range(1, n + 1)))
        if name == "U":
            k = draw(st.integers(1, 2))
            # -I has signed zeros in both parts, which re + 1j * im would not keep
            u = random_unitary(rng, 2**k) if draw(st.booleans()) else -np.eye(2**k, dtype=complex)
            gates.append(Gate("U", tuple(targets[:k]), (), u))
        else:
            k, n_params, _ = _GATES[name]
            params = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=n_params, max_size=n_params))
            gates.append(Gate(name, tuple(targets[:k]), tuple(params)))
    return Circuit(n, tuple(gates)), Circuit.from_json_dict


# Each parameter that a library layer declares and the CLI parses by that declaration: its
# declaration, a request that reads the option, and the library call that checks a value
LIBRARY_PARAMETERS = {
    "--pulse-amp-hz": (dynamics.PULSE_AMPLITUDE, "compile --circuit=c.json",
                       lambda v: compile_circuit(Circuit(2, ()), preset("gemini"), v)),
    "--segments": (control.GRAPE_OPTIONS["segments"], "grape --gate=X90",
                   lambda v: control.GrapeConfig(segments=v, dt_s=1e-5)),
    "--max-iters": (control.GRAPE_OPTIONS["max_iters"], "grape --gate=X90",
                    lambda v: control.GrapeConfig(segments=4, dt_s=1e-5, max_iters=v)),
    "--target-fidelity": (control.GRAPE_OPTIONS["target_fidelity"], "grape --gate=X90",
                          lambda v: control.GrapeConfig(segments=4, dt_s=1e-5,
                                                        target_fidelity=v)),
    "--initial": (control.GRAPE_OPTIONS["initial"], "grape --gate=X90",
                  lambda v: control.GrapeConfig(segments=4, dt_s=1e-5, initial=v)),
    "--seed": (control.SEED, "grape --gate=X90",
               lambda v: control.grape_optimize(np.eye(4), preset("gemini"), control.GrapeConfig(
                   segments=1, dt_s=1e-5, max_iters=0), seed=v)),
    "--offset-spread-hz": (experiments.OFFSET_SPREAD, "experiment t2",
                           lambda v: experiments.relaxation_experiment(
                               preset("gemini"), "1H", "T2", [1e-3, 2e-3, 4e-3, 8e-3, 16e-3],
                               offset_spread_hz=v, ensemble_points=2)),
    "--epsilon": (algorithms.EPSILON, "algorithm dqc1 --unitary=u.json",
                  lambda v: algorithms.dqc1_trace(np.eye(2), v)),
    "--durations": (quantum.FINITE_NUMBERS, "experiment rabi",
                    lambda v: experiments.rabi_calibration(preset("gemini"), "1H", durations_s=v)),
    "--delays": (quantum.FINITE_NUMBERS, "experiment t1",
                 lambda v: experiments.relaxation_experiment(preset("gemini"), "1H", "T1", v)),
}
NUMBERS = st.one_of(st.integers(-3, 3), st.integers(), st.floats(-2.0, 2.0), st.floats(),
                    st.sampled_from([np.nan, np.inf, -np.inf]))


class TestOneDomainPerParameter:
    @pytest.mark.parametrize("name", list(LIBRARY_PARAMETERS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_the_library_rejects_exactly_what_the_parser_rejects(self, name, data):
        option, words, call = LIBRARY_PARAMETERS[name]
        values = st.one_of(NUMBERS, st.booleans(), NUMBERS.map(str),
                           st.sampled_from(option.choices or [""]))
        value = data.draw(st.one_of(st.lists(values, max_size=10), values) if option.listed
                          else values)
        says = option.rule or f"must be one of {option.choices}"
        if option.listed and not isinstance(value, list):
            # the parser reads every text as a list, so no text is a bare value; the library
            # rejects it as declared
            with pytest.raises(ValidationError, match=f"^{re.escape(says)}$"):
                call(value)
            return
        # what a user types for the value: a string option's string itself, any other value
        # its JSON literal, so that a string is quoted, True is true and nan is NaN; a list
        # its entries' texts, comma-separated
        text = (",".join(map(json.dumps, value)) if option.listed
                else value if option.kind is str and isinstance(value, str) else json.dumps(value))
        try:
            ORACLE_PARSER.parse_args([*words.split(), f"{name}={text}", "--out", "out"])
            parsed = True
        except ValidationError as exc:
            assert str(exc).endswith(says)
            parsed = False
        try:
            call(value)
            rejected = False
        except ValidationError as exc:  # rejected as the declaration says, or later
            rejected = str(exc).endswith(says)
        except NmrqcError:  # a value inside the domain can still fail the run: a FitError
            rejected = False
        assert rejected == (not parsed), (value, text)


class TestPathDomain:
    @settings(max_examples=40, deadline=None)
    @given(path=st.one_of(st.sampled_from(algorithms.PATH.choices), st.text(max_size=6),
                          st.none(), st.booleans(), NUMBERS))
    def test_the_runner_rejects_exactly_the_paths_outside_the_declaration(self, path):
        try:
            algorithms.run("deutsch", path=path)
            rejected = False
        except ValidationError as exc:
            assert str(exc) == algorithms.PATH.rule
            rejected = True
        assert rejected == (path not in algorithms.PATH.choices)

    def test_the_parser_takes_the_choices_and_default_from_the_declaration(self):
        actions = [action for leaf in leaf_parsers(build_parser()) for action in leaf._actions
                   if "--path" in action.option_strings]
        assert len(actions) == 9  # simulate, tomography and the seven table algorithms
        for action in actions:
            assert action.choices == algorithms.PATH.choices
            assert action.default == algorithms.PATH.default


class TestOnePathPerJob:
    def test_simulate_compiles_at_the_requested_amplitude(self, tmp_path):
        # every README request runs at the default amplitude; only this reads another
        doc = {"n": 2, "gates": [{"name": "H", "targets": [1]},
                                 {"name": "CNOT", "targets": [1, 2]}]}
        circuit = write_json(tmp_path / "c.json", doc)
        reports = {}
        for amp in ("1e5", None):
            out = tmp_path / str(amp)
            argv = ["simulate", "--circuit", circuit, "--path", "pulse", "--out", str(out)]
            assert main(argv + ["--pulse-amp-hz", amp] * (amp is not None)) == 0
            reports[amp] = json.loads((out / "simulate_report.json").read_text())
        program = compile_circuit(Circuit.from_json_dict(doc), preset("gemini"), 1e5)
        rho = evolve_program(DensityMatrix.basis(2, 0), program)
        assert reports["1e5"]["final_state"] == _canonical(rho.to_json_dict())
        assert reports["1e5"]["fidelity"] < reports[None]["fidelity"]

    @pytest.mark.parametrize("make", [
        lambda: DensityMatrix.basis(2, 1),
        lambda: compile_circuit(Circuit(2, (Gate("CNOT", (1, 2)),)), preset("gemini")),
        lambda: algorithms.run_deutsch("f3"),
        lambda: measurement.Peak(-348.7, complex(0.25, -1e-3)),
    ], ids=["density_matrix", "pulse_program", "algorithm_report", "peak"])
    def test_a_report_object_serializes_as_its_json_dict(self, tmp_path, make):
        obj = make()
        assert _canonical(obj) == _canonical(obj.to_json_dict())
        a = cli.emit_report({"x": [obj]}, "json", tmp_path / "a.json").read_bytes()
        b = cli.emit_report({"x": [obj.to_json_dict()]}, "json", tmp_path / "b.json").read_bytes()
        assert a == b

    def test_unsorted_keys_are_written_sorted(self, tmp_path):
        path = cli.emit_report({"b": 1, "a": {"d": 2.0, "c": [3]}}, "json", tmp_path / "r.json")
        assert path.read_text() == (
            '{\n  "a": {\n    "c": [\n      3\n    ],\n    "d": 2.0\n  },\n  "b": 1\n}\n')

    def test_the_parser_loads_the_machine(self):
        args = build_parser().parse_args(["experiment", "pps"])
        assert args.machine == preset("gemini")
        args = build_parser().parse_args(["compile", "--circuit", "c.json", "--machine",
                                          "triangulum"])
        assert args.machine == preset("triangulum")

    @pytest.mark.parametrize("argv", LEAF_REQUESTS,
                             ids=lambda a: a[1] if a[0] in ("experiment", "algorithm") else a[0])
    def test_a_missing_machine_file_is_one_line_before_anything_runs(self, tmp_path, argv):
        argv = [*argv, "--machine", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")]
        with pytest.raises(ValidationError, match="nope.json"):
            build_parser().parse_args(argv)
        rc, err = run_main(argv)
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert err.startswith("error: validation: cannot read machine config") and "nope" in err
        assert not (tmp_path / "out").exists()

    def test_a_bad_machine_file_is_one_line(self, tmp_path):
        machine = machine_file(tmp_path, lambda cfg: cfg.update(coupling_model="dipolar"))
        rc, err = run_main(["experiment", "pps", "--machine", machine,
                            "--out", str(tmp_path / "out")])
        assert rc == 2 and len(err.splitlines()) == 1 and "coupling_model" in err, err
        assert not (tmp_path / "out").exists()


class TestInputFiles:
    @pytest.mark.parametrize("kind", ["missing", "directory", "not text"])
    @pytest.mark.parametrize("argv, option, what", FILE_OPTIONS, ids=FILE_OPTION_IDS)
    def test_an_unreadable_input_file_is_one_line(self, tmp_path, argv, option, what, kind):
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not text":
            path.write_bytes(b"\xff\xfe{}")  # not UTF-8
        rc, err = run_main([*argv, option, str(path), "--out", str(tmp_path / "out")])
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: validation: cannot read {what} {path}: "), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [[], "abc", {"n": 1, "gates": [5]},
                                     {"n": 1, "gates": {"name": "X", "targets": [1]}}],
                             ids=["list", "string", "gate_a_number", "gates_an_object"])
    @pytest.mark.parametrize("argv, option, what", FILE_OPTIONS, ids=FILE_OPTION_IDS)
    def test_a_document_of_the_wrong_shape_is_one_line(self, tmp_path, argv, option, what, doc):
        path = write_json(tmp_path / "input.json", doc)
        rc, err = run_main([*argv, option, path, "--out", str(tmp_path / "out")])
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: validation: {path}: "), err
        assert "indices" not in err and "iterable" not in err, err  # no Python type error
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, option, what", FILE_OPTIONS, ids=FILE_OPTION_IDS)
    def test_deep_nesting_is_one_line(self, tmp_path, argv, option, what):
        path = tmp_path / "input.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        rc, err = run_main([*argv, option, str(path), "--out", str(tmp_path / "out")])
        assert rc == 2 and err == f"error: validation: {path}: JSON nested too deeply\n", err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, option, what, at, value, name", [
        pytest.param(argv, option, what, at, value, name, id=f"{argv[-1]}{option}-{case}")
        for argv, option, what in FILE_OPTIONS for case, at, value, name in WRONG_TYPES[what]])
    def test_a_field_of_the_wrong_type_is_one_line(self, tmp_path, argv, option, what, at,
                                                   value, name):
        doc = copy.deepcopy(FUZZ_DOCS[FUZZ_DOC_OF[what]])
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        parent[at[-1]] = value
        path = write_json(tmp_path / "input.json", doc)
        rc, err = run_main([*argv, option, path, "--out", str(tmp_path / "out")])
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: validation: {path}: ") and name in err, err
        for python_text in ("indices", "iterable", "object is not", "int too large"):
            assert python_text not in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, option, what, at, key, value, unknown", [
        pytest.param(argv, option, what, *edit, id=f"{argv[-1]}{option}-{case}")
        for argv, option, what in FILE_OPTIONS for case, *edit in UNKNOWN_KEYS[what]])
    def test_an_unknown_key_is_one_line(self, tmp_path, argv, option, what, at, key, value,
                                        unknown):
        doc = copy.deepcopy(FUZZ_DOCS[FUZZ_DOC_OF[what]])
        parent = doc
        for step in at:
            parent = parent[step]
        parent[key] = value
        path = write_json(tmp_path / "input.json", doc)
        rc, err = run_main([*argv, option, path, "--out", str(tmp_path / "out")])
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: validation: {path}: ") and f"unknown field {unknown!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, option, what, at, key", MISSING_KEYS)
    def test_a_missing_key_is_one_line(self, tmp_path, argv, option, what, at, key):
        doc = copy.deepcopy(FULL_DOCS[FUZZ_DOC_OF[what]])
        del object_at(doc, at)[key]
        path = write_json(tmp_path / "input.json", doc)
        rc, err = run_main([*argv, option, path, "--out", str(tmp_path / "out")])
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: validation: {path}: ") and f"has no {key!r} field" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("what, at, declared, key", OPTIONAL_KEYS)
    def test_a_missing_optional_key_reads_as_its_default(self, what, at, declared, key):
        doc = copy.deepcopy(object_at(FULL_DOCS[FUZZ_DOC_OF[what]], at))
        values = quantum.read(doc, declared, what)
        del doc[key]
        expected = {**values, key: declared[key][1]}
        assert _canonical(quantum.read(doc, declared, what)) == _canonical(expected)

    def test_a_machine_without_a_name_is_named_by_its_path(self, tmp_path):
        machine = machine_file(tmp_path, lambda cfg: cfg.pop("name"))
        assert spinsys.load_machine_config(machine) == replace(preset("gemini"), name=machine)

    def test_each_writer_writes_its_declared_keys(self):
        rng = np.random.default_rng(33)
        j = np.triu(rng.uniform(-500.0, 500.0, (3, 3)), 1)
        docs = {
            "circuit file": Circuit(2, (Gate("U", (2, 1), (), random_unitary(rng, 4)),)),
            "machine config": make_weak_config(rng.uniform(-3e3, 3e3, 3), j + j.T),
            "state file": random_density_matrix(rng, 2),
        }
        docs = {what: obj.to_json_dict() for what, obj in docs.items()}
        docs["matrix file"] = quantum.complex_json(random_unitary(rng, 2))
        assert docs.keys() == DECLARED.keys()
        for what, doc in docs.items():
            for at, declared in declared_objects(DECLARED[what], doc):
                assert object_at(doc, at).keys() == declared.keys(), (what, at)

    @pytest.mark.parametrize("kind, decode", [
        ("circuit", Circuit.from_json_dict), ("state", DensityMatrix.from_json_dict),
        ("unitary", cli._matrix),
        ("machine", functools.partial(spinsys._config_from_dict, source="machine"))])
    def test_notes_are_allowed_in_every_object(self, kind, decode):
        def noted(doc):
            if isinstance(doc, dict):
                return {"_note": "a note", **{k: noted(v) for k, v in doc.items()}}
            return [noted(v) for v in doc] if isinstance(doc, list) else doc

        doc = copy.deepcopy(FUZZ_DOCS[kind])
        if kind == "circuit":
            doc["gates"].append({"name": "U", "targets": [2], "matrix": FUZZ_DOCS["unitary"]})
        assert _canonical(decode(noted(doc))) == _canonical(decode(doc))
        assert [preset(name) for name in spinsys.PRESETS]  # whose files carry notes

    @settings(max_examples=60)
    @given(made=package_objects())
    def test_what_the_package_writes_decodes_to_an_equal_object(self, made):
        obj, decode = made
        text = json.dumps(obj.to_json_dict())
        again = decode(json.loads(text))
        assert type(again) is type(obj)
        if not isinstance(obj, DensityMatrix):  # which compares by identity
            assert again == obj
        # float reprs round-trip, so equal text is every matrix and number bit for bit
        assert json.dumps(again.to_json_dict()) == text


class TestExitCodes:
    """Exit 3 for a numerical failure and 4 for an output that cannot be written, each with
    one line; a write that fails leaves no temporary file behind."""

    def test_data_without_signal_exits_3(self, tmp_path):
        machine = machine_file(tmp_path, lambda cfg: [nucleus.update(polarization=0.0)
                                                      for nucleus in cfg["nuclei"]])
        rc, err = run_main(["experiment", "t1", "--channel", "1H", "--machine", machine,
                            "--out", str(tmp_path / "out")])
        assert rc == 3 and err == "error: numerical: data carries no signal\n"

    def test_an_out_that_is_a_file_exits_4(self, tmp_path):
        (tmp_path / "out").write_text("taken")
        rc, err = run_main(["algorithm", "deutsch", "--out", str(tmp_path / "out")])
        assert rc == 4 and err.startswith("error: io: ") and len(err.splitlines()) == 1, err
        assert (tmp_path / "out").read_text() == "taken"

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path):
        circuit = write_json(tmp_path / "c.json", BELL_CIRCUIT)
        (tmp_path / "out" / "pulse_program.json").mkdir(parents=True)
        rc, err = run_main(["compile", "--circuit", circuit, "--out", str(tmp_path / "out")])
        assert rc == 4 and err.startswith("error: io: ") and len(err.splitlines()) == 1, err
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["pulse_program.json"]
        assert not any((tmp_path / "out" / "pulse_program.json").iterdir())


def child_modules(tmp_path, argv):
    """The package modules a fresh interpreter holds after main(argv), and its exit code."""
    script = (
        "import json, sys\n"
        "from nmrqc.cli import main\n"
        "try:\n"
        f"    rc = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('nmrqc'))]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=60, cwd=tmp_path)
    rc, modules = json.loads(done.stdout.splitlines()[-1])
    return rc, {m.removeprefix("nmrqc.") for m in modules}


LATE_LAYERS = {"control", "_lbfgs", "algorithms", "experiments", "measurement"}


class TestCommandTable:
    def test_each_algorithm_is_one_entry(self):
        assert [path.split()[1] for path in cli.COMMANDS if path.startswith("algorithm ")] == [
            *algorithms.ALGORITHMS, "dqc1"]

    def test_main_builds_the_parser_of_one_entry(self, tmp_path, monkeypatch):
        built = []

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.prog)

        monkeypatch.setattr(cli, "_Parser", Counted)
        argv = ["experiment", "t1", "--delays", "1e-3,1e-2,0.1,1,4,10", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert built == ["nmrqc", "nmrqc experiment", "nmrqc experiment t1"]

    @pytest.mark.parametrize("argv, words", [
        (["--help"], ["simulate", "tomography", "compile", "grape", "experiment", "algorithm"]),
        (["experiment", "--help"], ["rabi", "t1", "t2", "pps"]),
        (["algorithm", "-h"], [*algorithms.ALGORITHMS, "dqc1"]),
    ], ids=["top", "experiment", "algorithm"])
    def test_help_lists_the_table(self, capsys, argv, words):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr().out
        assert exc.value.code == 0 and all(f" {word} " in out for word in words), out

    @pytest.mark.parametrize("argv, match", [
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'simulate', "),
        (["experiment", "t3"], "argument experiment: invalid choice: 't3' (choose from 'rabi', "),
        (["experiment"], "the following arguments are required: experiment"),
        (["simulate"], "one of the arguments --circuit is required"),
        (["algorithm", "dqc1"], "one of the arguments --unitary is required"),
    ], ids=["unknown", "unknown_experiment", "no_experiment", "no_circuit", "no_unitary"])
    def test_a_bad_command_is_one_line(self, tmp_path, monkeypatch, argv, match):
        monkeypatch.chdir(tmp_path)  # the default --out
        rc, err = run_main(argv)
        assert rc == 2 and err.startswith("error: validation: ") and match in err, err
        assert len(err.splitlines()) == 1 and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, absent", [
        (["experiment", "t1", "--delays", "1e-3,1e-2,0.1,1,4,10"],
         {"control", "_lbfgs", "algorithms"}),
        (["compile", "--circuit", "c.json"], {"experiments", "measurement", "algorithms", "_lbfgs"}),
        (["--help"], LATE_LAYERS),
        (["bogus"], LATE_LAYERS),
    ], ids=["t1", "compile", "help", "unknown"])
    def test_a_request_imports_only_the_layers_it_runs(self, tmp_path, argv, absent):
        write_json(tmp_path / "c.json", BELL_CIRCUIT)
        rc, modules = child_modules(tmp_path, [*argv, "--out", "out"])
        assert rc in (0, 2) and modules and not modules & absent, modules

    def test_an_unknown_object_or_format_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="^cannot serialize object$"):
            _canonical({"x": [object()]})
        with pytest.raises(ValidationError, match="^unknown report format 'xml'$"):
            cli.emit_report({"x": 1}, "xml", tmp_path / "r.xml")
        assert not (tmp_path / "r.xml").exists()


class TestLazyExports:
    def test_a_name_outside_the_api_is_an_attribute_error(self):
        assert getattr(nmrqc, "NUMBA_ENABLED", None) is None
        with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
            nmrqc.bogus

    def test_each_public_name_is_its_layers(self):
        for name in nmrqc.__all__:
            layer = getattr(nmrqc, nmrqc._LAYER_OF[name])
            assert getattr(nmrqc, name) is getattr(layer, name)
            assert layer.__name__ == f"nmrqc.{nmrqc._LAYER_OF[name]}"

    def test_importing_the_package_imports_no_layer(self, tmp_path):
        script = "import sys, nmrqc\nprint(sorted(m for m in sys.modules if m.startswith('nmrqc')))"
        done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                              text=True, timeout=60)
        assert done.stdout.split() == ["['nmrqc']"], done.stderr
