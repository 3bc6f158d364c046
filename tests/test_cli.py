import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nmrqc
from nmrqc import measurement
from nmrqc.cli import _canonical, dispatch, main
from nmrqc.control import Circuit, Gate, compile_circuit
from nmrqc.dynamics import program_unitary
from nmrqc.quantum import DensityMatrix
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
    ], ids=["n40", "n0", "n3_on_gemini"])
    def test_circuit_size_exits_2(self, tmp_path, capsys, circuit, match):
        circuit = write_json(tmp_path / "c.json", circuit)
        rc = main(["simulate", "--machine", "gemini", "--circuit", circuit, "--path", "ideal",
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: validation:") and match in err
        assert len(err.strip().splitlines()) == 1

    def test_byte_identical_reruns(self, tmp_path):
        circuit = write_json(tmp_path / "bell.json", BELL_CIRCUIT)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["simulate", "--circuit", circuit, "--path", "pulse",
                         "--seed", "7", "--out", str(out)]) == 0
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

    def test_grape_artifacts(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["grape", "--gate", "X90", "--targets", "1", "--segments", "20",
                   "--duration-s", "4e-4", "--max-iters", "60",
                   "--target-fidelity", "0.99", "--seed", "1", "--out", str(out)])
        assert rc == 0
        lines = (out / "grape_pulse.csv").read_text().splitlines()
        assert lines[0] == "segment_index,channel,u_x_hz,u_y_hz"
        assert len(lines) == 1 + 20 * 2
        meta = json.loads((out / "grape_meta.json").read_text())
        assert meta["final_fidelity"] >= 0.99
        assert meta["seed"] == 1


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

    def test_grape_unitary_without_im(self, tmp_path, capsys):
        upath = write_json(tmp_path / "u.json", {"re": np.eye(4).tolist()})
        rc = main(["grape", "--unitary", upath, "--segments", "4",
                   "--out", str(tmp_path / "out")])
        self.assert_one_line_exit_2(rc, capsys)

    def test_dqc1_unitary_without_re(self, tmp_path, capsys):
        upath = write_json(tmp_path / "u.json", {"im": np.zeros((2, 2)).tolist()})
        rc = main(["algorithm", "dqc1", "--unitary", upath, "--out", str(tmp_path / "out")])
        self.assert_one_line_exit_2(rc, capsys)


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
    ], ids=["nan_t1", "nan_polarization", "inf_offset", "nan_j"])
    def test_machine_value(self, tmp_path, capsys, edit):
        machine = machine_file(tmp_path, edit)
        rc = main(["algorithm", "grover4", "--machine", machine, "--out", str(tmp_path / "o")])
        self.assert_one_line_exit_2(rc, capsys, "finite")

    @pytest.mark.parametrize("argv", [
        ["experiment", "t2", "--offset-spread-hz", "nan"],
        ["experiment", "t2", "--offset-spread-hz", "inf"],
        ["experiment", "t2", "--offset-spread-hz", "1e308"],
        ["experiment", "rabi", "--amp-hz", "nan"],
        ["experiment", "rabi", "--durations", "1e-5,2e-5,3e-5,4e-5,5e-5,6e-5,7e-5,inf"],
        ["experiment", "t1", "--delays", "1e-3,2e-3,nan,4e-3,5e-3,6e-3"],
        ["simulate", "--path", "pulse", "--pulse-amp-hz", "nan", "--circuit", "{circuit}"],
    ], ids=["t2_spread", "t2_spread_inf", "t2_spread_1e308", "rabi_amp", "rabi_duration",
            "t1_delay", "pulse_amp"])
    def test_pulse_argument(self, tmp_path, capsys, argv):
        circuit = write_json(tmp_path / "bell.json", BELL_CIRCUIT)
        argv = [a.format(circuit=circuit) for a in argv]
        rc = main([*argv, "--out", str(tmp_path / "o")])
        self.assert_one_line_exit_2(rc, capsys, "finite")

    def test_zero_qubit_state(self, tmp_path, capsys):
        state = write_json(tmp_path / "rho.json", {"n": 0, "re": [[1.0]], "im": [[0.0]]})
        rc = main(["tomography", "--state", state, "--out", str(tmp_path / "o")])
        self.assert_one_line_exit_2(rc, capsys, "must be >= 1")


README_REQUESTS = [
    ["simulate", "--machine", "gemini", "--circuit", "{bell}", "--path", "pulse"],
    ["compile", "--circuit", "{bell}"],
    ["tomography", "--state", "{rho}"],
    ["tomography", "--state", "{rho}", "--path", "pulse"],
    ["grape", "--gate", "X90", "--targets", "1", "--machine", "triangulum", "--segments",
     "100", "--duration-s", "1.5e-3", "--target-fidelity", "0.995", "--seed", "1"],
    ["experiment", "rabi", "--channel", "1H", "--amp-hz", "12500"],
    ["experiment", "t1", "--channel", "1H"],
    ["experiment", "t2", "--channel", "1H", "--offset-spread-hz", "200"],
    ["experiment", "pps"],
    ["algorithm", "grover4", "--target", "3"],
    ["algorithm", "deutsch", "--case", "f3", "--path", "pulse"],
    ["algorithm", "count", "--case", "M2", "--l-values", "1,2,3,4,5"],
    ["algorithm", "qho", "--initial", "n0_plus_n3"],
    ["algorithm", "dqc1", "--unitary", "{u}", "--epsilon", "1.0"],
    ["algorithm", "cnot-table", "--direction", "21"],
]


@pytest.fixture
def readme_inputs(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T))
    u = np.array([[np.cos(0.7), -1j * np.sin(0.7)], [-1j * np.sin(0.7), np.cos(0.7)]])
    return {
        "bell": write_json(tmp_path / "bell.json", {"n": 2, "gates": [
            {"name": "H", "targets": [1], "params": []},
            {"name": "CNOT", "targets": [1, 2], "params": []}]}),
        "rho": write_json(tmp_path / "rho.json", rho.to_json_dict()),
        "u": write_json(tmp_path / "u.json", {"re": u.real.tolist(), "im": u.imag.tolist()}),
        "state": rho,
    }


class TestReadmeRequests:
    @pytest.mark.parametrize("argv", README_REQUESTS,
                             ids=lambda a: "-".join(x for x in a[:2] if x[0] not in "-{"))
    def test_rerun_is_byte_identical(self, tmp_path, readme_inputs, argv):
        argv = [a.format(**readme_inputs) for a in argv]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main([*argv, "--out", str(out)]) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0] and outs[0] == outs[1]

    # sha256 of each scan report of the README requests: pps recorded before the
    # scans were evolved as batches, rabi/t1/t2 re-recorded for the closed-form
    # separable fits; a change to the scan path must keep them.
    SCAN_REPORTS = {
        "rabi": {
            "rabi_fit.json": "4efeb06e6457edbf1b0e468a5c4dfcbde4f0e6efb6d290e1a56496da1f1db70c",
            "rabi_scan.csv": "2acb1aa8c06ae797bd98bd35614e7e126e76e07d3074af0e85689ad584c1ab2d",
        },
        "t1": {
            "t1_fit.json": "a3e3b1cecf295317026ebf265c6bc47528084922b9baa6d050ae3ce8d9662968",
            "t1_scan.csv": "0932f215f8d3eaf05b20d3e1655d9eeb55b53a4a521a1a9987cd0d210ad35cca",
        },
        "t2": {
            "t2_fit.json": "3ec22c46739c75158cc7cf28b6fb5087389d7563c41e7f295b39f6130de16a3d",
            "t2_scan.csv": "011e44cf7f509614913c1a02b5646ec501f9538576c1c43e1c641f02ea87abf3",
        },
        "pps": {
            "pps_report.json": "6334ebc43d04c413fae6d08c8b094d6de27b8146e02214a905292e40bc3d3b0a",
        },
    }

    @pytest.mark.parametrize("argv", [a for a in README_REQUESTS if a[0] == "experiment"],
                             ids=lambda a: a[1])
    def test_scan_reports_are_pinned(self, tmp_path, argv):
        assert dispatch([*argv, "--out", str(tmp_path)]) == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in tmp_path.iterdir()}
        assert digests == self.SCAN_REPORTS[argv[1]]

    def test_pulse_tomography_tables_are_the_compiled_readout(self, tmp_path, readme_inputs):
        out = tmp_path / "out"
        assert main(["tomography", "--state", readme_inputs["rho"], "--path", "pulse",
                     "--out", str(out)]) == 0
        report = json.loads((out / "tomography_report.json").read_text())
        cfg, rho = preset("gemini"), readme_inputs["state"]
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
    """`import nmrqc` and the scan experiments run on numpy alone; scipy.optimize
    is imported only by the commands that need it."""

    def run(self, tmp_path, argv, module):
        script = (
            "import sys\n"
            "import nmrqc\n"
            "from nmrqc.cli import dispatch\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            f"for argv in {argv!r}:\n"
            f"    assert dispatch([*argv, '--out', {str(tmp_path)!r}]) == 0\n"
            f"print({module!r} in sys.modules)\n"
        )
        src = str(Path(nmrqc.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_scans_never_import_scipy(self, tmp_path):
        argv = [["experiment", "t1"], ["experiment", "rabi"]]
        assert self.run(tmp_path, argv, "scipy") == "False"

    def test_grape_imports_scipy_optimize_on_demand(self, tmp_path):
        argv = [["grape", "--gate", "X90", "--segments", "5", "--duration-s", "1e-4",
                 "--max-iters", "2", "--seed", "1"]]
        assert self.run(tmp_path, argv, "scipy.optimize") == "True"
