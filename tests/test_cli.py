import json

import numpy as np
import pytest

from nmrqc.cli import main
from nmrqc.quantum import DensityMatrix


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
