"""Seeded job lists for the benchmark's workloads, and the checks on each job.

A run of a workload is a fixed list of independent jobs, sized from
``--seconds`` by ``Workload.job_count``. Job ``i`` is a pure function of
``(seed, i)``, so a seed names one exact list, with the same results and the
same failures in every run. Job kinds rotate in a fixed cycle and the seed
draws everything else (gates, angles, GRAPE starting points, relaxation
times), which keeps the mix of cheap and expensive jobs the same in every run.

* ``grape``: GRAPE solves to a stated fidelity, each cross-checked through
  the dynamics layer. Time goes to the control layer and its propagators.
* ``circuits``: random circuits and algorithm runners on the pulse path,
  read out by tomography. Time goes to measurement and to single-event
  propagation.
* ``scans``: Rabi, T1 and T2 calibration scans and pseudo-pure preparation on
  machine variants. Time goes to relaxation-on evolution over many small
  programs and many distinct configs.

Every call into the package runs inside ``tracer.span(<layer>.<what>)``; the
layer names are the package's modules.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from nmrqc import (algorithms, cli, control, dynamics, errors, experiments, measurement, quantum,
                   spinsys)

# Check tolerances. A job fails when any check fails or a call raises; it still
# runs all of its steps, so a failing job costs as much as a passing one.
PULSE_INFIDELITY_TOL = 1e-6  # 1 - F of the pulse path against the ideal path, relaxation off
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9
TOMOGRAPHY_TOL = 1e-9  # max |rho_hat - rho|
GRAPE_CROSS_TOL = 1e-9  # max |U(rebuilt program) - U(GRAPE result)|
SCAN_REL_TOL = 0.05  # fitted T1, T2 and t180 against the drawn machine values; the
# echo fit reads T2 1.5-3 % short on this delay grid, so "a few percent" is 5 %
PPS_REL_TOL = 1e-6  # pseudo-pure deviation pattern, relative to the polarization

POLARIZATION = 1e-5


def weak3_machine() -> spinsys.SpinSystemConfig:
    """Three heteronuclear spins, weak coupling, distinct positive J (Hz)."""
    nuclei = (
        spinsys.NucleusSpec("1H", 0.0, 3.0, 0.3, POLARIZATION),
        spinsys.NucleusSpec("13C", 0.0, 5.0, 0.4, POLARIZATION),
        spinsys.NucleusSpec("15N", 0.0, 6.0, 0.5, POLARIZATION),
    )
    j = np.array([[0.0, 140.0, 48.0], [140.0, 0.0, 190.0], [48.0, 190.0, 0.0]])
    return spinsys.SpinSystemConfig("weak3", nuclei, j, "weak")


def load_machines() -> dict[str, spinsys.SpinSystemConfig]:
    return {
        "gemini": spinsys.preset("gemini"),
        "triangulum": spinsys.preset("triangulum"),
        "weak3": weak3_machine(),
    }


@dataclass(frozen=True)
class Job:
    index: int
    kind: str
    args: dict


@dataclass
class Outcome:
    kind: str
    failed: tuple[str, ...]
    counts: Counter
    digest: str
    note: str = ""  # why the job failed, beyond its check names


class _JobRun:
    """Check results, exact counts and a digest of the reports of one job."""

    def __init__(self, kind: str, out_dir: Path, tracer):
        self.out_dir = out_dir
        self.tracer = tracer
        self.failed: list[str] = []
        self.note = ""
        self.counts: Counter = Counter()
        self.hash = hashlib.sha256(kind.encode())

    def check(self, name: str, ok) -> None:
        if not ok:
            self.failed.append(name)

    def emit(self, obj, fmt: str, filename: str) -> None:
        # Reports are canonical (12 significant digits, sorted keys), so their
        # bytes are the job's result for the digest.
        with self.tracer.span("cli.emit_report"):
            path = cli.emit_report(obj, fmt, self.out_dir / filename)
        data = path.read_bytes()
        self.hash.update(data)
        self.counts["cli.report_bytes"] += len(data)


def _physical(m: np.ndarray) -> bool:
    herm = np.max(np.abs(m - m.conj().T))
    tr = np.trace(m)
    lo = np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))
    return herm <= HERMITICITY_TOL and abs(tr - 1.0) <= TRACE_TOL and lo >= -EIGENVALUE_TOL


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


# --------------------------------------------------------------------- grape

# segments, total duration (s), target fidelity, iteration cap.
GRAPE_SETTINGS = {
    "gemini": (16, 4e-4, 0.9, 400),
    "triangulum": (20, 1e-3, 0.9, 100),
}
# At the seed a gemini X90, Y90 or Rx solve either lands near its target in
# its first steps (under 25 ms) or climbs for 60-200 ms, depending on the
# random start, about half the time each; H almost always lands. Half the
# cycle is H, so about 70 % of jobs land quickly and the latency median sits
# well inside that group instead of flipping between the two from seed to
# seed. The climbing solves still take most of the time.
GRAPE_CYCLE = (
    ("gemini", "X90"), ("gemini", "H"), ("gemini", "Rx"), ("gemini", "H"),
    ("gemini", "Y90"), ("gemini", "H"), ("gemini", "Rx"), ("gemini", "H"),
    ("triangulum", "X90"), ("gemini", "H"),
)


def grape_job(seed: int, index: int, machines) -> Job:
    rng = _rng(seed, index)
    machine, gate = GRAPE_CYCLE[index % len(GRAPE_CYCLE)]
    params = (float(rng.uniform(0.5, 2.5)),) if gate == "Rx" else ()
    qubit = int(rng.integers(1, machines[machine].n + 1))
    segments, duration, fidelity, max_iters = GRAPE_SETTINGS[machine]
    gcfg = control.GrapeConfig(segments=segments, dt_s=duration / segments,
                               max_iters=max_iters, target_fidelity=fidelity)
    return Job(index, f"grape_{machine}", {
        "machine": machines[machine],
        "gate": control.Gate(gate, (qubit,), params),
        "gcfg": gcfg,
        "grape_seed": int(rng.integers(2**31)),
    })


def run_grape(job: Job, run: _JobRun) -> None:
    tr = run.tracer
    cfg, gcfg = job.args["machine"], job.args["gcfg"]
    with tr.span("control.gate_matrix"):
        target = control.gate_matrix(job.args["gate"], cfg.n)
    with tr.span("control.grape"):
        res = control.grape_optimize(target, cfg, gcfg, seed=job.args["grape_seed"])
    run.counts["control.grape_iterations"] += res.iterations
    # Rebuild the pulse from its (u_x, u_y) amplitudes and propagate it
    # through the dynamics layer: the two propagator paths must agree.
    n_ch = len(res.channels)
    events = tuple(
        dynamics.RfSegment(
            tuple(float(np.hypot(row[2 * c], row[2 * c + 1])) for c in range(n_ch)),
            tuple(float(np.arctan2(row[2 * c + 1], row[2 * c])) for c in range(n_ch)),
            res.dt_s,
        )
        for row in res.amplitudes_hz
    )
    with tr.span("dynamics.program_unitary"):
        u = dynamics.program_unitary(dynamics.PulseProgram(cfg, events))
    run.counts["dynamics.program_unitary_segments"] += len(events)
    run.check("grape_cross_check", np.max(np.abs(u - res.final_unitary)) <= GRAPE_CROSS_TOL)
    with tr.span("control.gate_fidelity"):
        fid = control.gate_fidelity(u, target)
    run.check("grape_target", fid >= gcfg.target_fidelity)
    if fid < gcfg.target_fidelity:
        run.note = f"stop_reason={res.stop_reason}"
    run.emit(res, "csv", "grape_pulse.csv")
    run.emit(res.metadata_dict(), "json", "grape_meta.json")


# ------------------------------------------------------------------ circuits

# Per cycle of ten: five 2-qubit circuits, two 3-qubit circuits (one with
# single-qubit gates only, one with at least one two-qubit gate) and the
# three algorithm runners. Relaxation is on for every other cycle, so each
# kind runs half its jobs with relaxation.
CIRCUIT_CYCLE = ("c2", "c2", "grover4", "c2", "c3_local", "c2", "deutsch", "c2",
                 "c3_entangle", "cnot_table")
_ONE_QUBIT = ("X", "Y", "Z", "H", "X90", "Y90", "Rx", "Ry", "Rz", "P")
_TWO_QUBIT = ("CNOT", "CZ", "CY", "SWAP")


def _random_circuit(rng: np.random.Generator, n: int, p_two: float, need_two: bool):
    gates = []
    for _ in range(int(rng.integers(3, 9))):
        if n > 1 and rng.random() < p_two:
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            gates.append(control.Gate(str(rng.choice(_TWO_QUBIT)), (int(a), int(b))))
        else:
            name = str(rng.choice(_ONE_QUBIT))
            params = (float(rng.uniform(-np.pi, np.pi)),) if name in ("Rx", "Ry", "Rz", "P") else ()
            gates.append(control.Gate(name, (int(rng.integers(1, n + 1)),), params))
    if need_two and not any(len(g.targets) == 2 for g in gates):
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        gates.insert(int(rng.integers(0, len(gates) + 1)), control.CNOT(int(a), int(b)))
    return control.Circuit(n, tuple(gates))


def circuits_job(seed: int, index: int, machines) -> Job:
    rng = _rng(seed, index)
    kind = CIRCUIT_CYCLE[index % len(CIRCUIT_CYCLE)]
    args = {"relax": (index // len(CIRCUIT_CYCLE)) % 2 == 1}
    if kind == "c2":
        args.update(machine=machines["gemini"], circuit=_random_circuit(rng, 2, 0.3, False))
    elif kind == "c3_local":
        args.update(machine=machines["weak3"], circuit=_random_circuit(rng, 3, 0.0, False))
    elif kind == "c3_entangle":
        args.update(machine=machines["weak3"], circuit=_random_circuit(rng, 3, 0.3, True))
    elif kind == "grover4":
        args.update(machine=machines["gemini"], target=int(rng.integers(1, 5)))
    elif kind == "deutsch":
        args.update(machine=machines["gemini"], case=str(rng.choice(algorithms.DEUTSCH_CASES)))
    else:
        args.update(machine=machines["gemini"], direction=str(rng.choice(("12", "21"))))
    return Job(index, kind, args)


def run_circuit(job: Job, run: _JobRun) -> None:
    tr = run.tracer
    cfg, circ, relax = job.args["machine"], job.args["circuit"], job.args["relax"]
    with tr.span("control.compile"):
        program = control.compile_circuit(circ, cfg)
    run.counts["control.pulse_events"] += len(program.events)
    rho0 = quantum.DensityMatrix.basis(circ.n, 0)
    with tr.span("dynamics.evolve_relax" if relax else "dynamics.evolve"):
        rho = dynamics.evolve_program(rho0, program, relaxation=relax)
    with tr.span("control.circuit_unitary"):
        u = control.circuit_unitary(circ, cfg)
    with tr.span("measurement.tomography"):
        recon = measurement.tomography(rho, cfg)
    run.counts["measurement.settings"] += 3**circ.n
    with tr.span("quantum.state_fidelity"):
        fid = quantum.state_fidelity(rho, rho0.evolved(u))
    if relax:
        run.check("physical", _physical(rho.matrix))
    else:
        run.check("pulse_vs_ideal", 1.0 - fid <= PULSE_INFIDELITY_TOL)
    run.check("tomography", np.max(np.abs(recon.matrix - rho.matrix)) <= TOMOGRAPHY_TOL)
    run.emit({
        "circuit": circ.to_json_dict(),
        "relaxation": relax,
        "fidelity": fid,
        "final_state": rho.to_json_dict(),
        "reconstructed": recon.to_json_dict(),
    }, "json", "circuit_report.json")


def run_runner(job: Job, run: _JobRun) -> None:
    tr = run.tracer
    cfg, relax, kind = job.args["machine"], job.args["relax"], job.kind
    if kind == "cnot_table":
        control_q, target_q = (1, 2) if job.args["direction"] == "12" else (2, 1)
        with tr.span("algorithms.runner"):
            rows = algorithms.cnot_truth_table(job.args["direction"], "pulse", cfg, relax)
        expected = []
        for row in rows:
            bits = [int(b) for b in row["input"]]
            bits[target_q - 1] ^= bits[control_q - 1]
            expected.append("".join(map(str, bits)))
        run.check("runner_outcome", [row["output"] for row in rows] == expected)
        if not relax:
            run.check("pulse_vs_ideal", min(row["probability"] for row in rows)
                      >= 1.0 - PULSE_INFIDELITY_TOL)
        run.emit({"rows": rows, "relaxation": relax}, "json", "runner_report.json")
        return
    with tr.span("algorithms.runner"):
        if kind == "grover4":
            report = algorithms.run_grover4(job.args["target"], "pulse", cfg, relax)
        else:
            report = algorithms.run_deutsch(job.args["case"], "pulse", cfg, relax)
    if kind == "grover4":
        probs = report.probabilities
        run.check("runner_outcome", max(probs, key=probs.get) == report.derived["target_bits"])
    else:
        expected = "balanced" if job.args["case"] in ("f3", "f4") else "constant"
        run.check("runner_outcome", report.derived["verdict"] == expected)
    run.check("physical", _physical(report.final_state.matrix))
    if not relax:
        run.check("pulse_vs_ideal", 1.0 - report.fidelity <= PULSE_INFIDELITY_TOL)
    run.emit(report, "json", "runner_report.json")


# --------------------------------------------------------------------- scans

# Half the cycle is T1, so the job-latency median sits inside the T1 jobs.
SCAN_CYCLE = ("rabi", "t1", "t2", "t1", "pps", "t1")
T1_DELAYS_S = (20e-6, 50e-6, 100e-6, 200e-6, 400e-6, 1.2e-3, 4e-3, 12e-3, 50e-3, 200e-3,
               1.0, 4.0, 15.0)
T2_DELAYS_S = tuple(2.0 * h for h in (10e-6, 20e-6, 40e-6, 80e-6, 160e-6, 500e-6, 1.5e-3,
                                      5e-3, 20e-3, 80e-3, 320e-3, 1.5))
ENSEMBLE_POINTS = 11


def scans_job(seed: int, index: int, machines) -> Job:
    rng = _rng(seed, index)
    kind = SCAN_CYCLE[index % len(SCAN_CYCLE)]
    # Gemini with relaxation times drawn per nucleus (1H, 31P).
    args = {
        "base": machines["gemini"],
        "t1_s": (float(rng.uniform(2.0, 8.0)), float(rng.uniform(3.0, 10.0))),
        "t2_s": (float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.15, 0.5))),
        "channel": str(rng.choice(("1H", "31P"))),
        "amp_hz": float(rng.uniform(8e3, 20e3)),
        "spread_hz": float(rng.uniform(0.0, 400.0)),
    }
    return Job(index, kind, args)


def run_scan(job: Job, run: _JobRun) -> None:
    tr = run.tracer
    a = job.args
    with tr.span("spinsys.machine"):
        cfg = replace(a["base"], name=f"gemini-variant-{job.index}", nuclei=tuple(
            replace(nuc, t1_s=t1, t2_s=t2)
            for nuc, t1, t2 in zip(a["base"].nuclei, a["t1_s"], a["t2_s"])
        ))
    if job.kind == "pps":
        with tr.span("experiments.pps"):
            program, rho = experiments.prepare_pseudo_pure(cfg)
        run.counts["experiments.evolutions"] += 1
        with tr.span("quantum.pauli_expand"):
            coeffs = quantum.pauli_expand(rho)
        expected = {"ZI": POLARIZATION / 2, "IZ": POLARIZATION / 2, "ZZ": POLARIZATION / 2}
        dev = max(abs(v - expected.get(k, 0.0)) for k, v in coeffs.items() if k != "II")
        run.check("pps_pattern", dev <= PPS_REL_TOL * POLARIZATION)
        run.emit({"program": program.to_json_dict(), "final_state": rho.to_json_dict(),
                  "pauli_coefficients": coeffs}, "json", "pps_report.json")
        return
    member = cfg.channel_members(a["channel"])[0] - 1
    if job.kind == "rabi":
        durations = list(np.linspace(0.0, 2.0 / a["amp_hz"], 17)[1:])
        with tr.span("experiments.rabi"):
            scan, _t90, t180 = experiments.rabi_calibration(cfg, a["channel"], a["amp_hz"],
                                                            durations)
        run.counts["experiments.evolutions"] += len(durations)
        drawn, fitted = 1.0 / (2.0 * a["amp_hz"]), t180
    elif job.kind == "t1":
        with tr.span("experiments.t1"):
            scan = experiments.relaxation_experiment(cfg, a["channel"], "T1", T1_DELAYS_S)
        run.counts["experiments.evolutions"] += len(T1_DELAYS_S)
        drawn, fitted = a["t1_s"][member], scan.fit.params["tau"]
    else:
        with tr.span("experiments.t2"):
            scan = experiments.relaxation_experiment(
                cfg, a["channel"], "T2", T2_DELAYS_S, offset_spread_hz=a["spread_hz"],
                ensemble_points=ENSEMBLE_POINTS)
        run.counts["experiments.evolutions"] += len(T2_DELAYS_S) * (
            ENSEMBLE_POINTS if a["spread_hz"] else 1)
        drawn, fitted = a["t2_s"][member], scan.fit.params["tau"]
    run.check("scan_fit", abs(fitted - drawn) <= SCAN_REL_TOL * drawn)
    # Probe the fit layer on the scan's own data: it must repeat the scan's fit.
    with tr.span("experiments.fit"):
        probe = experiments.fit_model(scan.x, scan.y, scan.fit.model)
    run.counts["experiments.fits"] += 2
    run.check("fit_probe", probe.params == scan.fit.params)
    run.emit(scan, "csv", f"{job.kind}_scan.csv")
    run.emit({"model": scan.fit.model, "params": scan.fit.params,
              "residual": scan.fit.residual}, "json", f"{job.kind}_fit.json")


# ----------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    make_job: Callable[[int, int, dict], Job]  # (seed, index, machines) -> job
    run_job: dict[str, Callable[[Job, _JobRun], None]]  # job kind -> runner
    rate: float  # jobs per second the seed commit runs on a 2-vCPU x86-64 host
    min_jobs: int  # the smallest run, so the tail percentile has >= 10 jobs beyond it
    tail_pct: float  # the highest percentile with >= 10 of `min_jobs` jobs beyond it

    def job_count(self, seconds: float) -> int:
        """Jobs in a run of `seconds`: fixed, so attempted and failed are exact."""
        return max(self.min_jobs, round(self.rate * seconds))


_CIRCUIT_RUNNERS = {"c2": run_circuit, "c3_local": run_circuit, "c3_entangle": run_circuit,
                    "grover4": run_runner, "deutsch": run_runner, "cnot_table": run_runner}

WORKLOADS = {
    "grape": Workload(grape_job, {"grape_gemini": run_grape, "grape_triangulum": run_grape},
                      18.0, 100, 90.0),
    "circuits": Workload(circuits_job, _CIRCUIT_RUNNERS, 25.0, 200, 95.0),
    "scans": Workload(scans_job, {k: run_scan for k in SCAN_CYCLE}, 16.0, 100, 90.0),
}


def run_job(workload: Workload, job: Job, out_dir: Path, tracer) -> Outcome:
    """Run one job with all its checks; a call that raises fails the job."""
    run = _JobRun(job.kind, out_dir, tracer)
    try:
        workload.run_job[job.kind](job, run)
    except Exception as exc:  # the job loop must go on; the failure is recorded
        # The package's own state validation rejects eigenvalues below the
        # physical check's tolerance: that is the physical check failing.
        negative = isinstance(exc, errors.ValidationError) and "negative eigenvalue" in str(exc)
        run.failed.append("physical" if negative else "raised")
        run.note = f"{type(exc).__name__}: {exc}"
        run.hash.update(type(exc).__name__.encode())
    failed = tuple(sorted(set(run.failed)))
    run.hash.update(",".join(failed).encode())
    return Outcome(job.kind, failed, run.counts, run.hash.hexdigest(), run.note)


# The known defects that ``correct`` tolerates, and only these. Their jobs stay
# in the list and keep their checks; every failure counts in pass_frac and
# is tallied by check name.
#
# * compile_circuit ignores spectator J couplings, so on a 3-spin machine
#   every CNOT delay also evolves the couplings to the third spin
#   (pulse_vs_ideal on c3_entangle, relaxation off).
# * The relaxation channel damps multi-spin z products without restoring
#   them, so it is not positive: with relaxation on, a pure 3-spin state can
#   come out with an eigenvalue below -1e-9 and evolve_program rejects it
#   (physical, on any circuits kind).
# * The GRAPE gradient is only first order in dt, so the backtracking search
#   sometimes finds no ascent step and stops below its target (grape_target;
#   the stop reasons are listed in the detail line).
KNOWN_DEFECTS = frozenset(
    {("c3_entangle", "pulse_vs_ideal"), ("grape_gemini", "grape_target"),
     ("grape_triangulum", "grape_target")}
    | {(kind, "physical") for kind in CIRCUIT_CYCLE}
)


def is_known_defect(outcome: Outcome) -> bool:
    return bool(outcome.failed) and all((outcome.kind, c) in KNOWN_DEFECTS for c in outcome.failed)
