#!/usr/bin/env python3
"""nmrqc benchmark: seeded job workloads, end-to-end metrics and per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {grape,circuits,scans} --seed N \
        --seconds S --trace {0,1}

A run has three phases.

1. Set-up: six fresh interpreters, three before the timed phase and three
   after it, each import nmrqc from ``src/``, load the machines and generate
   the run's jobs; ``setup_s`` is the median time from starting the
   interpreter to the jobs being ready.
2. Timed phase: one process, one thread, closed loop over a fixed list of
   jobs. Its length is ``--seconds`` times the rate the workload runs at on
   the seed commit, so a run measures about ``--seconds`` of work there, and
   the same seed gives the same jobs, results and failures in every run.
   The phase stops early only if it passes MAX_TIMED_S.
3. Report: a detail line (environment fingerprint, result digest, exact
   counts, failures by check name, tail percentile), then the result line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every job
twice, once bare and once inside the layer spans, alternating which goes
first, and reports the per-layer metrics plus the tracing overhead (traced
against bare time of the same jobs) and the share of traced job time covered
by layer spans. Spans are written to ``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("grape", "circuits", "scans")
SETUP_PROBES = 6  # half before the timed phase, half after it
# A safety stop for a much slower tree: the timed phase ends after this many
# seconds, so a run still reports within 180 s. The detail line says so.
MAX_TIMED_S = 140.0
# One process, no extra threads: BLAS and OpenMP pools are pinned to one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

LAYERS = ("spinsys", "dynamics", "control", "measurement", "experiments", "algorithms",
          "quantum", "cli")
# Span name -> unit of its per-call median. Each span is a call the benchmark
# makes into a public function of the layer its name starts with.
SPANS = {
    "control.grape": "s",
    "control.gate_matrix": "ms",
    "control.gate_fidelity": "ms",
    "control.compile": "ms",
    "control.circuit_unitary": "ms",
    "dynamics.program_unitary": "ms",
    "dynamics.evolve": "ms",
    "dynamics.evolve_relax": "ms",
    "measurement.tomography": "ms",
    "quantum.state_fidelity": "ms",
    "quantum.pauli_expand": "ms",
    "algorithms.runner": "ms",
    "experiments.rabi": "ms",
    "experiments.t1": "ms",
    "experiments.t2": "ms",
    "experiments.pps": "ms",
    "experiments.fit": "ms",
    "spinsys.machine": "ms",
    "cli.emit_report": "ms",
}
# Exact counts over the run's jobs; identical in every run of a seed.
COUNTS = ("control.grape_iterations", "dynamics.program_unitary_segments",
          "control.pulse_events", "measurement.settings", "experiments.evolutions",
          "experiments.fits", "cli.report_bytes")
CHECKS = ("pulse_vs_ideal", "physical", "tomography", "runner_outcome", "grape_cross_check",
          "grape_target", "scan_fit", "fit_probe", "pps_pattern", "raised")

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "pass_frac": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"setup.import_s": "s", "setup.inputs_s": "s"}
    for name, unit in SPANS.items():
        units[f"{name}_{unit}"] = unit
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    units["control.grape_ms_per_iter"] = "ms"
    for name in COUNTS:
        units[name] = "bytes" if name == "cli.report_bytes" else "count"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    for check in CHECKS:
        units[f"check.{check}.failed"] = "count"
    units["trace.overhead_pct"] = "%"
    units["trace.coverage_pct"] = "%"
    return units


def fail(msg: str) -> None:
    print(f"perfbench: error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import nmrqc from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import nmrqc

    if Path(nmrqc.__file__).resolve().parent != (SRC / "nmrqc").resolve():
        fail(f"imported nmrqc from {nmrqc.__file__}, not from {SRC}")
    return nmrqc


def make_jobs(wl, seed: int, seconds: float, machines) -> list:
    return [wl.make_job(seed, i, machines) for i in range(wl.job_count(seconds))]


def setup_probe(workload: str, seed: int, seconds: float) -> None:
    """Child of the set-up phase: import, load machines, make the run's inputs."""
    t0 = perf_counter()
    import_package()
    import workloads

    t1 = perf_counter()
    wl = workloads.WORKLOADS[workload]
    jobs = make_jobs(wl, seed, seconds, workloads.load_machines())
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "jobs": len(jobs)}), flush=True)


def measure_setup(workload: str, seed: int, seconds: float, count: int) -> list[dict]:
    probes = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    for _ in range(count):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line:
            fail(f"set-up probe exited with code {code}")
        probe = json.loads(line)
        probe["setup_s"] = ready
        probes.append(probe)
    return probes


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nmrqc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def fingerprint(nmrqc) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nmrqc_numba_enabled": getattr(nmrqc, "NUMBA_ENABLED", None),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def timed_phase(workloads, wl, jobs, out_dir: Path, bare, tracer):
    """Closed loop over the run's jobs.

    Returns one (outcome, bare latency s, traced latency s or None) per job
    run, the elapsed time and the process CPU time it took. With a tracer
    each job runs bare and traced, alternating the order.
    """
    records = []
    cpu_start = process_time()
    start = perf_counter()
    deadline = start + MAX_TIMED_S
    for i, job in enumerate(jobs):
        if perf_counter() > deadline:
            break
        order = [bare] if tracer is None else [bare, tracer][:: 1 if i % 2 == 0 else -1]
        latency, outcome = {}, None
        for tr in order:
            tr.job = i
            t0 = perf_counter()
            out = workloads.run_job(wl, job, out_dir, tr)
            latency[tr] = perf_counter() - t0
            outcome = out if tr is bare else outcome
        records.append((outcome, latency[bare], latency.get(tracer)))
    return records, perf_counter() - start, process_time() - cpu_start


def summarize(workloads, records, planned: int) -> dict:
    digest = hashlib.sha256()
    counts = Counter()
    outcomes = [r[0] for r in records]
    for outcome in outcomes:
        digest.update(outcome.digest.encode())
        counts.update(outcome.counts)
    failed_checks = Counter(c for o in outcomes for c in o.failed)
    unexpected = [o for o in outcomes if o.failed and not workloads.is_known_defect(o)]
    return {
        "planned_jobs": planned,
        "stopped_early": len(records) < planned,
        "digest": digest.hexdigest(),
        "counts": {name: counts.get(name, 0) for name in COUNTS},
        "jobs": len(records),
        "passed": sum(1 for o in outcomes if not o.failed),
        "failed_by_check": dict(sorted(failed_checks.items())),
        "failed_by_kind": dict(sorted(Counter(o.kind for o in outcomes if o.failed).items())),
        "failure_notes": dict(sorted(Counter(f"{o.kind}: {o.note}" for o in outcomes
                                             if o.note).items())),
        "unexpected_failures": len(unexpected),
    }


def layer_metrics(tracer, records, summary, probes) -> dict:
    by_name: dict[str, list[int]] = {}
    errors = Counter()
    for name, _job, _start, dur, raised in tracer.records:
        by_name.setdefault(name, []).append(dur)
        if raised:
            errors[name.split(".")[0]] += 1
    m = {
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "setup.inputs_s": statistics.median(p["inputs_s"] for p in probes),
    }
    for name, unit in SPANS.items():
        durs = by_name.get(name, [])
        scale = 1e-9 if unit == "s" else 1e-6
        m[f"{name}_{unit}"] = statistics.median(durs) * scale if durs else 0.0
        m[f"{name}.calls"] = len(durs)
        m[f"{name}.busy_s"] = sum(durs) * 1e-9
    counts = summary["counts"]
    iters = counts["control.grape_iterations"]
    grape_ns = sum(by_name.get("control.grape", []))
    m["control.grape_ms_per_iter"] = grape_ns * 1e-6 / iters if iters else 0.0
    m.update(counts)
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors.get(layer, 0)
    for check in CHECKS:
        m[f"check.{check}.failed"] = summary["failed_by_check"].get(check, 0)
    bare = sum(r[1] for r in records)
    traced = sum(r[2] for r in records)
    spanned = sum(r[3] for r in tracer.records) * 1e-9
    m["trace.overhead_pct"] = 100.0 * (traced - bare) / bare
    m["trace.coverage_pct"] = 100.0 * spanned / traced
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "nmrqc" / "__init__.py").is_file():
        fail(f"no nmrqc sources at {SRC / 'nmrqc'}; run from the root of an nmrqc checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.seconds)
        return 0

    # Probes before and after the timed phase see the shared machine at two
    # moments, so one slow stretch does not set the run's setup_s.
    probes = measure_setup(args.workload, args.seed, args.seconds, SETUP_PROBES // 2)
    nmrqc = import_package()
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload]
    jobs = make_jobs(wl, args.seed, args.seconds, workloads.load_machines())
    tracer = Tracer(True) if args.trace else None
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"reports-{args.workload}-", dir=OUT))
    try:
        records, elapsed, cpu = timed_phase(workloads, wl, jobs, out_dir, Tracer(False), tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    probes += measure_setup(args.workload, args.seed, args.seconds,
                            SETUP_PROBES - SETUP_PROBES // 2)

    summary = summarize(workloads, records, len(jobs))
    latencies = sorted(r[1] for r in records)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "elapsed_s": elapsed,
        # Well below elapsed_s means the process was waiting, not computing.
        "elapsed_cpu_s": cpu,
        "tail_percentile": wl.tail_pct,
        "tail_samples": len(latencies),
        "setup_probes_s": [p["setup_s"] for p in probes],
        "fingerprint": fingerprint(nmrqc),
        **summary,
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "jobs_per_s": summary["passed"] / elapsed,
            "job_p50_ms": statistics.median(latencies) * 1e3,
            "job_tail_ms": nearest_rank(latencies, wl.tail_pct) * 1e3,
            "pass_frac": summary["passed"] / summary["jobs"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, records, summary, probes)
        units = per_layer_units()
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        with trace_file.open("w") as fh:
            for name, job, start, dur, raised in tracer.records:
                fh.write(json.dumps({"span": name, "job": job, "start_ns": start,
                                     "dur_ns": dur, "raised": raised}) + "\n")
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": summary["unexpected_failures"] == 0,
        "attempted": summary["jobs"],
        "failed": summary["jobs"] - summary["passed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
