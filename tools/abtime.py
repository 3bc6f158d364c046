#!/usr/bin/env python3
"""Paired in-process A/B timer: the cost of one package call in two source trees.

Usage, from the root of a checkout:

    python tools/abtime.py BASE_SRC CHANGED_SRC [TARGET ...] [--pairs N]

BASE_SRC and CHANGED_SRC are directories that each hold an ``nmrqc`` package, for
example the ``src`` of a parent commit unpacked with ``git archive`` and this
checkout's ``src``. With no TARGET every target in ``TARGETS`` runs; ``--help``
names them.

Both trees are imported into this one process under distinct module names. Each
builds its own seeded inputs for a target, since objects of one tree cannot be
passed to the other, and each is warmed before timing. The timer then runs pairs:
in a pair each side makes the same number of calls, timed as a whole, and the side
that goes first alternates from pair to pair. Per target it prints the median of
the per-pair ratios changed/base, a 95 % moving-block bootstrap interval of that
median (2,000 resamples of blocks of about sqrt(pairs) consecutive pairs), the
number of pairs and the calls per pair. A ratio below 1 means the changed tree is
faster. A side makes enough calls per pair to take about 10 ms, worked out from the
slower side's fastest warm call.

A ``cli.`` target runs one README request as ``python -m nmrqc.cli`` in a child
process, import included, with ``PYTHONPATH`` set to its tree's directory and the
environment otherwise the same for both sides. It is timed by the child's CPU time,
user and system, from ``os.wait4``'s resource usage.

Limits:
- Each side is timed with ``time.thread_time_ns``, the CPU time of this thread, or
  a ``cli.`` target by its child's. Work moved off the CPU (a file write, a sleep,
  waiting on the file system) or onto another thread is not seen: wall time stays
  with a plain timer, and throughput, report emission and memory with ``perfbench``.
- Each tree has its own module-level caches (``functools.lru_cache`` maps and the
  operators cached on a machine config). Warming fills both, so a ratio compares
  warm calls; what a cold first call costs is not measured here.
- Both sides share one process, allocator and CPU cache, so what one side leaves
  behind (garbage, a grown heap) can slow the other; alternating the order spreads
  that over both sides but does not remove it. A host state that lasts seconds can
  favour one side for many pairs in a row; resampling blocks of consecutive pairs
  widens the interval by what such runs of pairs move the median. An offset that
  lasts as long as the process is not covered: repeat a run in a new process.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BOOTSTRAP_DRAWS = 2000
SIDE_SECONDS = 0.01  # CPU time per side and pair
WARM_CALLS = 3


def load_tree(src, name: str):
    """The ``nmrqc`` package under the directory `src`, imported as module `name`."""
    package = Path(src) / "nmrqc"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _random_state(nmrqc, n: int, seed: int):
    a = np.random.default_rng(seed).normal(size=(2, 2**n, 2**n))
    m = (a[0] + 1j * a[1]) @ (a[0] + 1j * a[1]).conj().T
    return nmrqc.DensityMatrix(m / np.trace(m))


def _weak3(nmrqc):
    """Three heteronuclear spins on resonance, weakly coupled (perfbench's weak3)."""
    nuclei = tuple(nmrqc.NucleusSpec(label, 0.0, t1, t2, 1e-5)
                   for label, t1, t2 in (("1H", 3.0, 0.3), ("13C", 5.0, 0.4), ("15N", 6.0, 0.5)))
    j = np.array([[0.0, 140.0, 48.0], [140.0, 0.0, 190.0], [48.0, 190.0, 0.0]])
    return nmrqc.SpinSystemConfig("weak3", nuclei, j, "weak")


def _tomography(machine: str, compiled_readout: bool = False):
    def build(nmrqc):
        cfg = _weak3(nmrqc) if machine == "weak3" else nmrqc.preset(machine)
        rho = _random_state(nmrqc, cfg.n, seed=11)
        return lambda: nmrqc.tomography(rho, cfg, compiled_readout=compiled_readout)
    return build


def _grape(nmrqc):
    """One gemini X90 solve at perfbench's gemini setting: 16 segments over 0.4 ms."""
    cfg = nmrqc.preset("gemini")
    target = nmrqc.gate_matrix(nmrqc.Gate("X90", (1,)), cfg.n)
    gcfg = nmrqc.GrapeConfig(segments=16, dt_s=4e-4 / 16, max_iters=400, target_fidelity=0.9)
    return lambda: nmrqc.grape_optimize(target, cfg, gcfg, seed=3)


def _circuit(nmrqc, n: int, size: int, seed: int):
    """A seeded n-qubit circuit of `size` one- and two-qubit gates."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(size):
        name = str(rng.choice(["H", "X90", "Y90", "Rz", "CNOT", "CZ", "SWAP"]))
        order = rng.permutation(np.arange(1, n + 1))
        targets = tuple(int(q) for q in order[:1 + (name[0] in "CS")])
        gates.append(nmrqc.Gate(name, targets, (float(rng.uniform(-3, 3)),) * (name == "Rz")))
    return nmrqc.Circuit(n, tuple(gates))


def _circuit_unitary(nmrqc):
    """A seeded 3-qubit circuit of 12 one- and two-qubit gates."""
    circuit = _circuit(nmrqc, 3, 12, seed=12)
    return lambda: nmrqc.circuit_unitary(circuit)


def _compile(nmrqc):
    """A seeded 8-gate circuit compiled to pulses on gemini."""
    cfg, circuit = nmrqc.preset("gemini"), _circuit(nmrqc, 2, 8, seed=21)
    return lambda: nmrqc.compile_circuit(circuit, cfg)


def _evolve(relaxation: bool):
    def build(nmrqc):
        """The pulse program of a seeded 8-gate gemini circuit, run from |00>."""
        cfg = nmrqc.preset("gemini")
        program = nmrqc.compile_circuit(_circuit(nmrqc, 2, 8, seed=21), cfg)
        rho0 = nmrqc.DensityMatrix.basis(2, 0)
        return lambda: nmrqc.evolve_program(rho0, program, relaxation=relaxation)
    return build


def _t2(nmrqc):
    """A gemini 1H spin-echo T2 scan: 8 echo times, an 11-point 200 Hz offset ensemble."""
    cfg = nmrqc.preset("gemini")
    delays = (20e-6, 80e-6, 320e-6, 1e-3, 3e-3, 10e-3, 30e-3, 100e-3)
    return lambda: nmrqc.relaxation_experiment(cfg, "1H", "T2", delays, offset_spread_hz=200.0)


def _cnot_table(nmrqc):
    """The CNOT(1, 2) truth table on gemini's pulse path with relaxation."""
    cfg = nmrqc.preset("gemini")
    return lambda: nmrqc.cnot_truth_table("12", "pulse", cfg, True)


def _grover4(nmrqc):
    """Grover search for entry 3 on gemini's pulse path, without relaxation."""
    cfg = nmrqc.preset("gemini")
    return lambda: nmrqc.run_grover4(3, "pulse", cfg, False)


def _deutsch(nmrqc):
    """Deutsch's f3 (balanced) on gemini's pulse path, without relaxation."""
    cfg = nmrqc.preset("gemini")
    return lambda: nmrqc.run_deutsch("f3", "pulse", cfg, False)


def _counting(nmrqc):
    """Counting case M2 over l = 1...50 on gemini's pulse path, without relaxation: 50
    circuits compiled, CNOTs rewritten to CZs, then evolved and fitted."""
    cfg = nmrqc.preset("gemini")
    return lambda: nmrqc.run_counting("M2", list(range(1, 51)), "pulse", cfg, False)


def _documents(nmrqc):
    """Each kind of input document written by its `to_json_dict` and decoded again: a seeded
    3-qubit circuit of 12 gates, gemini's config and a seeded 3-qubit state."""
    circuit, cfg = _circuit(nmrqc, 3, 12, seed=12), nmrqc.preset("gemini")
    rho = _random_state(nmrqc, 3, seed=13)

    def call():
        nmrqc.Circuit.from_json_dict(circuit.to_json_dict())
        nmrqc.spinsys._config_from_dict(cfg.to_json_dict(), "gemini")
        nmrqc.DensityMatrix.from_json_dict(rho.to_json_dict())
    return call


def _grape_evaluation(nmrqc):
    """One fidelity and gradient of a gemini X90 at 16 seeded segments over 0.4 ms."""
    cfg = nmrqc.preset("gemini")
    controls, _ = nmrqc.spinsys.control_operators(cfg)
    amps = np.random.default_rng(16).uniform(-1e3, 1e3, (16, len(controls)))
    h_stack = nmrqc.internal_hamiltonian(cfg) + np.tensordot(amps, controls, axes=(1, 0))
    target_dag = nmrqc.gate_matrix(nmrqc.Gate("X90", (1,)), 2).conj().T
    return lambda: nmrqc._kernels.grape_fidelity_and_gradient(h_stack, target_dag, controls,
                                                              4e-4 / 16)


def _build_parser(nmrqc):
    """The CLI's parser of every request built and the README's grape request parsed: the
    option declarations read, and the triangulum preset loaded from its file."""
    cli = importlib.import_module(f"{nmrqc.__name__}.cli")
    argv = ["grape", "--gate", "X90", "--targets", "1", "--machine", "triangulum",
            "--segments", "100", "--duration-s", "1.5e-3", "--target-fidelity", "0.995",
            "--seed", "1", "--out", "run/"]
    return lambda: cli.build_parser().parse_args(argv)


class ChildCPU:
    """A clock of the CPU time, user and system, in ns, of the child processes run through it:
    `os.wait4` gives each child's own resource usage."""

    def __init__(self):
        self.ns = 0

    def __call__(self) -> int:
        return self.ns

    def run(self, argv: list, env: dict, cwd: str):
        child = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise RuntimeError(f"{' '.join(argv)} exited {child.returncode}")
        self.ns += round((usage.ru_utime + usage.ru_stime) * 1e9)


CHILD_CPU = ChildCPU()


@functools.lru_cache(maxsize=1)
def cli_inputs() -> dict:
    """The README requests' input files, written once into a directory removed at exit, by
    name: the Bell circuit, seeded 2- and 3-qubit states and a one-qubit unitary. The
    byte-identity pins of the package's tests read these same files."""
    root = tempfile.mkdtemp(prefix="abtime-cli-")
    atexit.register(shutil.rmtree, root, True)
    rng = np.random.default_rng(5)
    docs = {"bell": {"n": 2, "gates": [{"name": "H", "targets": [1], "params": []},
                                       {"name": "CNOT", "targets": [1, 2], "params": []}]}}
    for name, n in (("rho", 2), ("rho3", 3)):
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        m = a @ a.conj().T / np.trace(a @ a.conj().T)
        docs[name] = {"n": n, "re": m.real.tolist(), "im": m.imag.tolist()}
    u = np.array([[np.cos(0.7), -1j * np.sin(0.7)], [-1j * np.sin(0.7), np.cos(0.7)]])
    docs["u"] = {"re": u.real.tolist(), "im": u.imag.tolist()}
    paths = {"out": str(Path(root) / "out")}
    for name, doc in docs.items():
        paths[name] = str(Path(root) / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return paths


def readme_argv(request: str, out: str) -> list:
    """The arguments of a README request writing into `out`, its input files named {bell},
    {rho}, {rho3} and {u} replaced by the paths `cli_inputs` wrote them to."""
    return [word.format(**cli_inputs()) for word in request.split()] + ["--out", out]


def _cli(request: str):
    """A README request run as `python -m nmrqc.cli` in a child process on the tree: a call is
    one child, on CHILD_CPU."""
    def build(nmrqc):
        paths = cli_inputs()
        argv = [sys.executable, "-m", "nmrqc.cli", *readme_argv(request, paths["out"])]
        env = {**os.environ, "PYTHONPATH": str(Path(nmrqc.__file__).resolve().parents[1])}
        return lambda: CHILD_CPU.run(argv, env, str(Path(paths["out"]).parent))
    return build


# The README's requests, by target name: the one list of them. README.md's request block
# and the byte-identity pins of tests/test_cli.py are checked against it.
CLI_REQUESTS = {
    "simulate-pulse": "simulate --machine gemini --circuit {bell} --path pulse",
    "compile": "compile --circuit {bell}",
    "tomography": "tomography --state {rho}",
    "tomography-pulse": "tomography --state {rho} --path pulse",
    "tomography-triangulum": "tomography --machine triangulum --state {rho3}",
    "grape": "grape --gate X90 --targets 1 --machine triangulum --segments 100 "
             "--duration-s 1.5e-3 --target-fidelity 0.995 --seed 1",
    "experiment-rabi": "experiment rabi --channel 1H --amp-hz 12500",
    "experiment-t1": "experiment t1 --channel 1H",
    "experiment-t2": "experiment t2 --channel 1H --offset-spread-hz 200",
    "experiment-pps": "experiment pps",
    "algorithm-grover4": "algorithm grover4 --target 3",
    "algorithm-deutsch": "algorithm deutsch --case f3 --path pulse",
    "algorithm-count": "algorithm count --case M2 --l-values 1,2,3,4,5",
    "algorithm-qho": "algorithm qho --initial n0_plus_n3",
    "algorithm-dqc1": "algorithm dqc1 --unitary {u} --epsilon 1.0",
    "algorithm-cnot-table": "algorithm cnot-table --direction 21",
}
# target name -> builder: given one tree's package, the zero-argument call to time
TARGETS = {
    "measurement.tomography:gemini": _tomography("gemini"),
    "measurement.tomography:weak3": _tomography("weak3"),
    "measurement.tomography:triangulum": _tomography("triangulum"),
    # the CLI's `tomography --path pulse`, repeated: the readout compiled at the default amplitude
    "measurement.tomography:gemini-compiled": _tomography("gemini", compiled_readout=True),
    "control.grape:gemini-X90": _grape,
    "_kernels.grape_fidelity_and_gradient": _grape_evaluation,
    "control.circuit_unitary": _circuit_unitary,
    "control.compile": _compile,
    "dynamics.evolve": _evolve(False),
    "dynamics.evolve_relax": _evolve(True),
    "experiments.t2": _t2,
    # the three runners of perfbench's circuits workload
    "algorithms.runner:cnot_truth_table": _cnot_table,
    "algorithms.runner:run_grover4": _grover4,
    "algorithms.runner:run_deutsch": _deutsch,
    # the compiler's heaviest runner: 50 circuits of 1 to 50 rewritten CNOTs each
    "algorithms.runner:run_counting": _counting,
    "quantum.documents": _documents,
    "cli.build_parser": _build_parser,
    **{f"cli.{name}": _cli(request) for name, request in CLI_REQUESTS.items()},
}


def clock_of(target: str):
    """A target's clock: its child's CPU for a README request, this thread's for the rest."""
    return CHILD_CPU if target.removeprefix("cli.") in CLI_REQUESTS else time.thread_time_ns


def paired_ratios(base, changed, pairs: int, calls: int, clock=time.thread_time_ns) -> np.ndarray:
    """Per pair, the `clock` time of `calls` calls of `changed` over that of `base`.
    Base goes first in even pairs, changed in odd ones."""
    def timed(f):
        start = clock()
        for _ in range(calls):
            f()
        return clock() - start

    ratios = np.empty(pairs)
    for i in range(pairs):
        if i % 2:
            t_changed, t_base = timed(changed), timed(base)
        else:
            t_base, t_changed = timed(base), timed(changed)
        ratios[i] = t_changed / t_base
    return ratios


def summary(ratios: np.ndarray, draws: int = BOOTSTRAP_DRAWS, seed: int = 0):
    """(median, low, high): the median ratio and a 95 % moving-block bootstrap interval of
    it. A resample joins blocks of ceil(sqrt(pairs)) consecutive pairs, each starting at a
    random pair, cut to the number of pairs: pairs drift together, so they are not drawn
    one by one."""
    n = len(ratios)
    size = int(np.ceil(np.sqrt(n)))
    starts = np.random.default_rng(seed).integers(0, n - size + 1, (draws, -(-n // size)))
    resampled = ratios[(starts[..., np.newaxis] + np.arange(size)).reshape(draws, -1)[:, :n]]
    low, high = np.percentile(np.median(resampled, axis=1), [2.5, 97.5])
    return float(np.median(ratios)), float(low), float(high)


def _warm(fs, clock=time.thread_time_ns) -> int:
    """Call each of `fs` WARM_CALLS times, filling its tree's caches. Returns the
    slower side's fastest call, in clock units: a cold first call or a spike is not it."""
    fastest = []
    for f in fs:
        times = []
        for _ in range(WARM_CALLS):
            start = clock()
            f()
            times.append(clock() - start)
        fastest.append(min(times))
    return max(fastest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="directory holding the base nmrqc package")
    parser.add_argument("changed", help="directory holding the changed nmrqc package")
    parser.add_argument("targets", nargs="*", metavar="TARGET",
                        help=f"what to time (default: all): {', '.join(TARGETS)}")
    parser.add_argument("--pairs", type=int, default=200)
    args = parser.parse_args(argv)
    unknown = [t for t in args.targets if t not in TARGETS]
    if unknown or args.pairs < 1:
        parser.error(f"unknown targets {unknown}" if unknown else "--pairs must be >= 1")
    trees = load_tree(args.base, "abtime_base"), load_tree(args.changed, "abtime_changed")
    for target in args.targets or TARGETS:
        base, changed = (TARGETS[target](tree) for tree in trees)
        clock = clock_of(target)
        warm_call = _warm((base, changed), clock)
        calls = max(1, round(SIDE_SECONDS * 1e9 / max(warm_call, 1)))
        median, low, high = summary(paired_ratios(base, changed, args.pairs, calls, clock))
        print(f"{target:36s} ratio {median:.4f}  95% [{low:.4f}, {high:.4f}]  "
              f"pairs {args.pairs}  calls {calls}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
