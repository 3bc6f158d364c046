"""Batch command-line front end.

`COMMANDS` declares each request (simulate, tomography, compile, grape, experiment rabi|t1|t2|pps,
algorithm <name>) once: its options, required inputs, body and the artifacts it writes into --out,
and nothing else. `main` builds the parser of the one request argv names and imports only the
layers it runs. Reports are written atomically, at the umask's file mode, with sorted keys and
floats at 12 significant digits: on one BLAS CPU kernel, equal requests and seeds give equal bytes.

Exit codes: 0 success, 2 validation failure, 3 numerical failure, 4 output I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import FitError, NmrqcError, ValidationError
from .quantum import (COMPLEX, FINITE_NUMBERS, INTEGERS, POSITIVE, DensityMatrix, Option,
                      complex_json, complex_matrix, pauli_expand, read, state_fidelity)
from .spinsys import PRESETS, SpinSystemConfig, _read_json, load_machine_config, preset


def _canonical(obj):
    """Make a report JSON-stable: floats to 12 significant digits, report objects as their
    `to_json_dict`; `emit_report` sorts the keys."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, complex):
        return _canonical(complex_json(obj))
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if hasattr(obj, "to_json_dict"):
        return _canonical(obj.to_json_dict())
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x")  # an exclusive create at mode 0o666 less the umask, as open(path, "w")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def emit_report(obj, fmt: str, path) -> Path:
    """Write a report as canonical JSON or as CSV (the object's csv_text)."""
    path = Path(path)
    if fmt == "json":
        text = json.dumps(_canonical(obj), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        text = obj.csv_text()
    else:
        raise ValidationError(f"unknown report format {fmt!r}")
    _write_atomic(path, text)
    return path


def _machine(arg: str) -> SpinSystemConfig:
    if arg in PRESETS and not Path(arg).exists():
        return preset(arg)
    return load_machine_config(arg)


def _matrix(d) -> np.ndarray:
    """Complex matrix from a JSON object with "re" and "im" fields."""
    return complex_matrix(read(d, COMPLEX, "matrix JSON"), "matrix JSON")


def _argument(option: Option, **given) -> dict:
    """argparse's keywords for a declared option, `given` overriding them; `type` checks it."""
    return dict(type=option.parse, default=option.default, choices=option.choices or None,
                help=option.rule or None) | given


def _layer(name: str):
    """A layer of this package, imported on first use by `__import__` (-X importtime lists it)."""
    return getattr(__import__(f"{__package__}.{name}"), name)


# argparse's keywords of each option, from the declaring layer when a parser takes it
_OPTIONS = {
    "--out": lambda: dict(default=".", help="output directory"),
    "--machine": lambda: dict(type=_machine, default="gemini",
                              help="machine config path or preset name (gemini, triangulum)"),
    "--seed": lambda: _argument(_layer("control").SEED),
    "--path": lambda: _argument(_layer("control").PATH, type=None),
    "--relaxation": lambda: dict(choices=("on", "off"), default="off"),
    "--pulse-amp-hz": lambda: _argument(_layer("dynamics").PULSE_AMPLITUDE,
                                        default=_layer("control").DEFAULT_PULSE_AMP_HZ),
    "--channel": lambda: dict(help="nucleus label (default: first channel)"),
    "--amp-hz": lambda: _argument(_layer("dynamics").PULSE_AMPLITUDE,
                                  default=_layer("experiments").SCAN_AMP_HZ),
    "--durations": lambda: _argument(FINITE_NUMBERS, help="comma-separated pulse durations in s"),
    "--delays": lambda: _argument(FINITE_NUMBERS, help="comma-separated delays in s"),
    "--offset-spread-hz": lambda: _argument(_layer("experiments").OFFSET_SPREAD),
    "--targets": lambda: _argument(INTEGERS, help="comma-separated qubit indices (default 1)"),
    "--params": lambda: _argument(FINITE_NUMBERS, help="comma-separated gate parameters"),
    "--duration-s": lambda: _argument(
        replace(POSITIVE, default=1.5e-3, rule="duration must be > 0 and finite")),
    "--epsilon": lambda: _argument(_layer("algorithms").EPSILON),
    "--circuit": lambda: dict(help="circuit JSON file"),
    "--state": lambda: dict(help="density-matrix JSON file"),
    "--gate": lambda: dict(help="gate name, e.g. X90"),
    "--unitary": lambda: dict(help="JSON file of a re/im matrix"),
}


class _Command(NamedTuple):
    """A request: its help; its `_OPTIONS`, and those it declares by keyword (l_values is
    --l-values); its inputs, of each tuple one option required and the others excluded; its
    body, args -> its artifacts' objects; and their file names in --out."""

    help: str
    options: tuple[str, ...]
    declared: Callable[[], dict]
    inputs: tuple[tuple[str, ...], ...]
    body: Callable
    artifacts: tuple[str, ...]


def _report(args, **fields) -> dict:
    """A report: the request's command words joined by ".", its machine's name and `fields`."""
    return {"command": args.request.replace(" ", "."), "machine": args.machine.name, **fields}


def _simulate(args) -> tuple:
    from .algorithms import PATH, _execute
    from .control import Circuit
    cfg, circuit = args.machine, _read_json(args.circuit, "circuit file", Circuit.from_json_dict)
    ideal = DensityMatrix._checked(_execute([circuit], cfg, PATH.default)[0])
    rho = ideal if args.path == PATH.default else DensityMatrix._checked(
        _execute([circuit], cfg, args.path, args.relaxation == "on", args.pulse_amp_hz)[0])
    return _report(args, path=args.path, relaxation=args.relaxation,
                   probabilities=rho.probabilities(), fidelity=state_fidelity(rho, ideal),
                   final_state=rho),


def _tomography(args) -> tuple:
    from .control import PATH
    from .measurement import tomography_sweep
    rho = _read_json(args.state, "state file", DensityMatrix.from_json_dict)
    recon, peak_tables = tomography_sweep(rho, args.machine, args.path != PATH.default,
                                          args.pulse_amp_hz)
    return _report(args, reconstructed=recon, peak_tables=peak_tables,
                   max_error_vs_input=float(np.max(np.abs(recon.matrix - rho.matrix)))),


def _compile(args) -> tuple:
    from .control import Circuit, compile_circuit
    circuit = _read_json(args.circuit, "circuit file", Circuit.from_json_dict)
    return compile_circuit(circuit, args.machine, args.pulse_amp_hz),


def _grape(args) -> tuple:
    from .control import GRAPE_OPTIONS, Gate, GrapeConfig, gate_matrix, grape_optimize
    if args.gate is None:  # exactly one of --gate and --unitary is given
        target = _read_json(args.unitary, "matrix file", _matrix)
    else:
        gate = Gate(args.gate, tuple(args.targets or (1,)), tuple(args.params or ()))
        target = gate_matrix(gate, args.machine.n, args.machine)
    given = {key: getattr(args, key) for key in GRAPE_OPTIONS}
    gcfg = GrapeConfig(dt_s=args.duration_s / args.segments, **given)
    result = grape_optimize(target, args.machine, gcfg, seed=args.seed)
    return result, result.metadata_dict(), result.program


def _fitted(args, channel: str, scan, **fields) -> tuple:
    """A scan and its fit report."""
    fit = {"model": scan.fit.model, "params": scan.fit.params, "residual": scan.fit.residual}
    return scan, _report(args, channel=channel, **fields, fit=fit)


def _rabi(args) -> tuple:
    from .experiments import rabi_calibration
    channel = args.channel or args.machine.channels[0]
    scan, t90, t180 = rabi_calibration(args.machine, channel, args.amp_hz, args.durations)
    return _fitted(args, channel, scan, amplitude_hz=args.amp_hz, t90_s=t90, t180_s=t180)


def _relaxation(mode: str, args) -> tuple:
    from .experiments import relaxation_experiment
    channel = args.channel or args.machine.channels[0]
    return _fitted(args, channel, relaxation_experiment(
        args.machine, channel, mode, args.delays, amplitude_hz=args.amp_hz,
        offset_spread_hz=args.offset_spread_hz))


def _pps(args) -> tuple:
    from .experiments import prepare_pseudo_pure
    program, rho = prepare_pseudo_pure(args.machine)
    return _report(args, program=program, final_state=rho, pauli_coefficients=pauli_expand(rho)),


def _dqc1(args) -> tuple:
    from .algorithms import dqc1_trace
    u = _read_json(args.unitary, "matrix file", _matrix)
    return {"algorithm": "dqc1", "estimate": dqc1_trace(u, args.epsilon),
            "exact": complex(np.trace(u)) / u.shape[0]},


def _algorithm(name: str, args) -> tuple:
    from .algorithms import ALGORITHMS, run
    options = {key: getattr(args, key) for key in ALGORITHMS[name].options}
    return run(name, args.path, args.machine, args.relaxation == "on", **options),


_SCAN = ("--machine", "--channel", "--amp-hz")
# The keys of `algorithms.ALGORITHMS`, in its order, so that no request imports it to list them
_ALGORITHMS = ("deutsch", "grover4", "bv", "count", "bell", "qho", "cnot-table")
# Each request by its command words, and the help of a first word that several share
COMMANDS = {
    "simulate": _Command("run a circuit file and report the final state",
                         ("--machine", "--path", "--relaxation", "--pulse-amp-hz"), dict,
                         (("--circuit",),), _simulate, ("simulate_report.json",)),
    "tomography": _Command("reconstruct a density-matrix JSON via spectra",
                           ("--machine", "--path", "--pulse-amp-hz"), dict, (("--state",),),
                           _tomography, ("tomography_report.json",)),
    "compile": _Command("compile a circuit file to pulses", ("--machine", "--pulse-amp-hz"),
                        dict, (("--circuit",),), _compile, ("pulse_program.json",)),
    "grape": _Command("optimize a pulse for a target gate",
                      ("--machine", "--seed", "--targets", "--params", "--duration-s"),
                      lambda: _layer("control").GRAPE_OPTIONS, (("--gate", "--unitary"),),
                      _grape, ("grape_pulse.csv", "grape_meta.json", "pulse_program.json")),
    "experiment rabi": _Command("Rabi pulse calibration", (*_SCAN, "--durations"), dict, (),
                                _rabi, ("rabi_scan.csv", "rabi_fit.json")),
    **{f"experiment {mode.lower()}": _Command(
        f"{kind} {mode} scan", (*_SCAN, "--delays", "--offset-spread-hz"), dict, (),
        functools.partial(_relaxation, mode),
        (f"{mode.lower()}_scan.csv", f"{mode.lower()}_fit.json"))
       for mode, kind in (("T1", "inversion-recovery"), ("T2", "spin-echo"))},
    "experiment pps": _Command("pseudo-pure |00> preparation", ("--machine",), dict, (), _pps,
                               ("pps_report.json",)),
    **{f"algorithm {name}": _Command(
        f"run {name}", ("--machine", "--path", "--relaxation"),
        lambda name=name: _layer("algorithms").ALGORITHMS[name].options, (),
        functools.partial(_algorithm, name), (f"algorithm_{name.replace('-', '_')}.json",))
       for name in _ALGORITHMS},
    "algorithm dqc1": _Command("run dqc1, a matrix algorithm on no machine", ("--epsilon",),
                               dict, (("--unitary",),), _dqc1, ("algorithm_dqc1.json",)),
}
_GROUPS = {"experiment": "calibration/preparation experiments",
           "algorithm": "run a built-in algorithm"}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's test (3.11) for a negative number, a value and not an option: whatever
        # starts as one, -1e-3 and -1,2 too, since no option name begins with a digit
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def _get_values(self, action, arg_strings):  # argparse (3.11) reads --out=-- as [], unchecked
        if arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: '--' is no value")
        return super()._get_values(action, arg_strings)

    def error(self, message):
        """A usage error is a ValidationError: `main` prints its one line and returns 2."""
        raise ValidationError(message)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of `COMMANDS`, a subparser per command word. Given argv, it holds the entry its
    first words name, or if none, every entry without options: --help and errors import no layer."""
    named = [path for path in COMMANDS
             if argv is None or path.split() == list(argv[:len(path.split())])]
    parser = _Parser(prog="nmrqc", description="Batch emulator of a desktop NMR quantum computer.")
    levels = {"": parser.add_subparsers(dest="command", required=True)}
    for path in named or COMMANDS:
        command, (group, _, word) = COMMANDS[path], path.rpartition(" ")
        if group not in levels:
            levels[group] = levels[""].add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest=group, required=True)
        leaf = levels[group].add_parser(word, help=command.help)
        if named:  # else the entry is only listed
            leaf.set_defaults(request=path)
            for name in ("--out", *command.options):
                leaf.add_argument(name, **_OPTIONS[name]())
            for key, option in command.declared().items():
                leaf.add_argument("--" + key.replace("_", "-"), **_argument(option))
            for names in command.inputs:
                exclusive = leaf.add_mutually_exclusive_group(required=True)
                for name in names:
                    exclusive.add_argument(name, **_OPTIONS[name]())
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)  # a usage error is a ValidationError
        command, out = COMMANDS[args.request], Path(args.out)
        written = [emit_report(obj, Path(name).suffix[1:], out / name)
                   for name, obj in zip(command.artifacts, command.body(args))]
    except (FitError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except NmrqcError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
