"""Batch command-line front end.

Subcommands: simulate, tomography, compile, grape, experiment
{rabi|t1|t2|pps}, algorithm {deutsch|grover4|bv|count|bell|qho|dqc1|
cnot-table}. Every run writes its declared artifacts into --out and
nothing else; reports are written atomically with sorted keys and floats
at 12 significant digits, so identical requests (and seeds) produce
byte-identical files.

Exit codes: 0 success, 2 validation failure, 3 numerical failure, 4 output I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import algorithms, control, experiments, measurement
from .control import Circuit, GrapeConfig, compile_circuit, gate_matrix, grape_optimize
from .dynamics import PULSE_AMPLITUDE
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
    if isinstance(obj, (np.integer,)):
        return int(obj)
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
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def emit_report(obj, fmt: str, path) -> Path:
    """Write a report as canonical JSON or CSV (via the object's csv_text)."""
    path = Path(path)
    if fmt == "json":
        text = json.dumps(_canonical(obj), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        text = obj if isinstance(obj, str) else obj.csv_text()
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


# Options that only some subcommands read; each subcommand accepts just those it reads.
_OPTIONS = {
    "--machine": dict(type=_machine, default="gemini",
                      help="machine config path or preset name (gemini, triangulum)"),
    "--seed": _argument(control.SEED),
    "--path": dict(choices=algorithms.PATH.choices, default=algorithms.PATH.default),
    "--relaxation": dict(choices=("on", "off"), default="off"),
    "--pulse-amp-hz": _argument(PULSE_AMPLITUDE, default=control.DEFAULT_PULSE_AMP_HZ),
    "--channel": dict(help="nucleus label (default: first channel)"),
    "--amp-hz": _argument(PULSE_AMPLITUDE, default=experiments.SCAN_AMP_HZ),
    "--durations": _argument(FINITE_NUMBERS, help="comma-separated pulse durations in s"),
    "--delays": _argument(FINITE_NUMBERS, help="comma-separated delays in s"),
    "--offset-spread-hz": _argument(experiments.OFFSET_SPREAD),
}


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
        """A usage error is one line, like every other exit 2."""
        self.exit(2, f"error: validation: {message}\n")


def _add_common(parser: argparse.ArgumentParser, *options: str, declared=None):
    """--out, the named `_OPTIONS` (--machine is a preset or file, loaded when parsed), and an
    option per `declared` keyword (l_values is --l-values), checked as declared."""
    parser.add_argument("--out", default=".", help="output directory")
    for name in options:
        parser.add_argument(name, **_OPTIONS[name])
    for key, option in (declared or {}).items():
        parser.add_argument("--" + key.replace("_", "-"), **_argument(option))


def _cmd_simulate(args) -> list[Path]:
    cfg, circuit = args.machine, _read_json(args.circuit, "circuit file", Circuit.from_json_dict)
    ideal = DensityMatrix._checked(algorithms._execute([circuit], cfg, algorithms.PATH.default)[0])
    rho = ideal if args.path == algorithms.PATH.default else DensityMatrix._checked(
        algorithms._execute([circuit], cfg, args.path, args.relaxation == "on",
                            args.pulse_amp_hz)[0])
    report = {
        "command": "simulate",
        "machine": cfg.name,
        "path": args.path,
        "relaxation": args.relaxation,
        "probabilities": rho.probabilities(),
        "fidelity": state_fidelity(rho, ideal),
        "final_state": rho,
    }
    return [emit_report(report, "json", Path(args.out) / "simulate_report.json")]


def _cmd_tomography(args) -> list[Path]:
    rho = _read_json(args.state, "state file", DensityMatrix.from_json_dict)
    recon, peak_tables = measurement.tomography_sweep(
        rho, args.machine, compiled_readout=args.path != algorithms.PATH.default,
        pulse_amp_hz=args.pulse_amp_hz,
    )
    report = {
        "command": "tomography",
        "machine": args.machine.name,
        "reconstructed": recon,
        "max_error_vs_input": float(np.max(np.abs(recon.matrix - rho.matrix))),
        "peak_tables": peak_tables,
    }
    return [emit_report(report, "json", Path(args.out) / "tomography_report.json")]


def _cmd_compile(args) -> list[Path]:
    circuit = _read_json(args.circuit, "circuit file", Circuit.from_json_dict)
    program = compile_circuit(circuit, args.machine, args.pulse_amp_hz)
    return [emit_report(program, "json", Path(args.out) / "pulse_program.json")]


def _cmd_grape(args) -> list[Path]:
    if args.gate is None:  # --gate and --unitary are one required exclusive group
        target = _read_json(args.unitary, "matrix file", _matrix)
    else:
        gate = control.Gate(args.gate, tuple(args.targets or (1,)), tuple(args.params or ()))
        target = gate_matrix(gate, args.machine.n, args.machine)
    given = {key: getattr(args, key) for key in control.GRAPE_OPTIONS}
    gcfg = GrapeConfig(dt_s=args.duration_s / args.segments, **given)
    result = grape_optimize(target, args.machine, gcfg, seed=args.seed)
    out = Path(args.out)
    return [
        emit_report(result.csv_text(), "csv", out / "grape_pulse.csv"),
        emit_report(result.metadata_dict(), "json", out / "grape_meta.json"),
        emit_report(result.program, "json", out / "pulse_program.json"),
    ]


def _cmd_experiment(args) -> list[Path]:
    cfg, out = args.machine, Path(args.out)
    if args.experiment == "pps":
        program, rho = experiments.prepare_pseudo_pure(cfg)
        report = {
            "command": "experiment.pps",
            "machine": cfg.name,
            "program": program,
            "final_state": rho,
            "pauli_coefficients": pauli_expand(rho),
        }
        return [emit_report(report, "json", out / "pps_report.json")]

    channel = args.channel or cfg.channels[0]
    fit_report = {
        "command": f"experiment.{args.experiment}",
        "machine": cfg.name,
        "channel": channel,
    }
    if args.experiment == "rabi":
        scan, t90, t180 = experiments.rabi_calibration(cfg, channel, args.amp_hz, args.durations)
        fit_report.update(amplitude_hz=args.amp_hz, t90_s=t90, t180_s=t180)
    else:
        scan = experiments.relaxation_experiment(
            cfg,
            channel,
            args.experiment.upper(),
            args.delays,
            amplitude_hz=args.amp_hz,
            offset_spread_hz=args.offset_spread_hz,
        )
    fit_report["fit"] = {"model": scan.fit.model, "params": scan.fit.params,
                         "residual": scan.fit.residual}
    return [
        emit_report(scan.csv_text(), "csv", out / f"{args.experiment}_scan.csv"),
        emit_report(fit_report, "json", out / f"{args.experiment}_fit.json"),
    ]


def _cmd_algorithm(args) -> list[Path]:
    name, out = args.algorithm, Path(args.out)
    if name == "dqc1":
        if not args.unitary:
            raise ValidationError("dqc1 needs --unitary")
        u = _read_json(args.unitary, "matrix file", _matrix)
        report = {
            "algorithm": "dqc1",
            "estimate": algorithms.dqc1_trace(u, args.epsilon),
            "exact": complex(np.trace(u)) / u.shape[0],
        }
        return [emit_report(report, "json", out / "algorithm_dqc1.json")]
    options = {key: getattr(args, key) for key in algorithms.ALGORITHMS[name].options}
    report = algorithms.run(name, args.path, args.machine, args.relaxation == "on", **options)
    return [emit_report(report, "json", out / f"algorithm_{name.replace('-', '_')}.json")]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nmrqc",
        description="Batch emulator of a desktop NMR quantum computer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a circuit file and report the final state")
    _add_common(p, "--machine", "--path", "--relaxation", "--pulse-amp-hz")
    p.add_argument("--circuit", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tomography", help="reconstruct a density-matrix JSON via spectra")
    _add_common(p, "--machine", "--path", "--pulse-amp-hz")
    p.add_argument("--state", required=True, help="density-matrix JSON file")
    p.set_defaults(func=_cmd_tomography)

    p = sub.add_parser("compile", help="compile a circuit file to a pulse program")
    _add_common(p, "--machine", "--pulse-amp-hz")
    p.add_argument("--circuit", required=True)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("grape", help="optimize a pulse for a target gate")
    _add_common(p, "--machine", "--seed", declared=control.GRAPE_OPTIONS)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--gate", help="gate name, e.g. X90")
    target.add_argument("--unitary", help="JSON file with re/im target matrix")
    p.add_argument("--targets", **_argument(INTEGERS,
                                            help="comma-separated qubit indices (default 1)"))
    p.add_argument("--params", **_argument(FINITE_NUMBERS, help="comma-separated gate parameters"))
    p.add_argument("--duration-s", **_argument(
        replace(POSITIVE, default=1.5e-3, rule="duration must be > 0 and finite")))
    p.set_defaults(func=_cmd_grape)

    # each experiment and algorithm takes the name first, then only the options it reads
    p = sub.add_parser("experiment", help="calibration/preparation experiments")
    p.set_defaults(func=_cmd_experiment)
    kinds = p.add_subparsers(dest="experiment", required=True)
    _add_common(kinds.add_parser("rabi"), "--machine", "--channel", "--amp-hz", "--durations")
    for name in ("t1", "t2"):
        _add_common(kinds.add_parser(name), "--machine", "--channel", "--amp-hz", "--delays",
                    "--offset-spread-hz")
    _add_common(kinds.add_parser("pps"), "--machine")

    p = sub.add_parser("algorithm", help="run a built-in algorithm")
    p.set_defaults(func=_cmd_algorithm)
    kinds = p.add_subparsers(dest="algorithm", required=True)
    for name, algorithm in algorithms.ALGORITHMS.items():
        q = kinds.add_parser(name)
        _add_common(q, "--machine", "--path", "--relaxation", declared=algorithm.options)
    q = kinds.add_parser("dqc1")  # a matrix algorithm, on no machine
    _add_common(q)
    q.add_argument("--unitary", help="JSON re/im matrix")
    q.add_argument("--epsilon", **_argument(algorithms.EPSILON))

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # a domain's ValidationError passes through
        written = args.func(args)
    except (FitError, np.linalg.LinAlgError, FloatingPointError) as exc:
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
