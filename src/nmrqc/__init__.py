"""nmrqc: pulse-level emulator of a 2-3 qubit desktop NMR quantum computer.

Library layers, bottom to top: quantum (states and Pauli algebra), spinsys
(machine model and Hamiltonians), dynamics (pulse programs and relaxation),
control (gates, circuit-to-pulse compiler, GRAPE), measurement (FID/spectra/
tomography), experiments (calibration procedures), algorithms (end-to-end
demos), cli (batch front end).

The public names below are imported from their layer on first use (PEP 562),
so that importing one layer, or the CLI, does not import the others.
"""

# The public names, by the layer that defines them
_EXPORTS = {
    "algorithms": ("AlgorithmReport", "cnot_truth_table", "dqc1_trace", "prepare_bell",
                   "run_bernstein_vazirani", "run_counting", "run_deutsch", "run_grover4",
                   "simulate_qho"),
    "control": ("Circuit", "Gate", "GrapeConfig", "GrapeResult", "circuit_unitary",
                "compile_circuit", "gate_fidelity", "gate_matrix", "grape_optimize"),
    "dynamics": ("Crusher", "Delay", "PulseProgram", "RfSegment", "evolve_program",
                 "evolve_programs", "program_unitary"),
    "errors": ("FitError", "NmrqcError", "UncoupledPairError", "UnresolvedPeaksError",
               "ValidationError"),
    "experiments": ("FitResult", "ScanResult", "fit_model", "prepare_pseudo_pure",
                    "rabi_calibration", "relaxation_experiment"),
    "measurement": ("FIDSignal", "Peak", "Spectrum", "readout_peak_table", "spectrum_of",
                    "synthesize_fid", "tomography", "tomography_sweep"),
    "quantum": ("DensityMatrix", "Ket", "partial_trace", "pauli_expand", "pauli_reconstruct",
                "state_fidelity", "tensor"),
    "spinsys": ("NucleusSpec", "SpinSystemConfig", "internal_hamiltonian", "load_machine_config",
                "preset", "rf_hamiltonian", "thermal_state"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = sorted(_LAYER_OF)  # what `from nmrqc import *` imports

__version__ = "0.1.0"


def __getattr__(name: str):
    """A layer, or a public name from its layer; relative to this package's own name."""
    if name in _EXPORTS:  # imported by `__import__`, the import statement's path
        return getattr(__import__(f"{__name__}.{name}"), name)
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_LAYER_OF[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_LAYER_OF})
