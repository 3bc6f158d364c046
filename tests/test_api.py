from types import ModuleType

import nmrqc

# The names `nmrqc` exports besides its modules. A change to this list changes the
# public API: name it in CHANGES.md.
PUBLIC_NAMES = [
    "AlgorithmReport", "BlochVector", "Circuit", "Crusher", "Delay", "DensityMatrix",
    "FIDSignal", "FitError", "FitResult", "Gate", "GrapeConfig", "GrapeResult", "Ket",
    "NmrqcError", "NucleusSpec", "Peak", "PulseProgram", "RfSegment", "ScanResult",
    "Spectrum", "SpinSystemConfig", "UncoupledPairError", "UnresolvedPeaksError",
    "ValidationError", "bloch_vector", "circuit_unitary", "cnot_truth_table",
    "compile_circuit", "dqc1_trace", "evolve_program", "evolve_programs", "fit_model",
    "gate_fidelity", "gate_matrix", "grape_optimize", "internal_hamiltonian",
    "load_machine_config", "partial_trace", "pauli_expand", "pauli_reconstruct",
    "prepare_bell", "prepare_pseudo_pure", "preset", "program_unitary", "rabi_calibration",
    "readout_peak_table", "relaxation_experiment", "rf_hamiltonian",
    "run_bernstein_vazirani", "run_counting", "run_deutsch", "run_grover4",
    "simulate_qho", "spectrum_of", "state_fidelity", "synthesize_fid",
    "tensor", "thermal_state", "tomography", "tomography_sweep",
]


def test_public_names_are_pinned():
    names = sorted(n for n in dir(nmrqc)
                   if not n.startswith("_") and not isinstance(getattr(nmrqc, n), ModuleType))
    assert names == PUBLIC_NAMES
