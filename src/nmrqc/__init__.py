"""nmrqc: pulse-level emulator of a 2-3 qubit desktop NMR quantum computer.

Library layers, bottom to top: quantum (states and Pauli algebra), spinsys
(machine model and Hamiltonians), dynamics (pulse programs and relaxation),
control (gates, circuit-to-pulse compiler, GRAPE), measurement (FID/spectra/
tomography), experiments (calibration procedures), algorithms (end-to-end
demos), cli (batch front end).
"""

from . import algorithms, control, dynamics, experiments, measurement, quantum, spinsys
from .algorithms import (
    AlgorithmReport,
    cnot_truth_table,
    dqc1_trace,
    prepare_bell,
    run_bernstein_vazirani,
    run_counting,
    run_deutsch,
    run_grover4,
    simulate_qho,
)
from .control import (
    Circuit,
    Gate,
    GrapeConfig,
    GrapeResult,
    circuit_unitary,
    compile_circuit,
    gate_fidelity,
    gate_matrix,
    grape_optimize,
)
from .dynamics import (
    Crusher,
    Delay,
    PulseProgram,
    RfSegment,
    evolve_program,
    evolve_programs,
    program_unitary,
)
from .errors import (
    FitError,
    NmrqcError,
    UncoupledPairError,
    UnresolvedPeaksError,
    ValidationError,
)
from .experiments import (
    FitResult,
    ScanResult,
    fit_model,
    prepare_pseudo_pure,
    rabi_calibration,
    relaxation_experiment,
)
from .measurement import (
    FIDSignal,
    Peak,
    Spectrum,
    readout_peak_table,
    spectrum_of,
    synthesize_fid,
    tomography,
    tomography_sweep,
)
from .quantum import (
    BlochVector,
    DensityMatrix,
    Ket,
    bloch_vector,
    partial_trace,
    pauli_expand,
    pauli_reconstruct,
    state_fidelity,
    tensor,
)
from .spinsys import (
    NucleusSpec,
    SpinSystemConfig,
    internal_hamiltonian,
    load_machine_config,
    preset,
    rf_hamiltonian,
    thermal_state,
)

__version__ = "0.1.0"
