"""The library's error contract: each public callable that takes scalar or array parameters,
called with one of them replaced by a hostile value and the others valid, returns or raises
an `NmrqcError`, and never warns. Object parameters (a machine, a state, a program) stay
valid: a wrong object is outside this contract."""

import inspect
import math
import operator
from collections.abc import Hashable
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmrqc
from conftest import make_weak_config
from nmrqc import (Circuit, Delay, DensityMatrix, FIDSignal, Gate, GrapeConfig, Ket, NmrqcError,
                   NucleusSpec, PulseProgram, RfSegment, SpinSystemConfig, UnresolvedPeaksError,
                   ValidationError, fit_model, gate_fidelity, gate_matrix, partial_trace,
                   pauli_reconstruct, preset, program_unitary, readout_peak_table,
                   relaxation_experiment, synthesize_fid, thermal_state)
from nmrqc import control, dynamics
from nmrqc.control import CNOT, DELAY, RX, X
from nmrqc.quantum import FINITE_NUMBERS, INTEGERS, POSITIVE, finite_array
from test_api import PUBLIC_NAMES

GEMINI = preset("gemini")
RHO = thermal_state(GEMINI)
PROGRAM = PulseProgram(GEMINI, (RfSegment((1e3, 0.0), (0.0, 0.0), 1e-5),))
CIRCUIT = Circuit(2, (X(1), CNOT(1, 2)))
RUNNER = {"path": "ideal", "relaxation": False}

# One valid call per entry: (name, scalar and array arguments, object arguments). A name may
# have more than one entry, so that each parameter is read by one of them.
ENTRIES = [
    ("AlgorithmReport", {"algorithm": "bell", "path": "ideal", "probabilities": {},
                         "derived": {}, "fidelity": None},
     {"circuit": CIRCUIT, "final_state": RHO}),
    ("BlochVector", {"x": 0.0, "y": 0.0, "z": 1.0}, {}),
    ("Circuit", {"n": 2}, {"gates": (X(1),)}),
    ("Delay", {"duration_s": 1e-3}, {}),
    ("DensityMatrix", {"matrix": np.eye(4) / 4}, {}),
    ("FIDSignal", {"channel": "1H", "samples": np.ones(4), "dt_s": 1e-3}, {}),
    ("FitResult", {"model": "exp_decay", "params": {"amplitude": 1.0, "tau": 1.0},
                   "residual": 0.0}, {}),
    ("Gate", {"name": "Rx", "targets": (1,), "params": (0.5,)}, {"matrix": None}),
    ("Gate", {"name": "U", "targets": (1,), "matrix": np.eye(2)}, {"params": ()}),
    ("GrapeConfig", {"segments": 1, "dt_s": 1e-5, "max_iters": 0, "target_fidelity": 0.9995,
                     "initial": "random"}, {}),
    ("GrapeResult", {"amplitudes_hz": np.zeros((1, 4)), "channels": ("1H", "31P"),
                     "dt_s": 1e-5, "fidelity_trace": np.ones(1), "final_unitary": np.eye(4),
                     "final_fidelity": 1.0, "iterations": 0, "stop_reason": "max_iters",
                     "seed": 0, "restarts": 0}, {"program": PROGRAM}),
    ("Ket", {"amplitudes": [1.0, 0.0]}, {}),
    ("NucleusSpec", {"label": "1H", "offset_hz": 0.0, "t1_s": 1.0, "t2_s": 0.5,
                     "polarization": 1e-5}, {}),
    ("Peak", {"frequency_hz": 0.0, "amplitude": 1j}, {}),
    ("RfSegment", {"amplitudes_hz": (1e3, 0.0), "phases_rad": (0.0, 0.0), "duration_s": 1e-5},
     {}),
    ("ScanResult", {"x": np.arange(3.0), "y": np.ones(3)}, {"fit": None}),
    ("Spectrum", {"channel": "1H", "frequencies_hz": np.arange(3.0), "amplitudes": np.ones(3)},
     {}),
    ("SpinSystemConfig", {"name": "m", "j_hz": [[0.0, 5.0], [5.0, 0.0]],
                          "coupling_model": "weak"}, {"nuclei": GEMINI.nuclei}),
    ("cnot_truth_table", {"direction": "12", **RUNNER}, {"config": GEMINI}),
    ("compile_circuit", {"pulse_amp_hz": 5e8}, {"c": CIRCUIT, "config": GEMINI}),
    ("dqc1_trace", {"u": np.eye(2), "epsilon": 1.0}, {}),
    ("evolve_program", {"relaxation": True}, {"rho": RHO, "program": PROGRAM}),
    ("evolve_programs", {"relaxation": True}, {"rho": RHO, "programs": [PROGRAM]}),
    ("fit_model", {"x": [1.0, 2.0, 3.0, 4.0], "y": np.exp(-np.arange(1.0, 5.0)),
                   "model": "exp_decay"}, {}),
    ("gate_fidelity", {"u": np.eye(2), "target": np.eye(2)}, {}),
    ("gate_matrix", {"n": 2}, {"g": X(1), "config": None}),
    ("grape_optimize", {"target": np.eye(4), "seed": 0},
     {"config": GEMINI, "gcfg": GrapeConfig(1, 1e-5, max_iters=0)}),
    ("load_machine_config", {"path": Path(nmrqc.__file__).parent / "presets" / "gemini.json"},
     {}),
    ("partial_trace", {"keep": 1}, {"rho": RHO}),
    ("pauli_reconstruct", {"coefficients": {"ZI": 0.5}}, {}),
    ("prepare_bell", {"which": "phi-", "recipe": "cy", **RUNNER}, {"config": GEMINI}),
    ("preset", {"name": "gemini"}, {}),
    ("rabi_calibration", {"channel": "1H", "amplitude_hz": 12.5e3, "durations_s": None},
     {"config": GEMINI}),
    ("relaxation_experiment", {"channel": "1H", "mode": "T2",
                               "delays_s": [1e-3, 2e-3, 4e-3, 8e-3, 16e-3],
                               "amplitude_hz": 12.5e3, "offset_spread_hz": 200.0,
                               "ensemble_points": 2}, {"config": GEMINI}),
    ("rf_hamiltonian", {"amplitudes_hz": [1e3, 0.0], "phases_rad": [0.0, 0.0]},
     {"config": GEMINI}),
    ("run_bernstein_vazirani", {"a": "11", **RUNNER}, {"config": GEMINI}),
    ("run_counting", {"case": "M1_first", "l_values": [1, 2, 3], **RUNNER}, {"config": GEMINI}),
    ("run_deutsch", {"f_case": "f1", **RUNNER}, {"config": GEMINI}),
    ("run_grover4", {"target": 4, **RUNNER}, {"config": GEMINI}),
    ("simulate_qho", {"initial": "n0", "omega_t_values": [0.5], **RUNNER}, {"config": GEMINI}),
    ("state_fidelity", {"a": np.eye(4) / 4, "b": [1.0, 0.0, 0.0, 0.0]}, {}),
    ("synthesize_fid", {"channel": "1H", "duration_s": 1e-2, "dt_s": 1e-3},
     {"rho": RHO, "config": GEMINI}),
    ("tensor", {"a": np.eye(2), "b": np.eye(2)}, {}),
    ("tomography", {"compiled_readout": True, "pulse_amp_hz": 5e8},
     {"rho": RHO, "config": GEMINI}),
    ("tomography_sweep", {"compiled_readout": True, "pulse_amp_hz": 5e8},
     {"rho": RHO, "config": GEMINI}),
]
# Public classmethods with scalar parameters, as ENTRIES holds callables: the name is the
# method's dotted path in the package
METHODS = [
    ("DensityMatrix.basis", {"n": 2, "state": "01"}, {}),
    ("DensityMatrix.basis", {"n": 2, "state": 3}, {}),
    ("Ket.from_bits", {"bits": "01"}, {}),
]
# Public callables whose parameters are all objects, or that have none
OBJECTS_ONLY = {"Crusher", "PulseProgram", "bloch_vector", "circuit_unitary",
                "internal_hamiltonian", "pauli_expand", "prepare_pseudo_pure", "program_unitary",
                "readout_peak_table", "spectrum_of", "thermal_state"}

# A bool, numeric strings, nan, +-inf, -1, 0, a subnormal, the float maximum, an int past the
# float range, None, a ragged nested list, a complex, an empty tuple, a dict, a 0-d array, and
# a numpy timedelta (an np.integer to numpy; of a unit, so that it hashes) alone and in a list
HOSTILE = [True, "1", "0.5", math.nan, math.inf, -math.inf, -1, 0, 1e-309, 1e308, 10**400,
           None, [[1.0], [2.0, 3.0]], 1 + 2j, (), {}, np.array(0.5), np.timedelta64(1, "s"),
           [np.timedelta64(1, "s"), np.timedelta64(2, "s")]]
HUGE_KEY = 10**5000  # named by its id, since its repr is 5,001 digits
JUNK = st.one_of(st.sampled_from(HOSTILE), st.floats(), st.integers(), st.text(max_size=3),
                 st.complex_numbers(), st.lists(st.one_of(st.floats(), st.booleans(),
                                                          st.text(max_size=2)), max_size=3))
PARAMETERS = [(entry, key) for entry in ENTRIES + METHODS for key in entry[1]]


def call(entry, key, value):
    """The entry's valid call with `key` set to `value`, which may raise an NmrqcError. A
    machine it builds must hash, since the caches are keyed by it."""
    name, scalars, objects = entry
    try:
        made = operator.attrgetter(name)(nmrqc)(**{**scalars, key: value}, **objects)
    except NmrqcError:
        return
    if isinstance(made, SpinSystemConfig):
        hash(made)


class TestErrorContract:
    def test_every_public_callable_is_in_the_table(self):
        """A new public name, or a new parameter of one, cannot skip the contract: each
        callable but the errors is in ENTRIES, whose entries name all of its parameters, or
        in OBJECTS_ONLY."""
        callables = {name for name in PUBLIC_NAMES
                     if not (isinstance(getattr(nmrqc, name), type)
                             and issubclass(getattr(nmrqc, name), NmrqcError))}
        named = {name for name, _, _ in ENTRIES}
        assert callables == named | OBJECTS_ONLY and not named & OBJECTS_ONLY
        for name in named | {name for name, _, _ in METHODS}:
            keys = {key for entry in ENTRIES + METHODS if entry[0] == name
                    for key in (*entry[1], *entry[2])}
            callable_ = operator.attrgetter(name)(nmrqc)
            assert keys == set(inspect.signature(callable_).parameters), name

    @pytest.mark.parametrize("entry", ENTRIES + METHODS,
                             ids=[entry[0] for entry in ENTRIES + METHODS])
    def test_each_valid_call_returns(self, entry):
        name, scalars, objects = entry
        operator.attrgetter(name)(nmrqc)(**scalars, **objects)

    @pytest.mark.parametrize("entry, key", [pytest.param(entry, key, id=f"{entry[0]}-{key}")
                                            for entry, key in PARAMETERS])
    def test_each_hostile_value_returns_or_raises_an_nmrqc_error(self, entry, key):
        for value in HOSTILE:
            try:
                call(entry, key, value)
            except Exception as exc:  # a warning too: the suite turns RuntimeWarnings to errors
                raise AssertionError(f"{entry[0]}({key}={value!r})") from exc

    @settings(max_examples=300, deadline=None)
    @given(parameter=st.sampled_from(PARAMETERS), value=JUNK)
    def test_any_value_returns_or_raises_an_nmrqc_error(self, parameter, value):
        call(*parameter, value)


SEGMENT_RULE = "^RF segment amplitudes, phases and duration must be finite$"
PAULI_RULE = "^Pauli strings must be of one length, 1 to 6 of IXYZ$"


class TestLibraryDomains:
    """What the declarations accept and store: a number of the kind, converted to it; never a
    bool, a string or an int past the float range."""

    def test_a_check_keeps_exact_values_and_converts_the_rest(self):
        got = FINITE_NUMBERS.check("", [0.5, 2, np.float64(0.25), np.int64(3), np.float32(1.5)])
        assert got == (0.5, 2.0, 0.25, 3.0, 1.5) and {type(v) for v in got} == {float}
        assert INTEGERS.check("", (np.int64(4),)) == (4,) and type(INTEGERS.check("", [4])[0]) is int
        assert POSITIVE.check("dt", 1) == 1.0 and type(POSITIVE.check("dt", 1)) is float
        with pytest.raises(ValidationError, match="^duration must be > 0 and finite$"):
            POSITIVE.check("duration", 0.0)

    def test_a_numpy_timedelta_is_no_number(self):
        # an np.integer to numpy: each was read as an integer, and qubit 1 was kept
        with pytest.raises(ValidationError):
            INTEGERS.check("", [np.timedelta64(5)])
        with pytest.raises(ValidationError):
            partial_trace(RHO, [np.timedelta64(1)])
        with pytest.raises(ValidationError):
            finite_array([np.timedelta64(3)], float, "")
        with pytest.raises(ValidationError, match="^gate X: targets must be integers$"):
            Gate("X", (np.timedelta64(1),))

    @pytest.mark.parametrize("option", [dynamics.PULSE_AMPLITUDE, control.SEGMENT_DT])
    def test_positive_numbers_are_one_declaration(self, option):
        assert option.ok is POSITIVE.ok and option.kind is float and not option.listed
        assert option.rule != POSITIVE.rule  # each keeps its own message

    @pytest.mark.parametrize("fields", [
        ((True, 0.0), (0.0, 0.0), 1e-5), ((1e3, 0.0), (0.0, np.True_), 1e-5),
        ((1e3, 0.0), (0.0, 0.0), True), (("1", 0.0), (0.0, 0.0), 1e-5),
        ((10**400, 0.0), (0.0, 0.0), 1e-5), ((1e3, 0.0), (0.0, 0.0), 10**400),
        ((1e3, 0.0), (0.0, 0.0), None), ((1e3, 0.0), (0.0, 0.0), 1 + 0j),
    ], ids=["bool_amplitude", "numpy_bool_phase", "bool_duration", "string_amplitude",
            "huge_amplitude", "huge_duration", "none_duration", "complex_duration"])
    def test_a_segment_holds_numbers_only(self, fields):
        with pytest.raises(ValidationError, match=SEGMENT_RULE):
            RfSegment(*fields)

    @pytest.mark.parametrize("amps, phases", [(1e3, 0.0), ("ab", "cd"), ((1e3,), (0.0, 0.0)),
                                              ({1e3: 1}, {0.0: 1}), (np.ones(2), np.zeros(2))])
    def test_amplitudes_and_phases_are_lists_of_one_length(self, amps, phases):
        with pytest.raises(ValidationError, match="must be lists of one length"):
            RfSegment(amps, phases, 1e-5)

    def test_a_segment_stores_float_tuples_and_propagates_as_its_float_twin(self, gemini):
        built = RfSegment([1000, np.float64(0.0)], [np.int64(0), 0.5], np.float32(2**-17))
        twin = RfSegment((1000.0, 0.0), (0.0, 0.5), 2.0**-17)
        assert (built.amplitudes_hz, built.phases_rad, built.duration_s) == (
            twin.amplitudes_hz, twin.phases_rad, twin.duration_s)
        assert {type(v) for v in (*built.amplitudes_hz, *built.phases_rad, built.duration_s)} == {
            float} and type(built.amplitudes_hz) is tuple is type(built.phases_rad)
        assert built == twin and hash(built) == hash(twin)
        units = [program_unitary(PulseProgram(gemini, (seg,))) for seg in (built, twin)]
        assert np.array_equal(*units)

    @pytest.mark.parametrize("duration", [True, "1e-3", 10**400, -1e-3, np.nan, None, [1e-3]],
                             ids=["bool", "string", "huge", "negative", "nan", "none", "list"])
    def test_a_delay_is_a_duration(self, duration):
        with pytest.raises(ValidationError, match="^delay duration must be finite and >= 0$"):
            Delay(duration)
        assert type(Delay(np.float64(1e-3)).duration_s) is float and Delay(0).duration_s == 0.0

    @pytest.mark.parametrize("field", ["offset_hz", "t1_s", "t2_s", "polarization"])
    @pytest.mark.parametrize("value", [True, "1", 10**400, None, 1j],
                             ids=["bool", "string", "huge", "none", "complex"])
    def test_a_nucleus_holds_numbers_only(self, field, value):
        values = {"offset_hz": 0.0, "t1_s": 1.0, "t2_s": 0.5, "polarization": 1e-5, field: value}
        with pytest.raises(ValidationError, match="^nucleus '1H': offset_hz, t1_s, t2_s and "
                                                  "polarization must be finite$"):
            NucleusSpec("1H", **values)
        nucleus = NucleusSpec("1H", np.int64(3), 1, np.float32(0.5), 0)
        assert [type(getattr(nucleus, f)) for f in values] == [float] * 4

    @pytest.mark.parametrize("keep", [True, [1, True], "1", 1.0, [], None, np.array(1)])
    def test_keep_is_a_qubit_or_a_list_of_them(self, keep):
        with pytest.raises(ValidationError, match="^need one or more values, all integers$"):
            partial_trace(RHO, keep)
        assert partial_trace(RHO, np.int64(2)).n == 1
        assert np.array_equal(partial_trace(RHO, (np.int64(1),)).matrix,
                              partial_trace(RHO, 1).matrix)

    @pytest.mark.parametrize("coefficients", [{"Z": True}, {"Z": "0.5"}, {"Z": 10**400},
                                              {"Z": np.nan}, {}])
    def test_pauli_coefficients_are_finite_numbers(self, coefficients):
        with pytest.raises(ValidationError, match="^need one or more values, all finite$"):
            pauli_reconstruct(coefficients)
        with pytest.raises(ValidationError, match="must be a mapping"):
            pauli_reconstruct([("Z", 0.5)])

    @pytest.mark.parametrize("key", [k for k in HOSTILE if isinstance(k, Hashable)]
                             + ["", "ZA", "zi", b"ZI", ("Z", "I"), HUGE_KEY, "I" * 7],
                             ids=lambda v: "huge" if v is HUGE_KEY else repr(v)[:12])
    def test_pauli_strings_are_strings_over_ixyz(self, key):
        for coefficients in ({key: 0.5}, {"ZI": 0.5, key: 0.5}):
            with pytest.raises(ValidationError, match=PAULI_RULE):
                pauli_reconstruct(coefficients)

    def test_pauli_strings_are_of_one_length(self):
        with pytest.raises(ValidationError, match=PAULI_RULE):
            pauli_reconstruct({"ZI": 0.5, "Z": 0.5})

    @pytest.mark.parametrize("label", [v for v in HOSTILE if not isinstance(v, str)]
                             + ["", b"1H", ["1H"], np.array("1H")], ids=lambda v: repr(v)[:12])
    def test_a_nucleus_label_is_a_non_empty_string(self, label):
        with pytest.raises(ValidationError, match="^nucleus label must be a non-empty string$"):
            NucleusSpec(label, 0.0, 1.0, 0.5, 0.0)

    def test_a_nucleus_label_is_stored_as_a_string_and_hashes(self):
        nucleus = NucleusSpec(np.str_("1H"), 0.0, 1.0, 0.5, 0.0)
        assert type(nucleus.label) is str and nucleus == NucleusSpec("1H", 0.0, 1.0, 0.5, 0.0)
        config = SpinSystemConfig("m", (nucleus,), [[0.0]])
        assert hash(config) == hash(SpinSystemConfig("m", (NucleusSpec("1H", 0, 1, 0.5, 0),),
                                                     [[0.0]]))

    @pytest.mark.parametrize("value, dtype", [
        (True, float), ([True, False], float), ("1", float), ([1.0, "1"], complex),
        ([[1.0], [2.0, 3.0]], float), (10**400, complex), ({}, float), (None, complex), ([1j], float), ([np.nan], complex),
        ([1.0, np.inf], float), ([[True, 0], [0, 1]], complex), ([1.0, np.True_], float),
        ([1.0], int), ([2**63], int), ([[1], [True]], int), (np.ones(2), int), (["1"], int),
        (np.array([2**64 - 1], dtype=np.uint64), int)])
    def test_a_raw_array_is_an_array_of_finite_numbers(self, value, dtype):
        with pytest.raises(ValidationError, match="^bad$"):
            finite_array(value, dtype, "bad")

    def test_a_raw_array_reads_each_entry_as_a_check_does(self):
        # an int past int64 is a float where a float is asked for; numpy scalars and arrays
        # in a list are numbers of their kind; an empty list is an empty array
        assert finite_array([2**70, np.float32(0.5)], float, "").tolist() == [2.0**70, 0.5]
        assert finite_array((np.ones(2), np.zeros(2)), complex, "").shape == (2, 2)
        assert finite_array([np.int64(3), 4], int, "").dtype == int
        assert finite_array([], int, "").shape == (0,)
        with pytest.raises(ValidationError, match="must be arrays of finite numbers"):
            gate_fidelity([[True, 0], [0, 1]], np.eye(2))

    def test_a_raw_array_is_copied(self):
        given = np.eye(2, dtype=complex)
        ket = Ket(given[0])
        assert given.flags.writeable and not ket.amplitudes.flags.writeable
        assert finite_array([1, 2], float, "").dtype == float
        assert finite_array(np.eye(2), complex, "").dtype == complex

    def test_a_gate_name_is_a_table_name_and_its_lists_are_lists(self):
        for name in ([], {}, None, 1, "u"):
            with pytest.raises(ValidationError, match="^unknown gate"):
                Gate(name, (1,))
        for targets, params in ((1, ()), ((1,), 0.5), (None, ())):
            with pytest.raises(ValidationError, match="targets and parameters must be lists"):
                Gate("Rx", targets, params)

    def test_each_gate_helper_builds_its_table_gate(self):
        assert (RX(1, 0.5), CNOT(2, 1), DELAY(1e-3), X(3)) == (
            Gate("Rx", (1,), (0.5,)), Gate("CNOT", (2, 1)), Gate("Delay", (), (1e-3,)),
            Gate("X", (3,)))
        with pytest.raises(ValidationError, match="^gate X takes 0 parameter"):
            X(1, 2)
        with pytest.raises(ValidationError, match="^gate Rx: parameters must be finite numbers$"):
            RX(1, "0.5")  # no longer converted by the helper

    @pytest.mark.parametrize("n", [True, 10**400, 0, 7, 2.0, "2"])
    def test_a_qubit_count_is_an_integer_from_1_to_6(self, n):
        with pytest.raises(ValidationError, match="^qubit count .* outside 1..6$"):
            Circuit(n, ())
        with pytest.raises(ValidationError, match="^qubit count .* outside 1..6$"):
            gate_matrix(X(1), n)
        with pytest.raises(ValidationError, match="^qubit count .* outside 1..6$"):
            DensityMatrix.basis(n, 0)

    @pytest.mark.parametrize("state", [5, "111", -1, "2", "1", " 11", True, 1.0, None])
    def test_a_basis_state_is_an_index_or_a_label_of_n_bits(self, state):
        with pytest.raises(ValidationError, match=r"^basis state must be an index 0\.\.3 or 2 "
                                                  "letters of 0 and 1$"):
            DensityMatrix.basis(2, state)
        assert np.array_equal(DensityMatrix.basis(np.int64(2), np.int64(2)).matrix,
                              DensityMatrix.basis(2, "10").matrix)

    @pytest.mark.parametrize("bits", ["2", "", 5, "1" * 7, None, b"01", "0b1"])
    def test_bits_are_1_to_6_letters_of_0_and_1(self, bits):
        with pytest.raises(ValidationError, match="^bits must be 1 to 6 letters of 0 and 1$"):
            Ket.from_bits(bits)
        assert Ket.from_bits(np.str_("10")).amplitudes.tolist() == [0, 0, 1, 0]

    @pytest.mark.parametrize("name", [[], {}, 5, None, b"m"])
    def test_a_machine_name_is_a_string(self, name):
        with pytest.raises(ValidationError, match="^machine name must be a string$"):
            SpinSystemConfig(name, GEMINI.nuclei, GEMINI.j_hz)
        config = SpinSystemConfig(np.str_("m"), GEMINI.nuclei, GEMINI.j_hz)
        assert type(config.name) is str and hash(config) == hash(replace(GEMINI, name="m"))

    def test_peak_readout_raises_on_every_call_of_an_unresolved_machine(self):
        crowded = make_weak_config([0.0, 0.1], [[0.0, 0.0], [0.0, 0.0]], t2=0.2)
        rho = thermal_state(crowded)
        for _ in range(3):
            with pytest.raises(UnresolvedPeaksError):
                readout_peak_table(rho, crowded)
        with pytest.raises(ValidationError, match="state has 2 qubits, machine has 1"):
            readout_peak_table(rho, make_weak_config([0.0], [[0.0]]))

    def test_the_fit_model_and_the_ensemble_are_declared(self):
        x = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ValidationError, match="^model must be one of"):
            fit_model(x, np.exp(-np.array(x)), ["exp_decay"])
        with pytest.raises(ValidationError, match="^need one or more values, all finite$"):
            fit_model(["1", "2", "3", "4"], x, "exp_decay")
        with pytest.raises(ValidationError, match="^ensemble_points must be an integer >= 2"):
            relaxation_experiment(GEMINI, "1H", "T2", [1e-3, 2e-3, 4e-3, 8e-3, 16e-3],
                                  offset_spread_hz=200.0, ensemble_points=1001)

    @pytest.mark.parametrize("dt_s", [True, "1e-3", 0.0, -1.0, np.inf, 10**400],
                             ids=["bool", "string", "zero", "negative", "inf", "huge"])
    def test_a_sample_spacing_is_positive(self, dt_s):
        with pytest.raises(ValidationError, match="^FID sample spacing must be > 0 and finite$"):
            FIDSignal("1H", np.ones(4), dt_s)
        with pytest.raises(ValidationError, match="^FID sample spacing must be > 0 and finite$"):
            synthesize_fid(RHO, GEMINI, "1H", 1e-2, dt_s)
