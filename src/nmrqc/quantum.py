"""Quantum-state formalism: kets, density matrices, Pauli algebra, fidelities.

Conventions used throughout the package:

* qubit 1 is the leftmost tensor factor, i.e. the most significant bit of
  the computational-basis index (|00>, |01>, |10>, |11> ordering);
* qubit indices in public APIs are 1-based, matching spin numbering;
* spin operators are I_a = sigma_a / 2 with hbar = 1.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9
PURITY_TOL = 1e-9
UNITARITY_TOL = 1e-10
MAX_QUBITS = 6  # the largest register: a circuit's or a Pauli string's qubits

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = {"I": SIGMA_I, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def _qubit_count(dim: int, what: str) -> int:
    n = int(round(np.log2(dim))) if dim >= 2 else 0  # log2(0) is -inf
    if 2**n != dim or n < 1:
        raise ValidationError(f"{what} dimension {dim} is not a power of two")
    return n


# A document is declared once, as plain data, {key: kind or (kind, default)}. A kind is a
# scalar kind of _SCALARS; an array kind of _ARRAYS, (dtype, dimensions, what it is); "complex",
# a COMPLEX object; or [item name, declaration], a list of objects of that declaration.
_ARRAYS = {"integers": (int, 1, "a list of integers"),
           "numbers": (float, 1, "a list of finite numbers"),
           "matrix": (float, 2, "a list of equal-length rows of finite numbers")}
COMPLEX = {"re": "matrix", "im": "matrix"}


def read(doc, declared: Mapping, what: str) -> dict:
    """The fields of the JSON object doc under a declaration, by key: each declared key read
    by `field`, or its default if it has one and is absent. `what` names doc in errors. Any
    other key is an error, not ignored, unless it is a note, a key that starts with "_"."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be an object")
    for key in doc:
        if key not in declared and not str(key).startswith("_"):
            raise ValidationError(f"{what}: unknown field {key!r}")
    values = {}
    for key, spec in declared.items():
        if key in doc:
            values[key] = field(doc, key, spec[0] if isinstance(spec, tuple) else spec, what)
        elif isinstance(spec, tuple):
            values[key] = spec[1]
        else:
            raise ValidationError(f"{what} has no {key!r} field")
    return values


def field(doc: dict, key: str, kind, what: str):
    """doc[key] read as a declared kind: a scalar kind by its Option, an array kind by
    `finite_array` (one dimension: a tuple of Python numbers), a "complex" object as a complex
    matrix, and each object of a list by `read`, named "<item name> <index>" in errors."""
    if isinstance(kind, list):
        return [read(d, kind[1], f"{what}: {kind[0]} {i}")
                for i, d in enumerate(field(doc, key, "list", what))]
    if kind in _SCALARS:
        return _SCALARS[kind].check((what, key), doc[key])
    name = f"{what}: {key!r}"
    if kind == "complex":
        return complex_matrix(read(doc[key], COMPLEX, name), name)
    dtype, ndim, shape = _ARRAYS[kind]
    values = finite_array(doc[key], dtype, f"{name} must be {shape}")
    if values.ndim != ndim:
        raise ValidationError(f"{name} must be {shape}")
    return tuple(values.tolist()) if ndim == 1 else values


def complex_matrix(parts: Mapping, what: str) -> np.ndarray:
    """The complex matrix of the "re" and "im" matrices that `read` gives for COMPLEX, bit for
    bit (re + 1j * im would flip signed zeros)."""
    re, im = parts["re"], parts["im"]
    if re.shape != im.shape:
        raise ValidationError(f"{what}: 're' is {re.shape} but 'im' is {im.shape}")
    m = np.empty(re.shape, dtype=complex)
    m.real, m.imag = re, im
    return m


def complex_json(m) -> dict:
    """The COMPLEX object of a complex number or matrix: the one writer of a re/im pair."""
    m = np.asarray(m)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def write(obj, declared: Mapping) -> dict:
    """The JSON object of `obj` under a declaration (see `read`): each declared key from the
    attribute of that name, written as its kind. A value that is None is left out."""
    doc = {}
    for key, spec in declared.items():
        kind, value = spec[0] if isinstance(spec, tuple) else spec, getattr(obj, key)
        if isinstance(kind, list):
            value = [write(item, kind[1]) for item in value]
        elif kind in _ARRAYS:
            value = value.tolist() if kind == "matrix" else list(value)
        elif kind == "complex" and value is not None:
            value = complex_json(value)
        if value is not None:
            doc[key] = value
    return doc


# The values of each kind of Option, as JSON has them: a bool is no number, 2.0 no integer,
# and a numpy timedelta, an np.integer to numpy, no number either; 0 and 1 are no bool
_OF_KIND = {int: (int, np.integer), float: (int, float, np.integer, np.floating),
            complex: (int, float, complex, np.number), str: (str,), list: (list,),
            bool: (np.bool_,)}
_NO_NUMBER = (bool, np.timedelta64)


@dataclass(frozen=True)
class Option:
    """A parameter's one domain, declared by the layer that reads it: its default and its
    values, the `choices` if given, else the values of `kind` (`listed`: lists of one or
    more) for which `ok` holds, as `rule` says: a format string of the name `check` is given."""

    default: object = None
    choices: tuple = ()
    kind: type = str
    rule: str = ""
    ok: Callable[[object], bool] = lambda value: True
    listed: bool = False

    def check(self, name: str, value):
        """value as a `kind` (`listed`: a tuple of them) if declared, else ValidationError."""
        kind, ok = self.kind, self.choices.__contains__ if self.choices else self.ok
        try:
            if type(value) is kind and not self.listed and ok(value):  # one value of the kind
                return value
            values = []
            for v in value if self.listed else (value,):
                if type(v) is not kind:  # converted if of the kind, as an int is to a float
                    v = kind(v) if isinstance(v, _OF_KIND[kind]) and not isinstance(
                        v, _NO_NUMBER) else None
                if v is None or not ok(v):
                    raise TypeError
                values.append(v)
            if values:
                return tuple(values) if self.listed else values[0]
        except (TypeError, OverflowError):  # not a list, or not of the kind; past the float range
            pass
        raise ValidationError(self.rule.format(name=name) if self.rule
                              else f"{name} must be one of {self.choices}")

    def parse(self, text: str):
        """The CLI's argparse type: `check` of a text as a `kind` (`listed`: a comma list)."""
        try:
            return self.check("", [self.kind(t) for t in text.split(",") if t.strip()]
                              if self.listed else self.kind(text))
        except (ValueError, ValidationError):
            rule = self.rule or f"must be one of {self.choices}"
            raise ValidationError(f"bad {self.kind.__name__}{' list' * self.listed} {text!r}: "
                                  f"{rule}") from None


# Lists of finite numbers: scan durations and delays, fit data, Pauli coefficients, qho's omega_t
FINITE_NUMBERS = Option(kind=float, listed=True, ok=math.isfinite,
                        rule="need one or more values, all finite")
INTEGERS = Option(kind=int, listed=True, rule="need one or more values, all integers")
# A library flag, relaxation or compiled_readout: a bool, never a number or a text read as one
FLAG = Option(kind=bool, rule="{name} must be True or False")
# A number > 0 and finite: a pulse amplitude, a sample or segment spacing, a duration
POSITIVE = Option(kind=float, ok=lambda v: 0 < v < math.inf, rule="{name} must be > 0 and finite")
# A register's qubit count (a circuit's, or the n a gate or basis state is embedded in), and
# a computational basis label
QUBIT_COUNT = Option(kind=int, rule=f"qubit count {{name!r}} outside 1..{MAX_QUBITS}",
                     ok=lambda n: 1 <= n <= MAX_QUBITS)
BITS = Option(kind=str, ok=lambda b: 0 < len(b) <= MAX_QUBITS and not b.strip("01"),
              rule=f"{{name}} must be 1 to {MAX_QUBITS} letters of 0 and 1")


# The scalar kinds of a document (see `read`), each named by (document, key) so that the name
# is formatted only on an error; and the entries of a raw list of each dtype
_SCALARS = {"string": Option(kind=str, rule="{name[0]}: {name[1]!r} must be a string"),
            "integer": Option(kind=int, rule="{name[0]}: {name[1]!r} must be an integer"),
            "number": Option(kind=float, ok=math.isfinite,
                             rule="{name[0]}: {name[1]!r} must be a finite number"),
            "list": Option(kind=list, rule="{name[0]}: {name[1]!r} must be a list")}
_ENTRIES = {dtype: Option(kind=dtype, listed=True, ok=cmath.isfinite, rule="{name}")
            for dtype in (int, float, complex)}


def finite_array(value, dtype: type, message: str) -> np.ndarray:
    """A copy of value as an array of dtype (int, float or complex) if it holds finite numbers
    of that kind, else ValidationError: an ndarray by its dtype (no bool, cast safely: 1.0 is
    no int), any other value, as a list of numbers or of arrays, entry by entry by `Option`."""
    try:
        if not isinstance(value, np.ndarray):  # a ragged list is an array of lists
            cells = np.array(value, dtype=object)
            entries = _ENTRIES[dtype].check(message, cells.flat) if cells.size else ()
            return np.array(entries, dtype).reshape(cells.shape)
        if value.dtype.kind != "b" and np.count_nonzero(np.isfinite(value)) == value.size:
            return value.astype(dtype, casting="safe")  # count_nonzero: .all() costs twice as much
    except (ValueError, TypeError, OverflowError, RuntimeError):
        pass  # ragged arrays; no number dtype, or an unsafe cast; past int64; > 32 dimensions
    raise ValidationError(message)


def unitary(value, sizes: Sequence[int], what: str) -> np.ndarray:
    """value as a complex array if it is a d x d unitary (within UNITARITY_TOL), d in sizes."""
    u = finite_array(value, complex, f"{what} must be unitary (an array of finite numbers)")
    if u.shape in [(d, d) for d in sizes]:
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: not unitary
            if np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= UNITARITY_TOL:
                return u
    raise ValidationError(f"{what} must be unitary, {' or '.join(f'{d}x{d}' for d in sizes)}")


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two operators or two column vectors.

    The first argument becomes the leftmost (qubit-1) factor. Mixing a
    vector with a matrix is rejected.
    """
    a, b = (finite_array(f, complex, "tensor factors must be arrays of finite numbers")
            for f in (a, b))
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValidationError("tensor expects two vectors or two matrices")
    return np.kron(a, b)


def embed(u: np.ndarray, targets: Sequence[int], n: int) -> np.ndarray:
    """Expand an operator on `targets` (1-based, in order) to the full register."""
    k = len(targets)
    if u.shape != (2**k, 2**k):
        raise ValidationError("matrix size does not match target count")
    if not set(targets) <= set(range(1, n + 1)):
        raise ValidationError(f"targets {tuple(targets)} outside 1..{n}")
    # I (x) u with the other qubits first and the targets last, then the
    # tensor axes permuted back to qubit order.
    r = 2 ** (n - k)
    full = np.zeros((r, 2**k, r, 2**k), dtype=complex)
    full[np.arange(r), :, np.arange(r), :] += u
    order = [q for q in range(1, n + 1) if q not in targets] + list(targets)
    axes = np.argsort(order)
    full = full.reshape((2,) * (2 * n)).transpose([*axes, *(axes + n)])
    return full.reshape(2**n, 2**n)


@functools.lru_cache(maxsize=4 + 16 + 64)  # every string for n <= 3
def pauli_string_matrix(label: str) -> np.ndarray:
    """Matrix of a Pauli product string such as "XZ" or "IYI".

    Memoized and read-only: copy before writing. Callers pass checked labels (those of
    `all_pauli_strings`, or declared Pauli keys), so a bad letter is a KeyError.
    """
    m = np.array(functools.reduce(tensor, [PAULI[c] for c in label]))  # never freeze PAULI
    m.setflags(write=False)
    return m


def all_pauli_strings(n: int) -> list[str]:
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n)]


class Ket:
    """Normalized pure-state vector over n qubits."""

    __slots__ = ("amplitudes", "n")

    def __init__(self, amplitudes: Iterable[complex]):
        amps = finite_array(amplitudes, complex, "ket entries must be finite numbers").reshape(-1)
        self.n = _qubit_count(amps.size, "ket")
        with np.errstate(over="ignore"):  # a huge entry reads as norm^2 inf
            norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= HERMITICITY_TOL:  # nan fails too
            raise ValidationError(f"ket norm^2 = {norm}, not 1")
        amps.setflags(write=False)
        self.amplitudes = amps

    @classmethod
    def from_bits(cls, bits: str) -> "Ket":
        """The basis ket of a label of 1 to MAX_QUBITS letters of 0 and 1, qubit 1 first."""
        bits = BITS.check("bits", bits)
        amps = np.zeros(2 ** len(bits), dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(amps)


def _check_density(m: np.ndarray) -> np.ndarray:
    """m, read-only, if every (d, d) matrix of the stack m is a state; else ValidationError."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge or inf entries fail the checks below
        # trace first: a scaled state's rounding can fail the absolute Hermiticity tolerance
        tr = np.trace(m, axis1=-2, axis2=-1)
        bad = np.abs(tr - 1.0) > TRACE_TOL
        if np.any(bad):
            raise ValidationError(f"density matrix trace {complex(tr[bad].flat[0])}, not 1")
        herm = float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))
        if not herm <= HERMITICITY_TOL:  # nan fails too
            raise ValidationError(f"density matrix not Hermitian (deviation {herm:.2e})")
    lo = float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))))
    if lo < -EIGENVALUE_TOL:
        raise ValidationError(f"density matrix has negative eigenvalue {lo:.2e}")
    m.setflags(write=False)
    return m


_STATE = {"n": "integer", **COMPLEX}  # a state file


class DensityMatrix:
    """2^n x 2^n Hermitian, unit-trace, positive-semidefinite state matrix."""

    __slots__ = ("matrix", "n")

    def __init__(self, matrix: np.ndarray):
        m = finite_array(matrix, complex, "density matrix entries must be finite numbers")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("density matrix must be square")
        self.n = _qubit_count(m.shape[0], "density matrix")
        self.matrix = _check_density(m)

    @classmethod
    def _checked(cls, m: np.ndarray) -> "DensityMatrix":
        """m, a checked stack's row or a basis state, held as a state: no copy, no second check."""
        rho = cls.__new__(cls)
        rho.n, rho.matrix = _qubit_count(len(m), "density matrix"), m
        m.setflags(write=False)
        return rho

    @classmethod
    def basis(cls, n: int, state: Union[int, str]) -> "DensityMatrix":
        """|b><b| for a computational basis label of n letters ("01") or index 0 <= i < 2^n."""
        n = QUBIT_COUNT.check(n, n)
        if isinstance(state, str):  # a label of n letters is read as its index, any other as none
            state = int(state, 2) if len(state) == n and not state.strip("01") else None
        idx = Option(kind=int, ok=range(2**n).__contains__, rule=f"basis state must be an index "
                     f"0..{2**n - 1} or {n} letters of 0 and 1").check("", state)
        m = np.zeros((2**n, 2**n), dtype=complex)
        m[idx, idx] = 1.0
        return cls._checked(m)

    @classmethod
    def from_ket(cls, ket: Union[Ket, np.ndarray]) -> "DensityMatrix":
        amps = (ket if isinstance(ket, Ket) else Ket(ket)).amplitudes
        return cls(np.outer(amps, amps.conj()))

    def evolved(self, u: np.ndarray) -> "DensityMatrix":
        """U rho U^dag for a unitary u of the state's dimension, checked as a state."""
        u = unitary(u, [len(self.matrix)], "u")
        return DensityMatrix(u @ self.matrix @ u.conj().T)

    def probabilities(self) -> dict[str, float]:
        """Computational-basis populations, keyed by bit label."""
        diag = np.real(np.diag(self.matrix))
        return {format(i, f"0{self.n}b"): float(p) for i, p in enumerate(diag)}

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def expectation(self, op: np.ndarray) -> complex:
        """Tr(rho op); its real part is <op> for a Hermitian op."""
        return complex(np.trace(self.matrix @ op))

    def to_json_dict(self) -> dict:
        return {"n": self.n, **complex_json(self.matrix)}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "DensityMatrix":
        what = "density-matrix JSON"
        state = read(d, _STATE, what)
        n, m = state["n"], complex_matrix(state, what)
        if n < 1:
            raise ValidationError(f"density-matrix JSON: n = {n}, must be >= 1")
        if n > m.size or m.shape != (2**n, 2**n):  # so a huge n never reaches 2**n
            raise ValidationError(f"density-matrix JSON shape {m.shape} != 2^{n}")
        return cls(m)


def _as_matrix(state) -> tuple[np.ndarray, bool]:
    """A Ket / DensityMatrix / array, checked as one of them, as (matrix-or-vector, is_vector)."""
    if isinstance(state, Ket):
        return state.amplitudes, True
    if isinstance(state, DensityMatrix):
        return state.matrix, False
    arr = finite_array(state, complex, "state entries must be finite numbers")
    if arr.ndim == 1:  # checked as a Ket
        return Ket(arr).amplitudes, True
    return DensityMatrix(arr).matrix, False


def partial_trace(rho: DensityMatrix, keep: Union[int, Iterable[int]]) -> DensityMatrix:
    """Reduced state over the kept qubits (1-based indices, sorted order)."""
    keep_set = set(INTEGERS.check("keep", [keep] if isinstance(keep, (int, np.integer)) else keep))
    n = rho.n
    if any(not 1 <= q <= n for q in keep_set):
        raise ValidationError(f"keep indices {sorted(keep_set)} out of range 1..{n}")
    traced = [q for q in range(1, n + 1) if q not in keep_set]
    t = rho.matrix.reshape((2,) * (2 * n))
    # qubit q's axes are q-1 and n+q-1, less those of the lower qubits traced already
    for done, q in enumerate(traced):
        t = np.trace(t, axis1=q - 1 - done, axis2=n + q - 1 - 2 * done)
    d = 2 ** len(keep_set)
    return DensityMatrix(t.reshape(d, d))


def pauli_expand(rho: DensityMatrix) -> dict[str, float]:
    """Coefficients c_P = Tr(rho P) for every n-fold Pauli string.

    The all-identity coefficient equals Tr(rho) = 1. Coefficients are real
    for Hermitian input; the real part is returned.
    """
    return {label: rho.expectation(pauli_string_matrix(label)).real
            for label in all_pauli_strings(rho.n)}


def pauli_reconstruct(coefficients: Mapping[str, float]) -> DensityMatrix:
    """rho = 2^-n * sum_P c_P P. Missing strings are treated as zero.

    The identity coefficient must be 1 (unit trace); it defaults to 1 when
    the all-identity string is absent from the mapping.
    """
    if not isinstance(coefficients, Mapping):
        raise ValidationError("coefficients must be a mapping of Pauli strings to numbers")
    coefficients = dict(zip(coefficients, FINITE_NUMBERS.check("", coefficients.values())))
    n = len(next((k for k in coefficients if isinstance(k, str)), ""))
    if not all(isinstance(k, str) and 0 < len(k) == n <= MAX_QUBITS and not k.strip("IXYZ")
               for k in coefficients):
        raise ValidationError(f"Pauli strings must be of one length, 1 to {MAX_QUBITS} of IXYZ")
    return _pauli_state(coefficients, n)


def _pauli_state(coefficients: Mapping[str, float], n: int) -> DensityMatrix:
    """`pauli_reconstruct` of finite coefficients keyed by n-letter strings over IXYZ."""
    ident = "I" * n
    c_ident = coefficients.get(ident, 1.0)
    if abs(c_ident - 1.0) > TRACE_TOL:
        raise ValidationError(f"identity coefficient {c_ident} implies trace != 1")
    m = np.eye(2**n, dtype=complex)
    for label, c in coefficients.items():
        if label != ident and c != 0.0:
            m += c * pauli_string_matrix(label)
    return DensityMatrix(m / 2**n)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    # numerical noise can push eigenvalues to ~ -1e-15; clamp before sqrt
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def state_fidelity(a, b) -> float:
    """Fidelity between two states, each a Ket, DensityMatrix, or array.

    Pure/pure uses |<a|b>|^2, pure/mixed uses <a|rho|a>, mixed/mixed uses
    (Tr sqrt(sqrt(a) b sqrt(a)))^2. Symmetric in its arguments. A density
    matrix that passes the purity criterion is routed through the pure
    formulas, which the general one reduces to but with less rounding.
    """
    ma, va = _as_matrix(a)
    mb, vb = _as_matrix(b)
    if len(ma) != len(mb):
        raise ValidationError(f"state dimensions differ: {len(ma)} vs {len(mb)}")
    if not va and abs(np.real(np.trace(ma @ ma)) - 1.0) <= PURITY_TOL:
        ma, va = np.linalg.eigh(ma)[1][:, -1], True  # the eigenvector of the top eigenvalue
    if not vb and abs(np.real(np.trace(mb @ mb)) - 1.0) <= PURITY_TOL:
        mb, vb = np.linalg.eigh(mb)[1][:, -1], True
    if va and vb:
        f = abs(np.vdot(ma, mb)) ** 2
    elif va:
        f = np.real(np.vdot(ma, mb @ ma))
    elif vb:
        f = np.real(np.vdot(mb, ma @ mb))
    else:
        # Tr sqrt(sqrt(a) b sqrt(a)) equals the nuclear norm of sqrt(a) sqrt(b),
        # which singular values compute accurately even for rank-deficient states
        f = float(np.sum(np.linalg.svd(_psd_sqrt(ma) @ _psd_sqrt(mb), compute_uv=False))) ** 2
    return float(min(max(f, 0.0), 1.0))
