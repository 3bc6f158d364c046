"""Machine model: nuclei, offsets, J network, relaxation times, Hamiltonians.

All config frequencies are in Hz; every Hamiltonian matrix is in rad/s
(the 2*pi happens here, once). Sign convention: H0 = +2*pi*nu*I_z plus
+2*pi*J couplings, and polarization > 0 means excess population in |0>.

This module is the one place that builds a machine's operators, all read-only.
The RF control generators, the per-channel transverse sums and the per-spin
sigma_z are built once per spin layout (the nucleus labels, in order), the J
products once per spin count, and H0 once per config, on first use, cached on
the frozen config; its eigendecomposition only when an isotropic machine's
spectral lines are asked for. `_line_table` lists those lines, the transitions
of H0 that detection reads (see `measurement`), for the readout and the scans.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ValidationError
from .quantum import (FINITE_NUMBERS, MAX_QUBITS, SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, Option,
                      embed, finite_array, read, write)

COUPLING_MODELS = ("weak", "isotropic")
PRESETS = ("gemini", "triangulum")  # the files under presets/


@dataclass(frozen=True)
class NucleusSpec:
    """One spin-1/2 nucleus: label, rotating-frame offset, T1/T2, polarization."""

    label: str
    offset_hz: float
    t1_s: float
    t2_s: float
    polarization: float

    def __post_init__(self):
        object.__setattr__(self, "label", _LABEL.check("label", self.label))
        fields = ("offset_hz", "t1_s", "t2_s", "polarization")
        values = _NUCLEUS.check(self.label, [getattr(self, key) for key in fields])
        for key, value in zip(fields, values):
            object.__setattr__(self, key, value)
        if self.t1_s <= 0 or self.t2_s <= 0:
            raise ValidationError(f"nucleus {self.label!r}: t1_s and t2_s must be > 0")
        if self.t2_s > 2 * self.t1_s:
            # beyond it the relaxation channel is not completely positive
            raise ValidationError(f"nucleus {self.label!r}: t2_s must be <= 2 * t1_s "
                                  f"(t1_s {self.t1_s:g}, t2_s {self.t2_s:g})")
        if abs(self.polarization) > 1:
            raise ValidationError(f"nucleus {self.label!r}: |polarization| must be <= 1")


# A nucleus's label, its channel's name, and its offset_hz, t1_s, t2_s and polarization; a
# machine's name, part of the key its caches are looked up by
_LABEL = Option(kind=str, ok=bool, rule="nucleus label must be a non-empty string")
_NAME = Option(kind=str, rule="machine name must be a string")
_NUCLEUS = replace(FINITE_NUMBERS, rule="nucleus {name!r}: offset_hz, t1_s, t2_s and polarization "
                   "must be finite")


@dataclass(frozen=True, eq=False)
class SpinSystemConfig:
    """Spin system: nuclei plus a symmetric J-coupling matrix (Hz); equal and hashed by value."""

    name: str
    nuclei: tuple[NucleusSpec, ...]
    j_hz: np.ndarray
    coupling_model: str = "weak"

    def __post_init__(self):
        object.__setattr__(self, "name", _NAME.check("name", self.name))
        n = len(self.nuclei)
        if not 1 <= n <= MAX_QUBITS:
            raise ValidationError(f"nuclei count {n} outside 1..{MAX_QUBITS}")
        if self.coupling_model not in COUPLING_MODELS:
            raise ValidationError(f"coupling_model must be one of {COUPLING_MODELS}")
        j = finite_array(self.j_hz, float, "j_hz entries must be finite numbers")
        if j.shape != (n, n):
            raise ValidationError(f"j_hz shape {j.shape} != ({n}, {n})")
        rows = j.tolist()  # Python floats: no overflow warning below
        if any(abs(rows[a][b] - rows[b][a]) > 1e-12 for a in range(n) for b in range(a)):
            raise ValidationError("j_hz must be symmetric")
        if any(rows[k][k] != 0.0 for k in range(n)):
            raise ValidationError("j_hz diagonal must be exactly 0")
        hz = [nuc.offset_hz for nuc in self.nuclei] + [x for row in rows for x in row]
        if not all(math.isfinite(2 * math.pi * x) for x in hz):
            raise ValidationError("offset_hz and j_hz must stay finite in rad/s (2*pi*Hz)")
        total = sum(abs(nuc.polarization) for nuc in self.nuclei)
        if total > 1.0 + 1e-12:
            raise ValidationError(
                f"polarizations sum to {total:.12g} > 1; thermal state would not be positive"
            )
        j.setflags(write=False)
        object.__setattr__(self, "j_hz", j)

    def _key(self) -> tuple:
        # J as float rows, not bytes, so that -0.0 equals 0.0
        return self.name, self.nuclei, tuple(map(tuple, self.j_hz.tolist())), self.coupling_model

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, SpinSystemConfig) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def n(self) -> int:
        return len(self.nuclei)

    @property
    def dim(self) -> int:
        return 2**self.n

    @cached_property
    def channels(self) -> tuple[str, ...]:
        """Distinct nucleus labels, in first-appearance order. One RF channel each."""
        return tuple(dict.fromkeys(nuc.label for nuc in self.nuclei))

    def channel_index(self, channel: str) -> int:
        """Position of a channel in `channels`."""
        channels = self.channels
        if channel not in channels:
            raise ValidationError(f"no nucleus with label {channel!r}")
        return channels.index(channel)

    def channel_members(self, channel: str) -> tuple[int, ...]:
        """1-based qubit indices driven by (and observed on) a channel."""
        self.channel_index(channel)
        return tuple(k for k, nuc in enumerate(self.nuclei, start=1) if nuc.label == channel)

    @cached_property
    def _operators(self) -> "_Operators":
        return _build_operators(self)

    @cached_property
    def _h0_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors (one per column) of H0; read-only."""
        return _read_only(*np.linalg.eigh(self._operators.h0))

    def to_json_dict(self) -> dict:
        return write(self, _MACHINE)


# A machine config file; each nucleus's keys are its NucleusSpec fields, and the name
# defaults to the file's path
_MACHINE = {"name": ("string", None), "coupling_model": ("string", "weak"),
            "nuclei": ["nucleus", {"label": "string", "offset_hz": "number", "t1_s": "number",
                                   "t2_s": "number", "polarization": "number"}],
            "j_hz": "matrix"}


def _config_from_dict(d, source: str) -> SpinSystemConfig:
    m = read(d, _MACHINE, "machine config")
    return SpinSystemConfig(source if m["name"] is None else m["name"],
                            tuple(NucleusSpec(**nucleus) for nucleus in m["nuclei"]),
                            m["j_hz"], m["coupling_model"])


def _read_json(path: Union[str, Path], what: str, parse):
    """parse(the JSON document in an input file). A file not read or parsed, or a document
    that parse rejects, is one ValidationError that names the file."""
    try:
        path = Path(path)
        text = path.read_text()
    except (OSError, UnicodeDecodeError, TypeError) as exc:  # TypeError: path is no path
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: JSON nested too deeply") from exc
    try:
        return parse(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_machine_config(path: Union[str, Path]) -> SpinSystemConfig:
    """Load and validate a machine-config JSON file, declared by `_MACHINE` (see
    `quantum.read`: "_" notes, as in the shipped presets, are allowed, other keys not)."""
    return _read_json(path, "machine config", lambda d: _config_from_dict(d, str(Path(path))))


def preset(name: str) -> SpinSystemConfig:
    """A packaged machine preset: "gemini" (1H/31P) or "triangulum" (3x 19F)."""
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}")
    return load_machine_config(Path(__file__).parent / "presets" / f"{name}.json")


class _Operators(NamedTuple):
    """A machine's operators, rad/s for generators; all but h0 are its layout's, shared."""

    h0: np.ndarray  # (d, d) internal Hamiltonian
    controls: np.ndarray  # (2 * channels, d, d): ch0_x, ch0_y, ch1_x, ...
    sx: np.ndarray  # (channels, d, d): sigma_x summed over a channel's spins
    sy: np.ndarray  # (channels, d, d): sigma_y summed over a channel's spins
    sz: np.ndarray  # (n, d, d): sigma_z of each spin


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=MAX_QUBITS)
def _pauli_embeddings(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, z): (n, 2^n, 2^n) stacks of each spin's sigma_x, sigma_y and
    sigma_z. Memoized per n and read-only."""
    return _read_only(*(np.array([embed(p, (k,), n) for k in range(1, n + 1)])
                        for p in (SIGMA_X, SIGMA_Y, SIGMA_Z)))


@lru_cache(maxsize=MAX_QUBITS)
def _couplings(n: int) -> np.ndarray:
    """(pairs, 3, 2^n, 2^n): I_p^a I_p^b, p = x, y, z, of each pair a < b; memoized per n."""
    x, y, z = _pauli_embeddings(n)
    products = [[(p[a] / 2) @ (p[b] / 2) for p in (x, y, z)]
                for a in range(n) for b in range(a + 1, n)]
    return _read_only(np.array(products).reshape(-1, 3, 2**n, 2**n))[0]


@lru_cache(maxsize=64)
def _channel_operators(labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(controls, sx, sy) of a spin layout, its nucleus labels in order; memoized."""
    x, y, _ = _pauli_embeddings(len(labels))
    members = [[k for k, label in enumerate(labels) if label == ch] for ch in dict.fromkeys(labels)]
    sx, sy = (np.array([p[m].sum(axis=0) for m in members]) for p in (x, y))
    # 2*pi * (I_x, I_y) per channel, interleaved; I_a = sigma_a / 2
    controls = np.pi * np.stack([sx, sy], axis=1).reshape(-1, *x.shape[1:])
    return _read_only(controls, sx, sy)


def _build_operators(config: SpinSystemConfig) -> _Operators:
    z = _pauli_embeddings(config.n)[2]
    h0 = np.zeros((config.dim, config.dim), dtype=complex)
    terms = slice(None) if config.coupling_model == "isotropic" else slice(2, None)  # x, y, z or z
    j = [x for a, row in enumerate(config.j_hz.tolist()) for x in row[a + 1:]]  # pairs a < b
    with np.errstate(over="ignore", invalid="ignore"):  # finite Hz can overflow in rad/s
        for k, nuc in enumerate(config.nuclei):
            if nuc.offset_hz != 0.0:
                h0 += 2 * np.pi * nuc.offset_hz * (z[k] / 2)
        for j_ab, products in zip(j, _couplings(config.n)):
            if j_ab != 0.0:
                for product in products[terms]:
                    h0 += 2 * np.pi * j_ab * product
    if not np.isfinite(h0).all():
        raise ValidationError(f"{config.name}: internal Hamiltonian (rad/s) is not finite")
    h0.setflags(write=False)
    return _Operators(h0, *_channel_operators(tuple(nuc.label for nuc in config.nuclei)), z)


def internal_hamiltonian(config: SpinSystemConfig) -> np.ndarray:
    """H0 in rad/s (read-only): Zeeman offsets plus J couplings.

    Weak model: sum_k 2*pi*nu_k I_z^k + sum_{j<k} 2*pi*J_jk I_z^j I_z^k,
    so the computational basis is the eigenbasis. The isotropic model
    adds the x and y coupling terms.
    """
    return config._operators.h0


def control_operators(config: SpinSystemConfig) -> tuple[np.ndarray, tuple[str, ...]]:
    """Per-channel x/y drive generators, rad/s per Hz of amplitude (read-only).

    Returns (ops, channels) with ops shaped (2*len(channels), d, d), ordered
    (ch0_x, ch0_y, ch1_x, ch1_y, ...). Homonuclear spins share one channel,
    so a channel's generator sums I_x (I_y) over all its members.
    """
    return config._operators.controls, config.channels


def rf_hamiltonian(config: SpinSystemConfig, amplitudes_hz: Sequence,
                   phases_rad: Sequence) -> np.ndarray:
    """Rotating-frame RF Hamiltonian, rad/s, of one (amplitude, phase) pair per channel,
    or one (d, d) matrix per row of them.

    H_rf = sum_ch 2*pi*u_ch * (cos(phi) * sum I_x + sin(phi) * sum I_y)
    with the sums running over the channel's member spins: the `control_operators`
    generators weighted by (u_0 cos(phi_0), u_0 sin(phi_0), u_1 cos(phi_1), ...).
    """
    channels = config.channels
    error = f"need one amplitude and phase per channel, all finite ({len(channels)}: {channels})"
    u, phi = finite_array(amplitudes_hz, float, error), finite_array(phases_rad, float, error)
    if u.shape[-1:] != (len(channels),) or phi.shape != u.shape:
        raise ValidationError(error)
    drive = np.empty((*u.shape[:-1], 2 * len(channels)))
    drive[..., 0::2] = u * np.cos(phi)
    drive[..., 1::2] = u * np.sin(phi)
    return _drive_hamiltonian(config._operators.controls, drive)


def _drive_hamiltonian(controls: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """sum_k drive[..., k] controls[k], a (d, d) matrix per drive row: np.tensordot's dot,
    unwrapped. The one contraction of the control generators, GRAPE's included."""
    flat = np.dot(drive.reshape(-1, len(controls)), controls.reshape(len(controls), -1))
    return flat.reshape(*drive.shape[:-1], *controls.shape[1:])


_MIN_WEIGHT = 1e-12  # |<b|D|a>| of a line; eigh leaves ~1e-15 on transitions D does not drive


class _Lines(NamedTuple):
    """A machine's lines: per line its channel, frequency (Hz), detection weight and
    the element rho_B[row, col] it reads, in the readout basis B (None: computational)."""

    basis: Optional[np.ndarray]
    channels: tuple[str, ...]
    freqs: tuple[float, ...]
    weights: np.ndarray
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def readings(self, matrices: np.ndarray) -> np.ndarray:
        """2^(n-1) * weight * rho_B[row, col] of each line, for a (..., d, d) stack."""
        if self.basis is not None:
            matrices = self.basis.conj().T @ matrices @ self.basis
        return matrices.shape[-1] // 2 * self.weights * matrices[..., self.rows, self.cols]


@lru_cache(maxsize=16)
def _line_table(config: SpinSystemConfig) -> _Lines:
    """Every line of a machine, cached by value. Weak machines list them qubit-major, with
    the partner bits m (ascending qubit order, as an integer) minor; isotropic ones by channel."""
    n, lines, basis = config.n, [], None
    if config.coupling_model == "weak":
        for k, nuc in enumerate(config.nuclei, start=1):
            partners = [q for q in range(1, n + 1) if q != k]
            for bits in itertools.product((0, 1), repeat=n - 1):
                f, col = nuc.offset_hz, 0
                for q, b in zip(partners, bits):
                    f += (1 - 2 * b) * config.j_hz[k - 1, q - 1] / 2.0
                    col |= b << (n - q)
                lines.append((nuc.label, f, 2.0, col | 1 << (n - k), col))
    else:
        (w, basis), ops = config._h0_eigh, config._operators
        for c, channel in enumerate(config.channels):
            detect = basis.conj().T @ (ops.sx[c] + 1j * ops.sy[c]) @ basis  # [b, a] = <b|D|a>
            for a, b in zip(*np.nonzero(np.abs(detect.T) > _MIN_WEIGHT)):
                lines.append((channel, (w[b] - w[a]) / (2 * np.pi), detect[b, a], a, b))
    channels, freqs, weights, rows, cols = zip(*lines)
    return _Lines(basis, channels, freqs, _read_only(np.array(weights))[0], rows, cols)


def thermal_state(config: SpinSystemConfig) -> DensityMatrix:
    """High-temperature equilibrium state 2^-n (I + sum_k eps_k sigma_z^k), positive because
    a machine's sum_k |eps_k| <= 1."""
    m = np.eye(config.dim, dtype=complex)
    for nuc, sz in zip(config.nuclei, config._operators.sz):
        m += nuc.polarization * sz
    m /= config.dim
    return DensityMatrix(m)
