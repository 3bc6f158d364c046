"""NMR observation: FID synthesis, spectra, peak readout, state tomography.

Detection is quadrature per channel. With this package's +Zeeman sign
convention the complex signal that puts a spin with offset nu at +nu Hz in
the spectrum is Tr(rho(t) D), D = sum_k (sigma_x^k + i sigma_y^k) over the
channel's spins: the conjugate of the lowering-operator form written for the
-Zeeman convention, which only mirrors the frequency axis. Each line is one
single-quantum coherence of rho in a readout basis B (Vandersypen & Chuang,
RMP 76, 1037 (2004)): the transition a -> b between levels of H0, at
(w_b - w_a) / 2 pi Hz, of weight <b|D|a>, reading rho_B[a, b] of
rho_B = B^dag rho B. `_line_table` lists them; FID synthesis, peak readout,
tomography and the scans all read it. On a weak machine B is the computational basis
(`eigh` may mix degenerate levels, as 00 and 11 of gemini on resonance): the
line of qubit k with partners in state m sits at nu_k + sum_j (1 - 2 m_j) J_kj / 2
and has weight 2. On an isotropic machine B is H0's eigenbasis.

Tomography inverts one linear map, from the 4^n - 1 Pauli coefficients to the lines
of all 3^n readout settings, by least squares, for a (B, d, d) stack of states at once.
Settings' unitaries and the map's inverse are cached by value: one entry per qubit count
on weak machines, per readout basis on isotropic ones, per (machine, amplitude) compiled.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .control import DEFAULT_PULSE_AMP_HZ, Circuit, Gate, circuit_unitary, compile_circuit
from .dynamics import PULSE_AMPLITUDE, program_unitary
from .errors import UnresolvedPeaksError, ValidationError
from .quantum import (POSITIVE, DensityMatrix, _pauli_state, all_pauli_strings, finite_array,
                      pauli_string_matrix)
from .spinsys import SpinSystemConfig, _read_only

MAX_FID_SAMPLES = 2**16  # the FID is a few arrays of this many complex samples
_MIN_WEIGHT = 1e-12  # |<b|D|a>| of a line; eigh leaves ~1e-15 on transitions D does not drive


@dataclass(frozen=True)
class FIDSignal:
    """Complex free-induction-decay samples for one receiver channel."""

    channel: str
    samples: np.ndarray
    dt_s: float

    def __post_init__(self):
        s = finite_array(self.samples, complex, "FID samples must be finite numbers")
        if s.ndim != 1 or s.size < 2:
            raise ValidationError("FID needs at least 2 samples")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "dt_s", POSITIVE.check("FID sample spacing", self.dt_s))

    @property
    def times_s(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.dt_s


@dataclass(frozen=True)
class Spectrum:
    """Unitary DFT of an FID on an fftshifted frequency grid (Hz)."""

    channel: str
    frequencies_hz: np.ndarray
    amplitudes: np.ndarray


@dataclass(frozen=True)
class Peak:
    """One spectral line: frequency plus complex amplitude
    (real part = x phase, imaginary part = y phase)."""

    frequency_hz: float
    amplitude: complex

    def to_json_dict(self) -> dict:
        return {"freq_hz": self.frequency_hz, "re": self.amplitude.real, "im": self.amplitude.imag}


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


@functools.lru_cache(maxsize=16)
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


def _channel_t2(config: SpinSystemConfig, channel: str) -> float:
    return min(config.nuclei[k - 1].t2_s for k in config.channel_members(channel))


def synthesize_fid(
    rho: DensityMatrix,
    config: SpinSystemConfig,
    channel: str,
    duration_s: float,
    dt_s: float,
) -> FIDSignal:
    """Free-induction decay of `rho` observed on one channel.

    S(t) = Tr(U(t) rho U(t)^dag D_channel) * exp(-t / T2_channel) with U
    generated by the internal Hamiltonian and D_channel = Sx_ch + i Sy_ch: the
    sum over the channel's lines of weight * rho_B[row, col] * exp(2 pi i f t).
    At most `MAX_FID_SAMPLES` samples.
    """
    if rho.n != config.n:
        raise ValidationError(f"state has {rho.n} qubits, machine has {config.n}")
    dt_s = POSITIVE.check("FID sample spacing", dt_s)
    ratio = POSITIVE.check("FID duration", duration_s) / dt_s  # inf past the float range
    if not 1.5 <= ratio < MAX_FID_SAMPLES + 0.5:
        raise ValidationError(f"duration/dt must give 2 to {MAX_FID_SAMPLES} samples")
    t2, table = _channel_t2(config, channel), _line_table(config)
    t = np.arange(round(ratio)) * dt_s
    amplitudes = table.readings(rho.matrix) / 2 ** (config.n - 1)
    signal = sum(a * np.exp(2j * np.pi * f * t)
                 for ch, f, a in zip(table.channels, table.freqs, amplitudes) if ch == channel)
    return FIDSignal(channel=channel, samples=signal * np.exp(-t / t2), dt_s=dt_s)


def spectrum_of(fid: FIDSignal) -> Spectrum:
    """Unitary-normalized DFT, so FID energy equals spectrum energy."""
    n = fid.samples.size
    amps = np.fft.fftshift(np.fft.fft(fid.samples)) / np.sqrt(n)
    freqs = np.fft.fftshift(np.fft.fftfreq(n, fid.dt_s))
    return Spectrum(channel=fid.channel, frequencies_hz=freqs, amplitudes=amps)


@functools.lru_cache(maxsize=16)
def _readout_lines(n: int, config: SpinSystemConfig) -> _Lines:
    """`_line_table`, after the peak-readout checks; cached by value, an error raised each call."""
    if n != config.n:
        raise ValidationError(f"state has {n} qubits, machine has {config.n}")
    if config.n > 3:
        raise ValidationError("peak readout is defined for n <= 3")
    table = _line_table(config)
    for channel in config.channels:
        lw = 1.0 / (np.pi * _channel_t2(config, channel))
        freqs = sorted(f for ch, f in zip(table.channels, table.freqs) if ch == channel)
        for a, b in zip(freqs, freqs[1:]):
            if b - a < 3.0 * lw:
                raise UnresolvedPeaksError(f"lines at {a:.6g} and {b:.6g} Hz closer than "
                                           f"3 linewidths ({3 * lw:.3g} Hz)")
    return table


def _peak_table(readings: np.ndarray, table: _Lines) -> dict[str, list[Peak]]:
    lines = [(c, Peak(f, complex(r))) for c, f, r in zip(table.channels, table.freqs, readings)]
    return {ch: [p for c, p in lines if c == ch] for ch in dict.fromkeys(table.channels)}


def readout_peak_table(rho: DensityMatrix, config: SpinSystemConfig) -> dict[str, list[Peak]]:
    """Per-channel spectral lines with amplitudes in coefficient units.

    Each line carries 2^(n-1) * weight * rho_B[row, col]: on a weak machine
    2^n rho[1_k m, 0_k m], so a deviation sigma_x^k alone gives every line of
    qubit k amplitude 1, and sigma_x^k sigma_z^j moves weight between the
    partner-|0> and partner-|1> lines. The spectrum of the FID, its T2 decay
    divided out, shows them times sqrt(samples) / 2^(n-1).
    """
    table = _readout_lines(rho.n, config)
    return _peak_table(table.readings(rho.matrix), table)


_SETTINGS = ("I", "X90", "Y90")


def _setting_circuit(setting: tuple[str, ...]) -> Circuit:
    gates = tuple(Gate(s, (q,)) for q, s in enumerate(setting, start=1) if s != "I")
    return Circuit(len(setting), gates)


@functools.lru_cache(maxsize=8)  # room for the weak entries of n = 1..3 and five more
def _readout(n: int, rows: tuple, cols: tuple, weights: tuple, basis: Optional[bytes],
             machine: Optional[SpinSystemConfig] = None, pulse_amp_hz: float = 0.0):
    """(unitaries, inverse), read-only: the 3^n readout settings' unitaries in sweep order,
    ideal or compiled for `machine` at `pulse_amp_hz`, and the `_inverse` of their map, keyed
    by value on all they depend on (the basis as bytes; None: computational). A weak machine's
    ideal entry depends on n alone. A triangulum entry (n = 3, 15 lines) is 0.4 MB."""
    circuits = [_setting_circuit(s) for s in itertools.product(_SETTINGS, repeat=n)]
    us = _read_only(np.array([circuit_unitary(c) if machine is None else program_unitary(
        compile_circuit(c, machine, pulse_amp_hz)) for c in circuits]))[0]
    lines = _Lines(None if basis is None else np.frombuffer(basis, complex).reshape(2**n, 2**n),
                   (), (), np.array(weights), rows, cols)
    return us, _inverse(_readout_map(us, lines))


def _readout_map(us: np.ndarray, lines: _Lines) -> np.ndarray:
    """The map A, shape (S, L, 4^n - 1), from the coefficients c_P of
    rho = (I + sum_P c_P P) / d to the lines after each U of the stack `us`: line
    (r, c) of weight w reads (w / 2) sum_P c_P (U_B P U_B^dag)[r, c], U_B = B^dag U."""
    if lines.basis is not None:
        us = lines.basis.conj().T @ us
    n = us.shape[-1].bit_length() - 1
    paulis = np.array([pauli_string_matrix(s) for s in all_pauli_strings(n)[1:]])
    a = np.einsum("sla,pab,slb->slp", us[:, lines.rows], paulis, us[:, lines.cols].conj())
    return a * (lines.weights / 2)[:, None]


def _inverse(a: np.ndarray) -> np.ndarray:
    """Least-squares inverse M of a map A of real coefficients to complex
    readings r: c = Re(M r) solves Re(A^H A) c = Re(A^H r), and the
    eigenvalues that invert Re(A^H A) show whether A has full rank."""
    # complex, as every other eigenproblem here: no second LAPACK solver is paged in
    lam, v = np.linalg.eigh(np.einsum("slp,slq->pq", a.conj(), a).real + 0j)
    if lam[0] <= 1e-9 * lam[-1]:
        raise ValidationError("tomography readout does not determine every Pauli coefficient")
    ginv = np.einsum("pk,qk->pq", v / lam, v.conj())
    inverse = np.einsum("pq,slq->psl", ginv, a.conj()).reshape(len(ginv), -1)
    inverse.setflags(write=False)
    return inverse


def _reconstruct(states, config, compiled_readout=False, pulse_amp_hz=DEFAULT_PULSE_AMP_HZ):
    """`_readout_lines`, then `tomography` of each state of a (B, d, d) stack: the states
    reconstructed, the lines, the settings and the readings, (B, settings, lines)."""
    lines = _readout_lines(states.shape[-1].bit_length() - 1, config)
    settings = list(itertools.product(_SETTINGS, repeat=config.n))
    us, inverse = _readout(config.n, lines.rows, lines.cols, tuple(lines.weights.tolist()),
                           None if lines.basis is None else lines.basis.tobytes(),
                           *((config, PULSE_AMPLITUDE.check("pulse_amp_hz", pulse_amp_hz))
                             if compiled_readout else ()))
    readings = lines.readings(us @ states[:, np.newaxis] @ us.conj().swapaxes(1, 2))
    # one matrix-vector product per row, as for B = 1, so a row's bits do not depend on B
    coeffs = (inverse @ readings.reshape(len(states), -1, 1))[..., 0].real.tolist()
    recons = [_pauli_state(dict(zip(all_pauli_strings(config.n)[1:], c)), config.n) for c in coeffs]
    return recons, lines, settings, readings


def tomography_sweep(
    rho: DensityMatrix,
    config: SpinSystemConfig,
    compiled_readout: bool = False,
    pulse_amp_hz: float = DEFAULT_PULSE_AMP_HZ,
) -> tuple[DensityMatrix, dict[str, dict[str, list[Peak]]]]:
    """Full state reconstruction from the 3^n readout-pulse settings, and
    the per-setting peak tables it inverts.

    Each setting applies {identity, X90, Y90} per qubit, ideal or compiled
    to pulses. The readings of all settings are inverted at once by least
    squares, through the map of the unitaries applied; with ideal readouts
    that averages the duplicate determinations of each coefficient. Table
    keys are setting labels like "I,Y90"; values map channel label to the
    peak list of the rotated state.
    """
    (recon,), lines, settings, (readings,) = _reconstruct(rho.matrix[np.newaxis], config,
                                                          compiled_readout, pulse_amp_hz)
    return recon, {",".join(s): _peak_table(r, lines) for s, r in zip(settings, readings)}


def tomography(
    rho: DensityMatrix,
    config: SpinSystemConfig,
    compiled_readout: bool = False,
    pulse_amp_hz: float = DEFAULT_PULSE_AMP_HZ,
) -> DensityMatrix:
    """Full state reconstruction from the 3^n readout-pulse settings, as `tomography_sweep`."""
    return _reconstruct(rho.matrix[np.newaxis], config, compiled_readout, pulse_amp_hz)[0][0]
