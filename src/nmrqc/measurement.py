"""NMR observation: FID synthesis, spectra, peak readout, state tomography.

Detection is quadrature per channel. With this package's +Zeeman sign
convention the complex signal that puts a spin with offset nu at +nu Hz in
the spectrum is Tr(rho(t) sum_k (sigma_x^k + i sigma_y^k)), the conjugate
of the lowering-operator form written for the -Zeeman convention; the two
differ only by a mirrored frequency axis. Under it, the line of qubit k
with coupled partners in state m sits at nu_k + sum_j (1-2 m_j) J_kj / 2
and carries amplitude sum_p w_p(m) (c_xp + i c_yp), where p runs over the
partner z-patterns and w_p(m) is the product of the partner signs: that is
2^n rho[1_k m, 0_k m], which peak readout reads straight from the state and
the spectrum of the FID, with the T2 decay divided out, shows at the line's
frequency.

Tomography inverts one linear map, from the 4^n - 1 Pauli coefficients to
the lines of all 3^n readout settings, by least squares: the ideal map once
per qubit count, the compiled readout's from the pulses it applied. FID
synthesis reads the machine's cached, read-only operators (see `spinsys`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .control import DEFAULT_PULSE_AMP_HZ, Circuit, Gate, circuit_unitary, compile_circuit
from .dynamics import program_unitary
from .errors import UnresolvedPeaksError, ValidationError
from .quantum import DensityMatrix, all_pauli_strings, pauli_reconstruct, pauli_string_matrix
from .spinsys import SpinSystemConfig

@dataclass(frozen=True)
class FIDSignal:
    """Complex free-induction-decay samples for one receiver channel."""

    channel: str
    samples: np.ndarray
    dt_s: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or s.size < 2:
            raise ValidationError("FID needs at least 2 samples")
        if self.dt_s <= 0:
            raise ValidationError("FID sample spacing must be > 0")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

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
    generated by the internal Hamiltonian and D_channel = Sx_ch + i Sy_ch.
    Only density-matrix terms with exactly one transverse factor contribute.
    """
    if rho.n != config.n:
        raise ValidationError(f"state has {rho.n} qubits, machine has {config.n}")
    if not (np.isfinite(duration_s) and 0 < dt_s < np.inf):
        raise ValidationError("FID duration and dt must be finite, and dt > 0")
    n_samples = int(round(duration_s / dt_s))
    if n_samples < 2:
        raise ValidationError("duration/dt must give at least 2 samples")
    c = config.channel_index(channel)
    ops = config._operators
    w, v = config._h0_eigh
    detect = ops.sx[c] + 1j * ops.sy[c]
    rho_e = v.conj().T @ rho.matrix @ v
    det_e = v.conj().T @ detect @ v
    weights = (rho_e * det_e.T).ravel()
    delta = (w[:, None] - w[None, :]).ravel()  # rad/s
    keep = np.abs(weights) > 0
    weights = weights[keep]
    delta = delta[keep]
    t = np.arange(n_samples) * dt_s
    signal = (
        np.zeros(n_samples, dtype=complex)
        if weights.size == 0
        else weights @ np.exp(-1j * np.outer(delta, t))
    )
    signal *= np.exp(-t / _channel_t2(config, channel))
    return FIDSignal(channel=channel, samples=signal, dt_s=dt_s)


def spectrum_of(fid: FIDSignal) -> Spectrum:
    """Unitary-normalized DFT, so FID energy equals spectrum energy."""
    n = fid.samples.size
    amps = np.fft.fftshift(np.fft.fft(fid.samples)) / np.sqrt(n)
    freqs = np.fft.fftshift(np.fft.fftfreq(n, fid.dt_s))
    return Spectrum(channel=fid.channel, frequencies_hz=freqs, amplitudes=amps)


@functools.lru_cache(maxsize=3)
def _line_elements(n: int) -> np.ndarray:
    """Rows 1_k m and columns 0_k m of the coherences the lines read, qubit k
    major and partner bits m (ascending qubit order, as an integer) minor."""
    k = np.repeat(np.arange(1, n + 1), 2 ** (n - 1))
    m = np.tile(np.arange(2 ** (n - 1)), n)
    below = (1 << (n - k)) - 1  # bits of the partners after k
    cols = (m & ~below) << 1 | m & below
    elements = np.array([cols | 1 << (n - k), cols])
    elements.setflags(write=False)
    return elements


def _weak_lines(config: SpinSystemConfig, channel: str) -> list[tuple[float, int]]:
    """(frequency in Hz, index into `_line_elements`) of each line on a channel."""
    n, lines = config.n, []
    for k in config.channel_members(channel):
        partners = [q for q in range(1, n + 1) if q != k]
        for m, bits in enumerate(itertools.product((0, 1), repeat=n - 1)):
            f = config.nuclei[k - 1].offset_hz
            for q, b in zip(partners, bits):
                f += (1 - 2 * b) * config.j_hz[k - 1, q - 1] / 2.0
            lines.append((f, (k - 1) * 2 ** (n - 1) + m))
    return lines


def _check_resolved(freqs: list[float], t2: float):
    lw = 1.0 / (np.pi * t2)
    freqs = sorted(freqs)
    for a, b in zip(freqs, freqs[1:]):
        if b - a < 3.0 * lw:
            raise UnresolvedPeaksError(
                f"lines at {a:.6g} and {b:.6g} Hz closer than 3 linewidths ({3 * lw:.3g} Hz)"
            )


def _readout_lines(rho: DensityMatrix, config: SpinSystemConfig) -> dict[str, list]:
    """`_weak_lines` of each channel, after the peak-readout checks."""
    if rho.n != config.n:
        raise ValidationError(f"state has {rho.n} qubits, machine has {config.n}")
    if config.coupling_model != "weak":
        raise ValidationError("peak readout is defined for weak-coupling systems")
    if config.n > 3:
        raise ValidationError("peak readout is defined for n <= 3")
    lines = {channel: _weak_lines(config, channel) for channel in config.channels}
    for channel, ch_lines in lines.items():
        _check_resolved([f for f, _ in ch_lines], _channel_t2(config, channel))
    return lines


def _readings(matrices: np.ndarray) -> np.ndarray:
    """Line amplitudes 2^n rho[1_k m, 0_k m] of a (..., d, d) stack, in
    `_line_elements` order."""
    d = matrices.shape[-1]
    rows, cols = _line_elements(d.bit_length() - 1)
    return d * matrices[..., rows, cols]


def _peak_table(readings: np.ndarray, lines: dict[str, list]) -> dict[str, list[Peak]]:
    return {ch: [Peak(f, complex(readings[i])) for f, i in ls] for ch, ls in lines.items()}


def readout_peak_table(rho: DensityMatrix, config: SpinSystemConfig) -> dict[str, list[Peak]]:
    """Per-channel spectral lines with amplitudes in coefficient units.

    The line of qubit k with partners in state m carries 2^n rho[1_k m, 0_k m].
    A deviation sigma_x^k alone gives every line of qubit k amplitude 1;
    adding sigma_x^k sigma_z^j moves weight between the partner-|0> and
    partner-|1> lines of qubit k.
    """
    lines = _readout_lines(rho, config)
    return _peak_table(_readings(rho.matrix), lines)


_SETTINGS = ("I", "X90", "Y90")


def _setting_circuit(setting: tuple[str, ...]) -> Circuit:
    gates = tuple(Gate(s, (q,)) for q, s in enumerate(setting, start=1) if s != "I")
    return Circuit(len(setting), gates)


@functools.lru_cache(maxsize=3)
def _ideal_readouts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ideal unitaries of the 3^n readout settings, in sweep order, and the
    `_inverse` of their map (read-only). Offsets, J and channel labels only
    move and group the lines, so both depend on n alone."""
    settings = itertools.product(_SETTINGS, repeat=n)
    us = np.array([circuit_unitary(_setting_circuit(s)) for s in settings])
    us.setflags(write=False)
    return us, _inverse(_readout_map(us))


def _readout_map(us: np.ndarray) -> np.ndarray:
    """The map A, shape (S, L, 4^n - 1), from the coefficients c_P of
    rho = (I + sum_P c_P P) / d to the lines after each U of the stack `us`:
    line (r, c) reads sum_P c_P sum_ab U[r, a] P[a, b] U*[c, b]."""
    n = us.shape[-1].bit_length() - 1
    rows, cols = _line_elements(n)
    paulis = np.array([pauli_string_matrix(s) for s in all_pauli_strings(n)[1:]])
    return np.einsum("sla,pab,slb->slp", us[:, rows], paulis, us[:, cols].conj())


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


def _reconstruct(rho: DensityMatrix, config: SpinSystemConfig, compiled_readout, pulse_amp_hz):
    """`_readout_lines`, then the reconstruction of `tomography`, its settings and readings."""
    lines = _readout_lines(rho, config)
    settings = list(itertools.product(_SETTINGS, repeat=config.n))
    if compiled_readout:
        us = np.array([program_unitary(compile_circuit(_setting_circuit(s), config,
                                                       pulse_amp_hz)) for s in settings])
        inverse = _inverse(_readout_map(us))
    else:
        us, inverse = _ideal_readouts(config.n)
    readings = _readings(us @ rho.matrix @ us.conj().swapaxes(1, 2))
    coeffs = (inverse @ readings.ravel()).real
    recon = pauli_reconstruct(dict(zip(all_pauli_strings(config.n)[1:], coeffs)))
    return recon, lines, settings, readings


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
    recon, lines, settings, readings = _reconstruct(rho, config, compiled_readout, pulse_amp_hz)
    return recon, {",".join(s): _peak_table(r, lines) for s, r in zip(settings, readings)}


def tomography(
    rho: DensityMatrix,
    config: SpinSystemConfig,
    compiled_readout: bool = False,
    pulse_amp_hz: float = DEFAULT_PULSE_AMP_HZ,
) -> DensityMatrix:
    """Full state reconstruction from the 3^n readout-pulse settings, as `tomography_sweep`."""
    return _reconstruct(rho, config, compiled_readout, pulse_amp_hz)[0]
