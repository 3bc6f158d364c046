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
frequency. The Pauli readout inverts exactly that relation.

FID synthesis reads H0's eigendecomposition and the channel sums
Sx_ch, Sy_ch from the machine's cached, read-only operators (see
`spinsys`). Tomography sweeps the 3^n readout settings once and returns
the peak tables it inverted alongside the reconstruction: with the
compiled readout those are the spectra of the states rotated by the
compiled pulses. A sweep lists each channel's lines once, and the ideal
readout unitaries are built once per qubit count.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import DEFAULT_PULSE_AMP_HZ, Circuit, Gate, circuit_unitary, compile_circuit
from .dynamics import program_unitary
from .errors import UnresolvedPeaksError, ValidationError
from .quantum import DensityMatrix, pauli_reconstruct
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

    def csv_text(self) -> str:
        lines = ["t_s,re,im"]
        for t, s in zip(self.times_s, self.samples):
            lines.append(f"{t:.12g},{s.real:.12g},{s.imag:.12g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Spectrum:
    """Unitary DFT of an FID on an fftshifted frequency grid (Hz)."""

    channel: str
    frequencies_hz: np.ndarray
    amplitudes: np.ndarray

    def csv_text(self) -> str:
        lines = ["freq_hz,re,im,magnitude"]
        for f, a in zip(self.frequencies_hz, self.amplitudes):
            lines.append(f"{f:.12g},{a.real:.12g},{a.imag:.12g},{abs(a):.12g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Peak:
    """One spectral line: frequency plus complex amplitude in tone units
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
    n_samples = int(round(duration_s / dt_s))
    if n_samples < 2:
        raise ValidationError("duration/dt must give at least 2 samples")
    c = config.channel_index(channel)
    ops = config._operators
    w, v = ops.h0_eigvals, ops.h0_eigvecs
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


def spectrum_peaks(fid: FIDSignal, threshold: float = 0.05) -> list[Peak]:
    """Local maxima of the spectrum magnitude above threshold * max.

    Peak amplitudes are rescaled to tone units: a unit-amplitude on-bin
    undamped complex exponential reports amplitude 1.
    """
    spec = spectrum_of(fid)
    mag = np.abs(spec.amplitudes)
    top = float(np.max(mag))
    if top <= 0.0:
        return []
    n = fid.samples.size
    peaks = []
    for i in range(mag.size):
        left = mag[i - 1] if i > 0 else -np.inf
        right = mag[i + 1] if i < mag.size - 1 else -np.inf
        if mag[i] >= threshold * top and mag[i] > left and mag[i] >= right:
            peaks.append(
                Peak(
                    frequency_hz=float(spec.frequencies_hz[i]),
                    amplitude=complex(spec.amplitudes[i] / np.sqrt(n)),
                )
            )
    return peaks


def _weak_lines(
    config: SpinSystemConfig, channel: str
) -> list[tuple[int, tuple[int, ...], float, tuple[int, int]]]:
    """(qubit k, partner bits m in ascending qubit order, frequency in Hz,
    index of the coherence |1_k m><0_k m|) of each line on a channel."""
    lines = []
    n = config.n
    for k in config.channel_members(channel):
        partners = [q for q in range(1, n + 1) if q != k]
        for bits in itertools.product((0, 1), repeat=n - 1):
            f = config.nuclei[k - 1].offset_hz
            col = 0
            for q, b in zip(partners, bits):
                f += (1 - 2 * b) * config.j_hz[k - 1, q - 1] / 2.0
                col |= b << (n - q)
            lines.append((k, bits, f, (col | 1 << (n - k), col)))
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
        _check_resolved([f for _, _, f, _ in ch_lines], _channel_t2(config, channel))
    return lines


def _peak_table(rho: DensityMatrix, lines: dict[str, list]) -> dict[str, list[Peak]]:
    d, m = len(rho.matrix), rho.matrix
    return {ch: [Peak(f, complex(d * m[el])) for _, _, f, el in ls] for ch, ls in lines.items()}


def readout_peak_table(rho: DensityMatrix, config: SpinSystemConfig) -> dict[str, list[Peak]]:
    """Per-channel spectral lines with amplitudes in coefficient units.

    The line of qubit k with partners in state m carries 2^n rho[1_k m, 0_k m].
    A deviation sigma_x^k alone gives every line of qubit k amplitude 1;
    adding sigma_x^k sigma_z^j moves weight between the partner-|0> and
    partner-|1> lines of qubit k.
    """
    return _peak_table(rho, _readout_lines(rho, config))


def readout_pauli_coefficients(rho: DensityMatrix, config: SpinSystemConfig) -> dict[str, float]:
    """All Pauli coefficients with exactly one x/y factor, from spectra.

    For each qubit k the 2^(n-1) line amplitudes of its channel are
    inverted through the partner-sign table: the real parts give the
    sigma_x^k (x) z-pattern coefficients, the imaginary parts the
    sigma_y^k ones.
    """
    lines = _readout_lines(rho, config)
    return _table_coefficients(_peak_table(rho, lines), lines, config.n)


def _table_coefficients(table: dict, lines: dict[str, list], n: int) -> dict[str, float]:
    norm = 2 ** (n - 1)
    coeffs: dict[str, float] = {}
    for channel, peaks in table.items():
        by_member: dict[int, list[tuple[tuple[int, ...], complex]]] = {}
        for (k, bits, _, _), peak in zip(lines[channel], peaks):
            by_member.setdefault(k, []).append((bits, peak.amplitude))
        for k, entries in by_member.items():
            for pattern in itertools.product((0, 1), repeat=n - 1):
                cx = cy = 0.0
                for bits, amp in entries:
                    sign = 1
                    for b, p in zip(bits, pattern):
                        if b and p:
                            sign = -sign
                    cx += sign * amp.real
                    cy += sign * amp.imag
                z = ["Z" if p else "I" for p in pattern]
                coeffs["".join(z[: k - 1] + ["X"] + z[k - 1 :])] = cx / norm
                coeffs["".join(z[: k - 1] + ["Y"] + z[k - 1 :])] = cy / norm
    return coeffs


# Conjugation tables for the three readout settings: measuring letter q on
# the rotated state equals measuring (sign, letter) on the original state.
_SETTING_MAP = {
    "I": {"I": ("I", 1), "X": ("X", 1), "Y": ("Y", 1), "Z": ("Z", 1)},
    "X90": {"I": ("I", 1), "X": ("X", 1), "Y": ("Z", -1), "Z": ("Y", 1)},
    "Y90": {"I": ("I", 1), "X": ("Z", 1), "Y": ("Y", 1), "Z": ("X", -1)},
}


def _setting_circuit(setting: tuple[str, ...]) -> Circuit:
    gates = tuple(Gate(s, (q,)) for q, s in enumerate(setting, start=1) if s != "I")
    return Circuit(len(setting), gates)


@functools.lru_cache(maxsize=3)
def _ideal_readouts(n: int) -> np.ndarray:
    """Ideal unitaries of the 3^n readout settings, in sweep order (read-only)."""
    settings = itertools.product(_SETTING_MAP, repeat=n)
    us = np.array([circuit_unitary(_setting_circuit(s)) for s in settings])
    us.setflags(write=False)
    return us


def tomography_sweep(
    rho: DensityMatrix,
    config: SpinSystemConfig,
    compiled_readout: bool = False,
    pulse_amp_hz: Optional[float] = None,
) -> tuple[DensityMatrix, dict[str, dict[str, list[Peak]]]]:
    """Full state reconstruction from the 3^n readout-pulse settings, and
    the per-setting peak tables it inverts.

    Each setting applies {identity, X90, Y90} per qubit, ideal or compiled
    to pulses, reads the single-transverse-factor coefficients off the
    spectra, and maps them back through the rotation; every one of the
    4^n - 1 coefficients is determined at least once (duplicates are
    averaged). Table keys are setting labels like "I,Y90"; values map
    channel label to the peak list of the rotated state.
    """
    if config.n > 3:
        raise ValidationError("tomography supports n <= 3")
    lines = _readout_lines(rho, config)
    tables = {}
    determinations: dict[str, list[float]] = {}
    for i, setting in enumerate(itertools.product(_SETTING_MAP, repeat=config.n)):
        if compiled_readout:
            amp = pulse_amp_hz or DEFAULT_PULSE_AMP_HZ
            u = program_unitary(compile_circuit(_setting_circuit(setting), config, amp))
        else:
            u = _ideal_readouts(config.n)[i]
        table = _peak_table(rho.evolved(u), lines)
        tables[",".join(setting)] = table
        for q_string, value in _table_coefficients(table, lines, config.n).items():
            letters = []
            sign = 1
            for s, q_letter in zip(setting, q_string):
                letter, sgn = _SETTING_MAP[s][q_letter]
                letters.append(letter)
                sign *= sgn
            target = "".join(letters)
            if set(target) == {"I"}:
                continue
            determinations.setdefault(target, []).append(sign * value)
    coeffs = {label: float(np.mean(vals)) for label, vals in determinations.items()}
    missing = [
        label
        for label in map("".join, itertools.product("IXYZ", repeat=config.n))
        if label != "I" * config.n and label not in coeffs
    ]
    if missing:
        raise ValidationError(f"tomography did not determine {missing}")
    coeffs["I" * config.n] = 1.0
    return pauli_reconstruct(coeffs), tables


def tomography(
    rho: DensityMatrix,
    config: SpinSystemConfig,
    compiled_readout: bool = False,
    pulse_amp_hz: Optional[float] = None,
) -> DensityMatrix:
    """Full state reconstruction from the 3^n readout-pulse settings
    (see `tomography_sweep`)."""
    return tomography_sweep(rho, config, compiled_readout, pulse_amp_hz)[0]
