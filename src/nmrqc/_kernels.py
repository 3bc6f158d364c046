"""Batched numeric kernels: propagator stacks, unitary chains, and the GRAPE
fidelity with its exact gradient.

Every kernel diagonalizes its whole (N, d, d) Hamiltonian stack with one
batched ``np.linalg.eigh`` call; only the time-ordered products loop over
segments.
"""

import numpy as np

from .errors import ValidationError


def _eig_propagators(h_stack, dt):
    """Eigendecomposition of a Hamiltonian stack and its propagators.

    Returns (w, v, props): eigenvalues (N, d), eigenvectors (N, d, d) and
    propagators V diag(exp(-i w dt)) V^dag (N, d, d).
    """
    w, v = np.linalg.eigh(h_stack)
    phases = np.exp(-1j * (w * np.asarray(dt)[..., np.newaxis]))
    return w, v, (v * phases[:, np.newaxis, :]) @ v.conj().swapaxes(-1, -2)


def segment_propagators(h_stack, dt):
    """exp(-i * h * dt) for a stack of Hermitian matrices, via eigendecomposition.

    h_stack: (N, d, d) complex128 Hermitian, rad/s.
    dt:      one duration for every segment, or one per segment (shape (N,)), s.
    Returns (N, d, d) unitaries; ValidationError if a phase |eigenvalue| * dt is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # sum |Re| + |Im| bounds |eigenvalue|
        phase = np.abs(h_stack.view(float)).sum(axis=(-2, -1)) * dt
    if not np.isfinite(phase).all():  # nan or inf in h too
        raise ValidationError("pulse Hamiltonian (rad/s) times event duration is not finite")
    return _eig_propagators(h_stack, dt)[2]


def unitary_chain(props, d=None):
    """Time-ordered product U_N ... U_2 U_1 of a propagator stack, or of any iterable
    of (d, d) unitaries: one held at a time, the identity if there are none."""
    acc = np.eye(props.shape[1] if d is None else d, dtype=np.complex128)
    for u in props:
        acc = u @ acc
    return acc


def grape_fidelity_and_gradient(h_stack, target_dag, controls, dt):
    """Gate fidelity and its exact gradient w.r.t. segment amplitudes.

    h_stack:    (N, d, d) segment Hamiltonians H0 + sum_k u_jk B_k, rad/s.
    target_dag: (d, d) conjugate transpose of the target unitary.
    controls:   (M, d, d) Hermitian control generators B_k, rad/s per unit amplitude.
    dt:         segment duration, s.

    Returns (fidelity, grad) with fidelity |Tr(T^dag U_N...U_1)|^2 / d^2 and
    grad shaped (N, M). In the eigenbasis H_j = V diag(w) V^dag the
    derivative of U_j = exp(-i H_j dt) along B_k is V (Phi o V^dag B_k V) V^dag
    (Khaneja et al., JMR 172, 296 (2005)), where Phi_ab is the divided
    difference of exp(-i w dt) at (w_a, w_b). Phi is evaluated as
    -i dt exp(-i (w_a + w_b) dt / 2) sinc((w_a - w_b) dt / 2), which equals
    the divided difference and tends to -i dt exp(-i w_a dt) on degenerate
    pairs without cancellation.
    """
    n, d, _ = h_stack.shape
    w, v, props = _eig_propagators(h_stack, dt)
    mid = np.exp(-0.5j * dt * (w[:, :, np.newaxis] + w[:, np.newaxis, :]))
    phi = -1j * dt * mid * np.sinc(dt * (w[:, :, np.newaxis] - w[:, np.newaxis, :]) / (2 * np.pi))

    # Inclusive prefix products fwd[j] = U_j ... U_0 by a log-depth scan.
    fwd = props.copy()
    step = 1
    while step < n:
        fwd[step:] = fwd[step:] @ fwd[:-step]
        step *= 2
    total = fwd[-1]
    overlap = np.sum(target_dag * total.T)

    # The overlap differentiated at segment j is Tr(A_j dU_j) with
    # A_j = U_{j-1} ... U_0 T^dag U_{N-1} ... U_{j+1}
    #     = fwd[j - 1] (T^dag U) fwd[j]^dag.
    before = np.concatenate([np.eye(d, dtype=np.complex128)[np.newaxis], fwd[:-1]])
    a = before @ (target_dag @ total) @ fwd.conj().swapaxes(-1, -2)
    # Tr(A V (Phi o V^dag B V) V^dag) = sum_ij B_ij (conj(V) Q V^T)_ij with
    # Q = (V^dag A V)^T o Phi.
    vh = v.conj().swapaxes(-1, -2)
    a_eig = vh @ a @ v
    r = v.conj() @ (a_eig.swapaxes(-1, -2) * phi) @ v.swapaxes(-1, -2)
    d_overlap = np.einsum("nij,kij->nk", r, controls)
    fid = (overlap.real**2 + overlap.imag**2) / (d * d)
    grad = (2.0 / (d * d)) * (np.conj(overlap) * d_overlap).real
    return float(fid), grad
