"""The in-package L-BFGS against scipy's L-BFGS-B, and the steps its line search accepts."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import minimize, rosen, rosen_der

from nmrqc import _kernels, _lbfgs
from nmrqc.control import Gate, gate_matrix
from nmrqc.spinsys import control_operators, internal_hamiltonian, preset


def scipy_path(fg, x0, target=None, maxiter=15000):
    """Iterates of scipy's L-BFGS-B, up to the first with f <= target."""
    xs = []

    def record(intermediate_result):
        xs.append(intermediate_result.x.copy())
        if target is not None and intermediate_result.fun <= target:
            raise StopIteration

    minimize(fg, x0, jac=True, method="L-BFGS-B", callback=record,
             options={"maxiter": maxiter})
    return xs


def own_path(fg, x0, target=None, maxiter=15000):
    xs = []
    for x, f, _ in _lbfgs.iterates(fg, x0, *fg(x0)):
        xs.append(x)
        if len(xs) == maxiter or target is not None and f <= target:
            break
    return xs


def distance(path, ref):
    """Largest coordinate gap over the first 10 iterates."""
    return max(np.max(np.abs(a - b)) for a, b in zip(path[:10], ref[:10]))


def assert_same_path(ours, ref, tol=1e-8):
    assert len(ours) == len(ref)
    assert distance(ours, ref) <= tol


@pytest.mark.parametrize("x0", [np.tile([-1.2, 1.0], 5), np.linspace(-1.0, 2.0, 10),
                                np.random.default_rng(3).normal(size=10)],
                         ids=["classic", "ramp", "normal"])
def test_rosenbrock_matches_scipy(x0):
    def fg(x):
        return rosen(x), rosen_der(x)

    assert_same_path(own_path(fg, x0), scipy_path(fg, x0))


def grape_problem(seed):
    """(fg, x0) of a perfbench-style GRAPE solve: amplitudes times duration -> 1 - F."""
    rng = np.random.default_rng([17, seed])
    name, n_seg, duration = ("triangulum", 20, 1e-3) if seed % 4 == 0 else ("gemini", 16, 4e-4)
    cfg = preset(name)
    gate = Gate(("X90", "H", "Y90")[seed % 3], (int(rng.integers(1, cfg.n + 1)),))
    h0 = internal_hamiltonian(cfg)
    controls, _ = control_operators(cfg)
    target_dag = np.ascontiguousarray(gate_matrix(gate, cfg.n).conj().T)

    def fg(x):
        h = h0 + np.tensordot(x.reshape(n_seg, -1) / duration, controls, axes=(1, 0))
        fid, grad = _kernels.grape_fidelity_and_gradient(h, target_dag, controls,
                                                         duration / n_seg)
        return 1.0 - fid, -grad.ravel() / duration

    return fg, rng.uniform(-1e3, 1e3, size=n_seg * len(controls)) * duration


@pytest.mark.parametrize("seed", range(20))
def test_grape_solve_matches_scipy(seed):
    # the same iterates, and the same count of them to F >= 0.9, as perfbench's solves
    fg, x0 = grape_problem(seed)
    ref = scipy_path(fg, x0, 0.1, 100)
    # Some solves amplify rounding a millionfold within a few iterates: there scipy
    # does not reproduce its own path from a start 1e-15 away either, and the
    # comparison is held to that spread instead of 1e-8.
    spread = distance(scipy_path(fg, x0 * (1 + 1e-15), 0.1, 100), ref)
    assert_same_path(own_path(fg, x0, 0.1, 100), ref, max(1e-8, 10 * spread))


def test_stationary_start_takes_no_step():
    def fg(x):
        return float(x @ x), 2 * x

    x0 = np.zeros(3)
    assert list(_lbfgs.iterates(fg, x0, *fg(x0))) == []


def test_a_weak_decrease_steps_on_the_modified_function():
    # -atan(1e4 x) + (x - 1)^2 from 0 is nonconvex: the first step, of unit length, lowers f
    # by less than FTOL times the slope's length, so dcsrch steps on f - FTOL * slope * stp
    def fg(x):
        return (float(-np.arctan(1e4 * x[0]) + (x[0] - 1) ** 2),
                np.array([-1e4 / (1 + 1e8 * x[0] ** 2) + 2 * (x[0] - 1)]))

    (f0, g0), (f1, _) = fg(np.zeros(1)), fg(np.ones(1))
    assert f0 - _lbfgs.FTOL * abs(g0[0]) < f1 < f0
    assert_same_path(own_path(fg, np.zeros(1)), scipy_path(fg, np.zeros(1)))


def test_a_failed_search_drops_the_pairs_then_a_second_one_stops(monkeypatch):
    # f = x·x with the gradient of x·x + 3 Σx: from the third iterate on, f rises along the
    # direction that this gradient calls descent, and each search gives up after MAXLS tries
    def fg(x):
        return float(x @ x), 2 * x + 3.0

    found, search = [], _lbfgs._search
    monkeypatch.setattr(_lbfgs, "_search", lambda *args: found.append(search(*args)) or found[-1])
    x0 = np.array([1.0, 2.0])
    assert_same_path(own_path(fg, x0), scipy_path(fg, x0))
    assert [step is None for step in found] == [False, False, False, True, True]


@given(q=st.floats(1e-3, 1e3), t0=st.floats(1e-3, 1e3), stp=st.floats(1e-4, 1e4),
       waves=st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(1e-2, 1e2),
                                st.floats(0.0, 2 * np.pi)), max_size=3),
       wiggle=st.floats(0.0, 4.0))
def test_line_search_steps_meet_strong_wolfe(q, t0, stp, waves, wiggle):
    # phi(t) = q (t - t0)^2 + sum a sin(w t + p), the waves scaled so that their
    # curvature is at most `wiggle` times the parabola's: phi is convex below 1
    a, w, p = (np.array(v) for v in zip(*waves)) if waves else (np.zeros(1),) * 3
    if waves:
        a = a * wiggle * 2 * q / np.sum(a * w * w)

    def fg(x):
        t = x[0]
        return (q * (t - t0) ** 2 + float(np.sum(a * np.sin(w * t + p))),
                np.array([2 * q * (t - t0) + float(np.sum(a * w * np.cos(w * t + p)))]))

    f0, g0 = fg(np.zeros(1))
    assume(g0[0] < 0)
    found = _lbfgs._search(fg, np.zeros(1), np.ones(1), f0, g0[0], stp)
    assert found is not None
    step, x, f, g, slope = found
    assert x[0] == step and slope == g[0] == fg(x)[1][0]
    assert f <= f0 + _lbfgs.FTOL * step * g0[0]
    if wiggle < 1:
        assert abs(slope) <= _lbfgs.GTOL * abs(g0[0])
    # a nonconvex phi may end the search on dcsrch's bracket-width test, as in
    # scipy; that step keeps the sufficient decrease only
