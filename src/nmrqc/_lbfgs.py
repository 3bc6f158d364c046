"""L-BFGS without bounds, stepping as scipy's L-BFGS-B does on an unbounded problem.

L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1190 (1995)) then
steps along -H g, H the inverse Hessian from the last MEMORY curvature pairs
over H0 = (s·y / y·y) I, with MINPACK-2's Moré–Thuente search `dcsrch`.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)
MEMORY, MAXLS = 10, 20  # curvature pairs kept, evaluations per line search
PGTOL, FACTR_TOL = 1e-5, 2.220446049250313e-9  # scipy's gtol and ftol stops
FTOL, GTOL, XTOL = 1e-3, 0.9, 0.1  # dcsrch: sufficient decrease, curvature, bracket width
STPMAX = 1e10


def iterates(fg, x, f, g):
    """Yield (x, f, g) at each accepted iterate of L-BFGS on fg(x) -> (f, gradient).

    Starts from x with f, g = fg(x). Ends after an iterate with no gradient
    component above PGTOL, or one that lowers f by at most FACTR_TOL *
    max(|f_old|, |f|, 1), or when a line search fails with no curvature pairs
    to drop (a failure with pairs drops them and steps along -g).
    """
    if np.max(np.abs(g)) <= PGTOL:
        return
    pairs: list = []  # (s, y, 1 / s·y), oldest first
    h0, first = 1.0, True
    while True:
        q = g.copy()  # two-loop recursion: q = H g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        q *= h0
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        d = -q
        gd = float(g @ d)
        stp = min(1.0 / math.sqrt(d @ d), STPMAX) if first else 1.0
        found = _search(fg, x, d, f, gd, stp) if gd < 0 else None
        if found is None:
            if not pairs:
                return
            pairs, h0 = [], 1.0
            continue
        first = False
        stp, x_new, f_new, g_new, gd_new = found
        yield x_new, f_new, g_new
        if (np.max(np.abs(g_new)) <= PGTOL
                or f - f_new <= FACTR_TOL * max(abs(f), abs(f_new), 1.0)):
            return
        y = g_new - g
        sy = (gd_new - gd) * stp
        if sy > EPS * -gd * stp:  # else too little curvature: skip the update
            pairs = [*pairs, (stp * d, y, 1.0 / sy)][-MEMORY:]
            h0 = sy / (y @ y)
        x, f, g = x_new, f_new, g_new


def _search(fg, x, d, f0, gd0, stp):
    """(stp, x, f, g, g·d) at a step along d that dcsrch accepts, or None after MAXLS tries.

    MINPACK-2 `dcsrch` (Moré & Thuente, ACM TOMS 20, 286 (1994)), ported from
    scipy's `scipy/optimize/_dcsrch.py` without the input checks and with
    stpmin = 0. Like L-BFGS-B, it accepts a step on dcsrch's warning exits too.
    """
    gtest = FTOL * gd0
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = gd0
    brackt, stage = False, 1
    stmin, stmax = 0.0, 5.0 * stp
    width, width1 = STPMAX, 2.0 * STPMAX
    for _ in range(MAXLS):
        x_new = x + stp * d
        f, g = fg(x_new)
        gd = float(g @ d)
        ftest = f0 + stp * gtest
        if stage == 1 and f <= ftest and gd >= 0:
            stage = 2
        if (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax)
                or stp == STPMAX and f <= ftest and gd <= gtest
                or f <= ftest and abs(gd) <= GTOL * -gd0):
            return stp, x_new, f, g, gd
        if stage == 1 and ftest < f <= fx:
            # step on the modified function f - gtest * stp
            stx, fx, gx, sty, fy, gy, stp, brackt = _step(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, gd - gtest, brackt, stmin, stmax)
            fx, fy, gx, gy = fx + stx * gtest, fy + sty * gtest, gx + gtest, gy + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _step(
                stx, fx, gx, sty, fy, gy, stp, f, gd, brackt, stmin, stmax)
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), STPMAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax):
            stp = stx
    return None


def _gamma(theta, a, b, negate):
    s = max(abs(theta), abs(a), abs(b))
    gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (a / s) * (b / s)))
    return -gamma if negate else gamma


def _step(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 `dcstep`: a safeguarded trial step and the bracket [stx, sty] updated.

    stx is the best step so far; once brackt is set, a minimizer lies in the bracket.
    """
    opposite = dp * math.copysign(1.0, dx) < 0
    theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
    if fp > fx:  # bracketed: the cubic step if nearer stx, else midway to the quadratic one
        gamma = _gamma(theta, dx, dp, stp < stx)
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:  # bracketed: the farther of the cubic and secant steps
        gamma = _gamma(theta, dx, dp, stp > stx)
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):  # the slope shrinks: cubic only if its minimum lies beyond stp
        gamma = _gamma(theta, dx, dp, stp > stx)
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:  # the slope does not shrink: the cubic step toward sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _gamma(theta, dy, dp, stp > sty)
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt
