"""Scalar root finders and an explicit Runge-Kutta integrator.

These are the only pieces of ``scipy.optimize`` and ``scipy.integrate`` the
package needs, ported line for line from scipy 1.17.1 so that they return
the same bits:

* ``brentq`` and ``bisect`` follow ``scipy/optimize/Zeros/brentq.c`` and
  ``bisect.c`` (Brent, *Algorithms for Minimization without Derivatives*,
  1973), including the zero and sign-bit tests at the bracket ends;
* ``rk45`` follows ``scipy/integrate/_ivp``: ``rk.py`` (``rk_step``,
  ``RungeKutta._step_impl``, ``RkDenseOutput``), ``common.py``
  (``select_initial_step``, ``norm``, ``OdeSolution._call_single``) and the
  terminal-event handling of ``ivp.solve_ivp``, for the Dormand-Prince 5(4)
  pair (Dormand & Prince, J. Comput. Appl. Math. 6, 1980).

scipy's numpy calls are kept verbatim (``np.dot`` on the same transposed
views, ``np.linalg.norm(x) / x.size ** 0.5``, ``tile``/``cumprod`` in the
dense output), as are its tolerances, iteration caps and order of
evaluation; ``tests/test_scalar.py`` checks the bits against the installed
scipy.  Importing either scipy package costs a process about 45 MB of
resident memory and half a second of CPU, which is why they are ported
rather than imported.  Since the code lives here, barrier numbers no longer
depend on the installed scipy version.

Where scipy raised a bare ``ValueError`` or ``RuntimeError`` (no sign
change, a nan function value, no convergence) these raise ``DomainError``
naming the bracket.

The ported code is covered by scipy's license:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import DomainError

EPS = float(np.finfo(float).eps)
MAXITER = 100

# Dormand-Prince 5(4) tableau, error weights and dense-output polynomial
# (Shampine's optimum c_6), exactly as in scipy's RK45.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_N_STAGES = 6
_ERROR_EXPONENT = -1 / (4 + 1)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10


def _value(f: Callable[[float], float], x: float, a: float,
           b: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise DomainError(
            f"function value at x = {x!r} is nan while searching the "
            f"bracket [{a!r}, {b!r}]")
    return fx


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def bisect(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float = 4 * EPS, maxiter: int = MAXITER) -> float:
    """Root of f in [a, b] by bisection; f(a) and f(b) differ in sign."""
    a, b, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    xa, xb = a, b
    fa = _value(f, xa, a, b)
    fb = _value(f, xb, a, b)
    if fa == 0:
        return xa
    if fb == 0:
        return xb
    if _signbit(fa) == _signbit(fb):
        raise DomainError(
            f"f({a!r}) = {fa!r} and f({b!r}) = {fb!r} have the same sign; "
            "the bracket holds no root")
    dm = xb - xa
    for _ in range(maxiter):
        dm *= .5
        xm = xa + dm
        fm = _value(f, xm, a, b)
        if _signbit(fm) == _signbit(fa):
            xa = xm
        if fm == 0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise DomainError(
        f"bisection on [{a!r}, {b!r}] did not converge in {maxiter} "
        "iterations")


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float = 4 * EPS, maxiter: int = MAXITER) -> float:
    """Root of f in [a, b] by Brent's method; f(a) and f(b) differ in
    sign."""
    a, b, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.
    fpre = _value(f, xpre, a, b)
    fcur = _value(f, xcur, a, b)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise DomainError(
            f"f({a!r}) = {fpre!r} and f({b!r}) = {fcur!r} have the same "
            "sign; the bracket holds no root")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        # the tolerance is 2*delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C divides to inf or nan here, which fails the test below.
                stry = math.nan
            bound = 3 * abs(sbis) - delta
            if abs(spre) < bound:
                bound = abs(spre)
            if 2 * abs(stry) < bound:
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += (delta if sbis > 0 else -delta)

        fcur = _value(f, xcur, a, b)
    raise DomainError(
        f"Brent's method on [{a!r}, {b!r}] did not converge in {maxiter} "
        "iterations")


def _norm(x: np.ndarray):
    """RMS norm."""
    return np.linalg.norm(x) / x.size ** 0.5


class RkDenseOutput:
    """Quartic interpolant of one accepted step."""

    def __init__(self, t_old, t, y_old: np.ndarray, Q: np.ndarray):
        self.t_old = t_old
        self.h = t - t_old
        self.Q = Q
        self.order = Q.shape[1] - 1
        self.y_old = y_old

    def __call__(self, t: float) -> np.ndarray:
        x = (np.asarray(t) - self.t_old) / self.h
        p = np.tile(x, self.order + 1)
        p = np.cumprod(p)
        y = self.h * np.dot(self.Q, p)
        y += self.y_old
        return y


class OdeSolution:
    """Piecewise dense output over the accepted steps; at a step boundary
    the earlier step's interpolant is used."""

    def __init__(self, ts: List[float], interpolants: List[RkDenseOutput]):
        self.ts = np.asarray(ts)
        self.interpolants = interpolants

    def __call__(self, t: float) -> np.ndarray:
        ind = np.searchsorted(self.ts, t, side="left")
        segment = min(max(ind - 1, 0), len(self.interpolants) - 1)
        return self.interpolants[segment](t)


def _rk_step(fun, t, y, f, h, K):
    K[0] = f
    for s, (a, c) in enumerate(zip(_A[1:], _C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, _B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (4 + 1))
    return min(100 * h0, h1, interval_length)


def rk45(fun: Callable, t0: float, y0, t_bound: float, rtol: float,
         atol: float, event: Callable) -> Tuple[Optional[float],
                                                Optional[OdeSolution]]:
    """Integrate y' = fun(t, y) forward from (t0, y0) towards t_bound with
    Dormand-Prince 5(4), stopping where event(t, y) first crosses zero
    upwards.

    Returns ``(t_event, solution)``, where ``solution(t)`` is the dense
    output on [t0, t_event].  Both are None when the run reaches t_bound,
    or the step size underflows, before the event.
    """
    t0, t_bound = float(t0), float(t_bound)
    if not t_bound > t0:
        raise DomainError(
            f"integration interval [{t0!r}, {t_bound!r}] is empty")

    def f_of(t, y):
        return np.asarray(fun(t, y), dtype=float)

    y = np.asarray(y0).astype(float, copy=False)
    atol = np.asarray(atol)
    t = t0
    f = f_of(t, y)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(f))):
        # scipy's step-size control would then loop forever on a nan step.
        raise DomainError(
            f"initial state {y} or its derivative {f} is not finite")
    h_abs = _initial_step(f_of, t, y, t_bound, f, rtol, atol)
    K = np.empty((_N_STAGES + 1, y.size), dtype=y.dtype)

    ts = [t0]
    interpolants: List[RkDenseOutput] = []
    g = event(t0, y)
    while True:
        # One accepted step (RungeKutta._step_impl).
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                return None, None
            h = h_abs
            t_new = t + h
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(f_of, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _norm(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR,
                             SAFETY * error_norm ** _ERROR_EXPONENT)
                step_rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        finished = t - t_bound >= 0

        # Dense output and the terminal event (solve_ivp).
        sol = RkDenseOutput(t_old, t, y_old, K.T.dot(_P))
        interpolants.append(sol)
        g_new = event(t, y)
        if g <= 0 and g_new >= 0:
            root = brentq(lambda s: event(s, sol(s)), t_old, t,
                          xtol=4 * EPS, rtol=4 * EPS)
            if len(ts) > 1 and ts[-1] == root:
                interpolants.pop()
            else:
                ts.append(root)
            return root, OdeSolution(ts, interpolants)
        g = g_new
        if finished:
            return None, None
        ts.append(t)
