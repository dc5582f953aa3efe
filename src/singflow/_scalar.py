"""Scalar root finders.

``brentq`` and ``bisect`` are the only pieces of ``scipy.optimize`` the
package needs, ported line for line from scipy 1.17.1 so that they return
the same bits.  They follow ``scipy/optimize/Zeros/brentq.c`` and
``bisect.c`` (Brent, *Algorithms for Minimization without Derivatives*,
1973), including the zero and sign-bit tests at the bracket ends, and keep
scipy's tolerances, iteration caps and order of evaluation;
``tests/test_scalar.py`` checks the bits against the installed scipy.
Importing ``scipy.optimize`` costs a process about 45 MB of resident memory
and half a second of CPU, which is why they are ported rather than
imported.  Since the code lives here, barrier numbers do not depend on the
installed scipy version.

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
from typing import Callable

import numpy as np

from .errors import DomainError

EPS = float(np.finfo(float).eps)
MAXITER = 100


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
