"""The package's one scalar root finder.

``root`` solves f(x) = 0 for an f that increases through its root on a
bracket [lo, hi] with f(lo) <= 0 <= f(hi).  Each evaluation moves the end
of the bracket on its side of the root to the point evaluated.  Given the
derivative, it takes Newton steps, replaces one that leaves the bracket by
the midpoint, and stops on a Newton step of at most ``tol``; without it,
it bisects down to float resolution.  A nan function value, a bracket that
holds no root and a search that does not end raise ``DomainError`` naming
the bracket.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .errors import DomainError

# Halving the widest float bracket down to two adjacent floats takes fewer
# steps than this; a Newton search is only this long if it cycles.
MAXITER = 2200


def root(f: Callable[[float], float], lo: float, hi: float,
         x0: Optional[float] = None,
         slope: Optional[Callable[[float], float]] = None,
         tol: float = 0.0) -> float:
    """The x in [lo, hi] with f(x) = 0, for f increasing through it;
    ``x0`` is the first point (the midpoint by default) and ``slope`` the
    derivative of f."""
    a, b = lo, hi
    x = 0.5 * (lo + hi) if x0 is None else x0
    for _ in range(MAXITER):
        fx = f(x)
        if math.isnan(fx):
            raise DomainError(
                f"function value at x = {x!r} is nan while searching the "
                f"bracket [{a!r}, {b!r}]")
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        d = slope(x) if slope is not None else 0.0
        nxt = x - fx / d if d else math.nan
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                if (lo == a and f(a) > 0.0) or (hi == b and f(b) < 0.0):
                    raise DomainError(
                        f"f does not change sign on the bracket [{a!r}, "
                        f"{b!r}]; it holds no root")
                return x
        elif abs(nxt - x) <= tol:
            return nxt
        x = nxt
    raise DomainError(
        f"no root of f found on [{a!r}, {b!r}] in {MAXITER} steps")
