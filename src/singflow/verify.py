"""Pointwise flow operator, scaling transforms, and boundary-rate fits.

`_flow` is the one vectorized f(factor * g(phi_x) * phi_xx), the product
formed as (factor * g(phi_x)) * phi_xx.  The residual of a smooth test
function phi at a point is

    phi_t - f(factor * g(phi_x) * phi_xx)

with ``factor`` the strengthening weight used by strict barrier checks
(1/(1+delta) on the sub side, (1+delta) on the super side).  A sub-solution
has residual <= 0, a super-solution >= 0.  `super_family` certifies its
constants with factor 2.

`fit_boundary_rate` recovers the divergence profile D * psi_gamma(b - |x|)
from sampled values near a wall by regressing against each candidate rate
and keeping the best relative fit.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .model import DiffusionWeight, Nonlinearity, psi


def _flow(f: Nonlinearity, g: DiffusionWeight, dx, dxx,
          factor: float = 1.0) -> np.ndarray:
    """f(factor * g(dx) * dxx) on arrays as given: reshaping could move
    numpy's pow in the last bit (a 0-d array and a 1-point one differ)."""
    weight = np.asarray(g.eval(np.asarray(dx, dtype=float)), dtype=float)
    return np.asarray(f.eval(factor * weight * np.asarray(dxx, dtype=float)),
                      dtype=float)


def residual_values(f: Nonlinearity, g: DiffusionWeight, dt, dx, dxx,
                    factor: float = 1.0):
    """Vectorized residual dt - f(factor * g(dx) * dxx)."""
    return np.asarray(dt, dtype=float) - _flow(f, g, dx, dxx, factor)


def _check_lambda(lam: float) -> float:
    if not 0.0 <= lam < 1.0:
        raise ParameterError(f"scaling parameter must lie in [0, 1), got {lam}")
    return 1.0 + lam


def scale_super(fn: Callable[[float, float], float],
                lam: float) -> Callable[[float, float], float]:
    """Super-solution scaling (x, t) -> fn((1+lam) x, (1+lam) t) / (1+lam).

    Shrinks the spatial domain to (-b/(1+lam), b/(1+lam)) and weakens the
    diffusion term by the factor 1/(1+lam) under the flow operator.
    """
    s = _check_lambda(lam)

    def scaled(x, t):
        return fn(s * x, s * t) / s

    return scaled


def scale_sub(fn: Callable[[float, float], float],
              lam: float) -> Callable[[float, float], float]:
    """Sub-solution scaling (x, t) -> (1+lam) fn(x/(1+lam), t/(1+lam)).

    Exact inverse of `scale_super` with the same lam (their composition is
    the identity pointwise).
    """
    s = _check_lambda(lam)

    def scaled(x, t):
        return s * fn(x / s, t / s)

    return scaled


def _default_gamma_grid(alpha: Optional[float] = None) -> list:
    """Quarter-step rates 0..5, plus the distinguished rate (2-a)/(a-1)
    when a tail exponent in (1, 2] is supplied."""
    grid = [0.25 * k for k in range(21)]
    if alpha is not None and 1.0 < alpha <= 2.0:
        special = (2.0 - alpha) / (alpha - 1.0)
        if min(abs(gv - special) for gv in grid) > 1e-12:
            grid.append(special)
    return sorted(grid)


def _fit_psi(gamma: float, dist: np.ndarray, u: np.ndarray):
    """Least squares u ~ D * psi_gamma(dist) + C on the column-normalized
    design; returns (D, C) and the unnormalized design [psi, 1]."""
    basis = psi(gamma, dist)
    design = np.column_stack([basis, np.ones_like(basis)])
    norms = np.linalg.norm(design, axis=0)
    coef, *_ = np.linalg.lstsq(design / norms, u, rcond=None)
    return coef / norms, design


def fit_boundary_rate(x, u, b: float, side: int = 1,
                      alpha: Optional[float] = None):
    """Fit u ~ D * psi_gamma(b -+ x) + C near the wall x = side * b.

    Parameters
    ----------
    x, u : array_like
        Sample locations and values; all must lie strictly inside the wall.
    b : float
        Domain half-width.
    side : {+1, -1}
        Which wall the samples approach.
    alpha : float, optional
        Weight tail exponent.  The candidate rates are quarter steps 0..5,
        plus (2 - alpha)/(alpha - 1) when alpha lies in (1, 2].

    Returns
    -------
    (gamma_fit, d_fit, spread)
        Best rate, its slope, and the relative fit residual
        ||fit - u|| / ||u - mean(u)||.

    Raises
    ------
    InsufficientDataError
        Fewer than 8 samples, or the wall distances span less than two
        decades (the rates are not separable from closer data).
    """
    if side not in (1, -1):
        raise ParameterError(f"side must be +1 or -1, got {side}")
    xa = np.asarray(x, dtype=float).ravel()
    ua = np.asarray(u, dtype=float).ravel()
    if xa.size != ua.size:
        raise ParameterError("x and u must have matching lengths")
    dist = b - side * xa
    if np.any(dist <= 0.0):
        raise ParameterError("samples must lie strictly inside the wall")
    if xa.size < 8:
        raise InsufficientDataError(
            f"rate fitting needs >= 8 samples, got {xa.size}")
    if float(np.max(dist) / np.min(dist)) < 100.0:
        raise InsufficientDataError(
            "rate fitting needs wall distances spanning >= 2 decades")

    denom = float(np.linalg.norm(ua - np.mean(ua)))
    if denom == 0.0:
        denom = max(float(np.linalg.norm(ua)), 1.0)

    best = None
    for gam in _default_gamma_grid(alpha):
        coef, design = _fit_psi(gam, dist, ua)
        rel = float(np.linalg.norm(design @ coef - ua)) / denom
        if best is None or rel < best[0]:
            best = (rel, float(gam), float(coef[0]))
    spread, gamma_fit, d_fit = best
    return gamma_fit, d_fit, spread
