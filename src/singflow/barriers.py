"""Explicit sub- and super-solution families for u_t = f(g(u_x) u_xx).

Each constructor returns a `BarrierFunction`: a closed-form function of
(x, t), a jet that gives its analytic first and second space derivatives and
its time derivative in one call, the location and orientation of its kinks,
and a validity horizon.  `verify_inequality` then checks the defining
differential inequality pointwise on a stratified sample, which is the
numerical stand-in for the comparison arguments these families exist to
feed.

Families
--------
Each constructor below records the label in parentheses as ``family``.
Each family supplies one ``value(x, t)`` and one ``jet(x, t)``, and those
with per-point state shared by the two compute it in one ``prep``.

h_tail          (h_tail) stationary function with prescribed wall
                divergence rates, bridged by a quintic so it is twice
                continuously differentiable.
sub_uk          (subsolution_uk) bounded sub-solutions whose wall values
                grow in time and without bound in the parameter k; a
                circular arc matched to a doubly logarithmic boundary layer.
sub_vL          (blowup_vL) sub-solutions equal to 1 at time zero that sweep
                a wave of height y^(-L) across the interval; their speed c_L
                grows with L, which is the engine of instantaneous interior
                blow-up in the fast-growth regime.
super_family    (super_L) super-solutions with a time-dependent wall
                exponent L(t) that solves a separable ODE; valid up to a
                horizon T that grows with the steepness parameter nu.
convex_envelope (convex_envelope) greatest convex minorant of sampled data
                (stationary sub-solution with piecewise-linear graph).
translate_wave  (translate_wave) exact traveling-wave solution W(x) + c t
                viewed as a barrier (residual identically zero).

The growth constants these constructions need (tail lower bounds for f and
g, admissible exponents) are never available in closed form, so they are
estimated by dense log-spaced sampling of the declared tails with a
conservative safety factor; every estimate is recorded on the returned
object and echoed in verification reports.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
import re
from dataclasses import dataclass, fields, is_dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._scalar import root
from .errors import HorizonError, ParameterError, RegimeError
from .model import ProblemSpec
from .verify import _flow, residual_values
from .wave import WaveProfile, _gl_partial

log = logging.getLogger(__name__)

# Tail constants are certified on |s| in [TAIL_LO, TAIL_HI] with TAIL_POINTS
# log-spaced samples and a multiplicative SAFETY margin (conservative
# direction), since no closed-form values exist.
TAIL_LO = 1.0
TAIL_HI = 1.0e10
TAIL_POINTS = 2001
SAFETY = 0.5

# Residual sampling.
RESIDUAL_SLACK = 1.0e-9
KINK_EXCLUSION = 1.0e-8
KINK_REDRAW_ROUNDS = 60
KINK_PROBE = 1.0e-10
KINK_SLOPE_TOL = 1.0e-12
T_STRATA = 32
EDGE_MARGIN = 1.0e-12
DEFAULT_T_CAP = 1.0
# The verifier evaluates the jet on blocks of whole strata of at most this
# many points: 10240 doubles are 80 KiB, under glibc's 128 KiB mmap
# threshold, so a block's temporaries reuse heap blocks instead of fresh
# mapped pages, and a 1e4-sample certificate (32 x 313 points) is one block.
# Per-time state is cached for this many recent times.
BLOCK_POINTS = 10240
STATE_CACHE = 2 * T_STRATA

# Super-family construction.
C4_SAFETY = 2.0
C4_D_MIN = 1.0e-8
C4_D_POINTS = 60
C4_L_POINTS = 60
C4_L_GRID_MIN = 100.0
MIDDLE_SWEEP_POINTS = 2001
# L(t) inverts the exponent's time map t(s), s = log L, by Newton started
# from a table of the map at this many points.
EXPONENT_TABLE_POINTS = 33
# The Newton roots (sub_uk's layer thickness in log form, and super_family's
# terminal exponent and L(t)) stop on a step of at most ROOT_STEP_TOL.  Near
# each root |f''/f'| <= 2 (for sub_uk, once k >= 2.85; for L(t),
# over the family's parameter range), so the error left is below
# ROOT_STEP_TOL^2, about 1e-16.
ROOT_STEP_TOL = 1.0e-8

_SIDE_PATTERN = re.compile(r"^(sub|super)_strict\(\s*([^()\s]+)\s*\)$")


@dataclass(frozen=True)
class BarrierFunction:
    """A candidate sub- or super-solution with analytic partials.

    ``eval(x, t)`` gives the value and ``jet(x, t)`` the triple (dx, dxx,
    dt); both take x and t as floats or as arrays that broadcast against
    each other (the verifier passes an (m, 1) column of times against (m, n)
    points).  Scalar x and t give a float from ``eval`` and three floats
    from ``jet``; values at an array of times equal the scalar-time calls
    bit for bit.  ``kinks`` lists (location(t), kind) pairs where kind is
    "convex" (admissible for sub-solutions) or "concave" (super-solutions);
    a location takes a float or an array of times, returns a value
    broadcastable to it, and may be nan once the kink has left the domain.
    ``valid_until`` is the time horizon (math.inf when unlimited), and
    ``domain`` the open x-interval on which eval and jet are defined.
    """

    eval: Callable[..., Any]
    jet: Callable[..., Tuple[Any, Any, Any]]
    kinks: Tuple[Tuple[Callable[..., Any], str], ...]
    valid_until: float
    family: str
    domain: Tuple[float, float] = (-math.inf, math.inf)
    params: Any = None
    # Closed-form one-sided slopes (left(t), right(t)) per kink, for kinks
    # whose slope field turns inside a layer narrower than any probe step.
    kink_slopes: Optional[Tuple[Tuple[Callable[..., Any],
                                      Callable[..., Any]], ...]] = None


@dataclass(frozen=True)
class SuperFamilyParams:
    """Constants behind a super_L construction.

    ``L`` is the wall exponent trajectory (callable on [0, T], inverting
    the time map t(L) by Newton); ``C4`` the certified ODE constant;
    ``c`` the additive drift covering the middle region.
    """

    mu: float
    L0: float
    nu: float
    c: float
    T: float
    L: Callable[[float], float]
    C4: float


def _xt(core: Callable[[np.ndarray, np.ndarray], Any]):
    """Wrap an (x array, t array) closure returning an array or a tuple of
    arrays so that x and t broadcast and scalar x and t come back as floats.
    x goes in as a float array of the broadcast shape that the closure must
    not write to (it may be the caller's array or a broadcast view); scalar
    x goes in as a 1-point array, since a 0-d result takes no item
    assignment."""

    def call(x, t):
        xs = np.asarray(x, dtype=float)
        ts = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(xs.shape, ts.shape)
        if xs.shape != shape:
            xs = np.broadcast_to(xs, shape)
        if xs.ndim:
            return core(xs, ts)
        out = core(xs.reshape(1), ts)
        if isinstance(out, tuple):
            return tuple(float(part[0]) for part in out)
        return float(out[0])

    return call


def _per_time(state: Callable[[float], Tuple[float, ...]], t,
              xs: Optional[np.ndarray] = None) -> np.ndarray:
    """Map a scalar per-time state over t, a float or an array of times.

    Each time goes through ``state`` as a Python float, so quantities that
    are Python scalar expressions keep their bits (numpy's array math
    differs from Python's ``**`` and ``math`` in the last bit).  Component
    i of the state comes back as entry i: an array shaped like t, or, given
    the points xs, broadcast to their shape so that masks over the points
    select from it.
    """
    ts = np.asarray(t, dtype=float)
    vals = np.array([state(float(s)) for s in ts.flat], dtype=float)
    if xs is None:
        return vals.T.reshape((-1,) + ts.shape)
    vals = vals.T.reshape((-1,) + (1,) * (xs.ndim - ts.ndim) + ts.shape)
    return np.broadcast_to(vals, vals.shape[:1] + xs.shape)


def _growth_rate(spec: ProblemSpec) -> float:
    """f's declared growth rate beta, which sub_vL and super_family need."""
    if spec.f.beta is None:
        raise ParameterError("this family needs a declared growth rate for f")
    return spec.f.beta


def _tail_floor(fn: Callable[[np.ndarray], np.ndarray], power: float,
                both_signs: bool) -> float:
    """min of fn(s)*|s|^power over the sampled tail, times the safety 1/2."""
    s = np.logspace(math.log10(TAIL_LO), math.log10(TAIL_HI), TAIL_POINTS)
    vals = np.asarray(fn(s), dtype=float) * s ** power
    lowest = float(np.min(vals))
    if both_signs:
        neg = np.asarray(fn(-s), dtype=float) * s ** power
        lowest = min(lowest, float(np.min(neg)))
    if not math.isfinite(lowest) or lowest <= 0.0:
        raise ParameterError(
            "tail sampling produced a nonpositive bound; the declared tail "
            "behavior does not hold on the sampled range")
    return SAFETY * lowest


# ---------------------------------------------------------------------------
# h_tail: prescribed wall rates with a quintic interior bridge
# ---------------------------------------------------------------------------


def _tail_value(gamma: float, d_coef: float, s: np.ndarray):
    """d_coef * psi_gamma(s) and its first/second derivatives in s."""
    if gamma == 0.0:
        return (-d_coef * np.log(s), -d_coef / s, d_coef / s ** 2)
    v = d_coef * s ** (-gamma)
    return (v, -gamma * v / s, gamma * (gamma + 1.0) * v / s ** 2)


def h_tail(b: float, gamma_plus: float, gamma_minus: float, d_plus: float,
           d_minus: float, b0: float) -> BarrierFunction:
    """Stationary barrier with exact divergence tails outside [-b0, b0].

    On [b0, b) the value is d_plus * psi_{gamma_plus}(b - x), mirrored on
    (-b, -b0]; in between sits the unique quintic matching value, slope and
    curvature at both junctions, so the result is twice continuously
    differentiable on the whole open interval.
    """
    if not 0.0 < b0 < b:
        raise ParameterError(f"need 0 < b0 < b, got b0 = {b0}, b = {b}")
    if gamma_plus < 0.0 or gamma_minus < 0.0:
        raise ParameterError("divergence rates must be nonnegative")
    if d_plus <= 0.0 or d_minus <= 0.0:
        raise ParameterError("rate coefficients must be positive")

    # Junction data; x-derivatives pick up the chain-rule sign of s(x).
    vp, dp1, dp2 = _tail_value(gamma_plus, d_plus, np.asarray(b - b0))
    vm, dm1, dm2 = _tail_value(gamma_minus, d_minus, np.asarray(b - b0))
    right = (float(vp), float(-dp1), float(dp2))     # s = b - x, ds/dx = -1
    left = (float(vm), float(dm1), float(dm2))       # s = b + x, ds/dx = +1

    # Quintic in the scaled variable xi = x/b0, conditions at xi = -1, +1.
    rows, rhs = [], []
    for xi, (val, sl, cu) in ((-1.0, left), (1.0, right)):
        rows.append([xi ** j for j in range(6)])
        rhs.append(val)
        rows.append([0.0] + [j * xi ** (j - 1) for j in range(1, 6)])
        rhs.append(sl * b0)
        rows.append([0.0, 0.0] + [j * (j - 1) * xi ** (j - 2)
                                  for j in range(2, 6)])
        rhs.append(cu * b0 ** 2)
    coef = np.linalg.solve(np.asarray(rows), np.asarray(rhs))
    poly = np.polynomial.Polynomial(coef)
    dpoly = poly.deriv()
    ddpoly = poly.deriv(2)

    def prep(xs: np.ndarray) -> np.ndarray:
        """Value, slope and curvature stacked on a leading axis."""
        out = np.empty((3,) + xs.shape)
        mid = np.abs(xs) <= b0
        hi = xs > b0
        lo = xs < -b0
        xi = xs[mid] / b0
        out[:, mid] = poly(xi), dpoly(xi) / b0, ddpoly(xi) / b0 ** 2
        v, d1, d2 = _tail_value(gamma_plus, d_plus, b - xs[hi])
        out[:, hi] = v, -d1, d2
        out[:, lo] = _tail_value(gamma_minus, d_minus, b + xs[lo])
        return out

    def jet(xs: np.ndarray, t):
        p = prep(xs)
        return p[1], p[2], np.zeros_like(xs)

    params = {"b": b, "b0": b0, "gamma_plus": gamma_plus,
              "gamma_minus": gamma_minus, "d_plus": d_plus,
              "d_minus": d_minus}
    return BarrierFunction(eval=_xt(lambda xs, t: prep(xs)[0]), jet=_xt(jet),
                           kinks=(), valid_until=math.inf, family="h_tail",
                           domain=(-b, b), params=params)


# ---------------------------------------------------------------------------
# subsolution_uk: bounded sub-solutions with growing wall values
# ---------------------------------------------------------------------------


def sub_uk(spec: ProblemSpec, k: float) -> BarrierFunction:
    """Bounded sub-solution: circular arc core, log-log boundary layer.

    The layer occupies (x(k,t), b] with x(k, 0) = b (pure arc at time zero)
    and x(k, t) decreasing to b - y_k.  Wall values grow linearly in time at
    speed f(-M log y_k), which diverges as k grows: the mechanism that
    forces infinite boundary data in the limit.  Kinks at +-x(k, t) are
    convex, with the arc and layer slopes both equal to k at time zero.
    """
    if k <= 0.0:
        raise ParameterError(f"k must be positive, got {k}")
    alpha = spec.g.alpha
    if alpha > 2.0:
        raise RegimeError(
            f"this family needs weight decay alpha <= 2, got {alpha}")
    b = spec.b

    # Certified tail floor: g(s) >= 2 M |s|^-2 on the sampled range.
    m_floor = 0.5 * _tail_floor(spec.g.eval, 2.0, both_signs=True)

    # The layer thickness y_k solves y log y = -1/k.  In u = log y the
    # equation below increases on u <= -1, and u = -log k - log log k lies
    # right of its root.
    def layer(u: float) -> float:
        return -(u * math.exp(u) + 1.0 / k)

    if layer(-1.0) < 0.0:
        raise ParameterError(
            f"k = {k} is too small for the boundary-layer root (need the "
            "layer thickness equation solvable, k >= e)")
    u_lo = math.log(1e-300)
    log_yk = root(layer, u_lo, -1.0,
                  x0=max(-math.log(k) - math.log(math.log(k)), u_lo),
                  slope=lambda u: -(u + 1.0) * math.exp(u),
                  tol=ROOT_STEP_TOL)
    y_k = math.exp(log_yk)
    if y_k >= b:
        raise ParameterError(
            f"layer thickness y_k = {y_k:.3g} does not fit in half-width "
            f"b = {b}; increase k")

    try:
        r_k = b * math.sqrt(1.0 + 1.0 / k ** 2)
    except OverflowError:
        raise ParameterError(
            f"k = {k:g} is too large: k^2 overflows a float") from None
    speed = float(np.asarray(spec.f.eval(-m_floor * log_yk), dtype=float))
    log.info("sub_uk: k = %g, y_k = %.6g, M = %.6g, wall speed = %.6g",
             k, y_k, m_floor, speed)

    @functools.lru_cache(maxsize=STATE_CACHE)
    def state(t: float):
        """Scalar time-dependent quantities, overflow-guarded."""
        grow = speed * t
        big_e = -log_yk * math.exp(grow) if grow < 700.0 else math.inf
        e_neg = math.exp(-big_e) if big_e < 700.0 else 0.0
        # d/dt exp(-E) = -speed * E * exp(-E); E exp(-E) underflows cleanly.
        e_term = big_e * e_neg if big_e < 700.0 else 0.0
        x_k = e_neg + b - y_k
        dx_k = -speed * e_term
        # x_k <= b keeps the arc at least b/k tall, but once 1/k^2 is below
        # the float resolution (k >~ 1e8) rounding can cancel it at t = 0.
        arc = math.sqrt(max(r_k ** 2 - x_k ** 2, (b / k) ** 2))
        return big_e, e_neg, x_k, dx_k, arc, x_k * dx_k / arc

    def prep(xs: np.ndarray, t):
        """Region masks, and the layer variables and per-time state on the
        outer part."""
        big_e, e_neg, x_k, dx_k, arc, arc_rate = _per_time(state, t, xs)
        outer = np.abs(xs) > x_k
        gap = np.maximum(b - np.abs(xs[outer]), 0.0)
        with np.errstate(divide="ignore"):
            log_xi = np.logaddexp(-big_e[outer], np.log(gap))
        return SimpleNamespace(outer=outer, mid=~outer,
                               xi=e_neg[outer] + gap, log_xi=log_xi,
                               arc=arc[outer], dx_k=dx_k[outer],
                               arc_rate=arc_rate[outer])

    def value(xs: np.ndarray, t) -> np.ndarray:
        p = prep(xs, t)
        out = np.empty_like(xs)
        out[p.mid] = -np.sqrt(r_k ** 2 - xs[p.mid] ** 2)
        out[p.outer] = np.log(p.log_xi / log_yk) - p.arc
        return out

    def jet(xs: np.ndarray, t):
        p = prep(xs, t)
        dx, dxx, dt = np.empty_like(xs), np.empty_like(xs), np.zeros_like(xs)
        dx[p.mid] = xs[p.mid] / np.sqrt(r_k ** 2 - xs[p.mid] ** 2)
        dx[p.outer] = np.sign(xs[p.outer]) * (-1.0) / (p.xi * p.log_xi)
        dxx[p.mid] = r_k ** 2 / (r_k ** 2 - xs[p.mid] ** 2) ** 1.5
        dxx[p.outer] = -(p.log_xi + 1.0) / (p.xi * p.log_xi) ** 2
        dt[p.outer] = p.dx_k / (p.xi * p.log_xi) + p.arc_rate
        return dx, dxx, dt

    def kink_loc(sign: float):
        return lambda t: sign * _per_time(state, t)[2]

    params = {"k": k, "y_k": y_k, "r_k": r_k, "M": m_floor, "s0": TAIL_LO,
              "wall_speed": speed,
              "note": "tail bound certified on the sampled range only"}
    return BarrierFunction(eval=_xt(value), jet=_xt(jet),
                           kinks=((kink_loc(1.0), "convex"),
                                  (kink_loc(-1.0), "convex")),
                           valid_until=math.inf, family="subsolution_uk",
                           domain=(-b, b), params=params)


# ---------------------------------------------------------------------------
# blowup_vL: unit initial data, wave of height y^-L, speed growing in L
# ---------------------------------------------------------------------------


def _vl_conditions(length: float, b: float, alpha: float, m_g: float,
                   l_g: float, l_f: float) -> bool:
    slope_ok = length / (2.0 * b) >= l_g
    arg_ok = (m_g * (2.0 * b) ** (alpha - 2.0)
              * length ** (1.0 - alpha) * (length + 1.0) >= 2.0 * l_f)
    return slope_ok and arg_ok


def sub_vL(spec: ProblemSpec, L: float) -> BarrierFunction:
    """Sub-solution equal to 1 at t = 0 whose wall wave steepens with L.

    Only admissible in the fast-growth regime (alpha < 1 and
    beta >= 1/(1-alpha)).  The wave region carries value yhat^-L with
    yhat = (3b - x)/(2b) - c_L min(t, 1/c_L); the front x = b - 2b c_L t is
    a convex kink that crosses the interval in time 1/c_L, after which the
    barrier is stationary.  c_L grows like L^(2 beta - alpha beta - 1), so
    interior values blow up along L -> infinity.
    """
    alpha = spec.g.alpha
    beta = _growth_rate(spec)
    if alpha >= 1.0 or beta < 1.0 / (1.0 - alpha):
        raise RegimeError(
            f"needs alpha < 1 and beta >= 1/(1-alpha); got alpha = {alpha}, "
            f"beta = {beta}")
    b = spec.b

    m_g = _tail_floor(spec.g.eval, alpha, both_signs=True)
    m_f = _tail_floor(spec.f.eval, -beta, both_signs=False)
    l_g = 1.0
    l_f = 1.0

    l_min = 1.0
    while not _vl_conditions(l_min, b, alpha, m_g, l_g, l_f):
        l_min *= 2.0
        if l_min > 1e12:
            raise ParameterError(
                "no admissible wave exponent below 1e12; tail constants "
                "too weak")
    if L < l_min:
        raise ParameterError(
            f"wave exponent L = {L} is below the smallest admissible value "
            f"{l_min:g} for these nonlinearities")

    c_l = (m_f * m_g ** beta * L ** (2.0 * beta - alpha * beta - 1.0)
           / (2.0 ** beta * (2.0 * b) ** ((2.0 - alpha) * beta)))
    t_cross = 1.0 / c_l
    log.info("sub_vL: L = %g, M_g = %.6g, M_f = %.6g, c_L = %.6g",
             L, m_g, m_f, c_l)

    def moved(t: float):
        return c_l * min(t, t_cross), float(t < t_cross)

    def prep(xs: np.ndarray, t):
        """yhat, the wave mask, yhat on the wave, and where the front still
        moves."""
        shift, moving = _per_time(moved, t, xs)
        y = (3.0 * b - xs) / (2.0 * b) - shift
        wave = y < 1.0
        return SimpleNamespace(y=y, wave=wave, y_wave=y[wave],
                               sweep=wave & (moving > 0.0))

    # Powers y^(-L-2) overflow to inf close to the wall for large L; inf is
    # the honest value there, so the warning is silenced.
    def value(xs: np.ndarray, t) -> np.ndarray:
        p = prep(xs, t)
        out = np.ones_like(p.y)
        with np.errstate(over="ignore"):
            out[p.wave] = p.y_wave ** (-L)
        return out

    def jet(xs: np.ndarray, t):
        p = prep(xs, t)
        dx, dxx, dt = (np.zeros_like(p.y) for _ in range(3))
        with np.errstate(over="ignore"):
            slope_power = p.y_wave ** (-L - 1.0)
            dx[p.wave] = (L / (2.0 * b)) * slope_power
            dxx[p.wave] = ((L * (L + 1.0) / (4.0 * b ** 2))
                           * p.y_wave ** (-L - 2.0))
            dt[p.sweep] = L * c_l * slope_power[p.sweep[p.wave]]
        return dx, dxx, dt

    def front(t):
        ts = np.asarray(t, dtype=float)
        inside = (ts > 0.0) & (ts < t_cross)
        return np.where(inside, b - 2.0 * b * c_l * ts, math.nan)

    params = {"L": L, "L0": l_min, "c_L": c_l, "M_g": m_g, "M_f": m_f,
              "L_g": l_g, "L_f": l_f,
              "note": "tail bounds certified on the sampled range only"}
    return BarrierFunction(eval=_xt(value), jet=_xt(jet),
                           kinks=((front, "convex"),),
                           valid_until=math.inf, family="blowup_vL",
                           domain=(-b, b), params=params)


# ---------------------------------------------------------------------------
# super_L: time-dependent wall exponent driven by an ODE
# ---------------------------------------------------------------------------


def super_mu(alpha: float, beta: float) -> float:
    """Auxiliary exponent max{0, (beta(2-alpha)-1)/(1-beta(1-alpha))}."""
    den = 1.0 - beta * (1.0 - alpha)
    if den <= 0.0:
        raise RegimeError(
            f"exponent undefined: needs beta(1-alpha) < 1, got alpha = "
            f"{alpha}, beta = {beta}")
    return max(0.0, (beta * (2.0 - alpha) - 1.0) / den)


def super_family(spec: ProblemSpec, v0, L0: float, nu: float
                 ) -> BarrierFunction:
    """Super-solution with steepening wall layers, valid up to a horizon T.

    The family dominates the zero datum: ``v0`` must be None, and anything
    else raises ParameterError (the argument keeps its place for positional
    callers).  The wall layers carry L(t)^mu (2 - 2|x|/b)^(-L(t)), where
    L(t) solves L'(t) = C4 L^(beta(1-alpha)(1+mu)-mu) (L+1)^beta from
    L(0) = L0; the ODE is separable, so L(t) inverts its time map
    t(L) = int dl / L'(l) from L0.  The middle piece is a shallow circular
    arc of steepness sqrt(nu).  The horizon T = t(l_max) is where the kink
    admissibility at |x| = 2b/3 would fail; it grows without bound in nu.
    C4 and the drift constant c are certified by dense sweeps of
    f(2 g(v_x) v_xx) with a factor-2 margin and recorded on the returned
    parameters.
    """
    alpha = spec.g.alpha
    beta = _growth_rate(spec)
    if not (alpha == 1.0 or (alpha < 1.0 and beta < 1.0 / (1.0 - alpha))):
        raise RegimeError(
            f"needs alpha = 1, or alpha < 1 with beta < 1/(1-alpha); got "
            f"alpha = {alpha}, beta = {beta}")
    b = spec.b
    mu = super_mu(alpha, beta)

    if v0 is not None:
        raise ParameterError(
            "v0 must be None: the family dominates the zero datum only")

    den = 1.0 - beta * (1.0 - alpha)
    l0_bound = max((1.0 - beta * (1.0 - alpha)) / (beta * (2.0 - alpha)),
                   beta * (2.0 - alpha) / den)
    if L0 <= l0_bound:
        raise ParameterError(
            f"initial exponent L0 = {L0} must exceed {l0_bound:.6g} for "
            "these growth rates")

    c_star = max(8.0 * b / 9.0, 16.0 / 9.0, 4.0 / b ** 2)
    log_15 = math.log(1.5)

    def log_steepness_needed(length: float) -> float:
        """log of c* L^(2 mu + 2) 1.5^(2 L + 2), the arc steepness the
        junction needs at exponent L."""
        return (math.log(c_star) + (2.0 * mu + 2.0) * math.log(length)
                + (2.0 * length + 2.0) * log_15)

    log_need_l0 = log_steepness_needed(L0)
    if not 0.0 < nu < math.inf or math.log(nu) <= log_need_l0:
        raise ParameterError(
            f"steepness nu = {nu:g} must be finite with log nu above "
            f"{log_need_l0:.6g} for L0 = {L0}")

    # Terminal exponent: where the kink-admissibility reserve is used up.
    # At the closed-form top the need is nu times top^(2 mu + 2) > 1.
    log_nu = math.log(nu)
    top = (log_nu - math.log(c_star)) / (2.0 * log_15) - 1.0
    l_max = root(lambda ln: log_steepness_needed(ln) - log_nu, L0, top,
                 slope=lambda ln: (2.0 * mu + 2.0) / ln + 2.0 * log_15,
                 tol=ROOT_STEP_TOL)

    root_nu = math.sqrt(nu)
    two_thirds = 2.0 * b / 3.0
    # nu * nu, unlike nu ** 2, overflows to inf rather than raising.
    r_arc_sq = two_thirds ** 2 + two_thirds ** 2 / (nu * nu)
    a_exp = beta * (1.0 - alpha) * (1.0 + mu) - mu

    def arc_gap_sq(xs: np.ndarray) -> np.ndarray:
        # r_arc^2 - x^2 in a cancellation-free form: for nu beyond 1e8 the
        # naive difference rounds to zero at the junctions.
        return ((two_thirds - xs) * (two_thirds + xs)
                + two_thirds ** 2 / (nu * nu))

    # C4 certification sweep over (exponent, wall distance) in one array
    # pass, exponents down the rows.  The exponent grid top is held at a
    # fixed floor so sweeps for nested nu ranges share the constant, keeping
    # T strictly monotone in nu.
    d_grid = np.logspace(math.log10(C4_D_MIN), math.log10(2.0 / 3.0),
                         C4_D_POINTS)
    l_grid = np.logspace(math.log10(L0),
                         math.log10(max(2.0 * l_max, C4_L_GRID_MIN)),
                         C4_L_POINTS)
    # Per-exponent factors are Python float powers, since numpy's array pow
    # may differ from the scalar one in the last bit.
    ells = l_grid.tolist()
    l_mu1 = np.array([ln ** (mu + 1.0) for ln in ells])[:, None]
    l_denom = np.array([ln ** (beta * (1.0 - alpha) * (1.0 + mu))
                        * (ln + 1.0) ** beta for ln in ells])[:, None]
    lengths = l_grid[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vx = (2.0 / b) * l_mu1 * d_grid ** (-lengths - 1.0)
        vxx = ((4.0 / b ** 2) * l_mu1 * (lengths + 1.0)
               * d_grid ** (-lengths - 2.0))
        rhs = _flow(spec.f, spec.g, vx.ravel(), vxx.ravel(), 2.0)
        ratios = (rhs.reshape(vx.shape) * d_grid ** lengths
                  / (l_denom * np.log(1.0 / d_grid)))
    # Entries past float range have a positive d-exponent (the closed
    # admissibility condition), so their true value tends to zero; dropping
    # the non-finite ones is conservative.
    ratio_max = float(np.max(ratios[np.isfinite(ratios)], initial=0.0))
    c4 = C4_SAFETY * ratio_max

    # Drift constant covering the middle region (time-independent there).
    xs_mid = np.linspace(-two_thirds, two_thirds, MIDDLE_SWEEP_POINTS)
    gap_sq = arc_gap_sq(xs_mid)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fmid = _flow(spec.f, spec.g, xs_mid / (root_nu * np.sqrt(gap_sq)),
                     r_arc_sq / (root_nu * gap_sq ** 1.5), 2.0)
    if not np.all(np.isfinite(fmid)):
        raise ParameterError(
            "middle-region drift estimate overflowed; steepness nu is too "
            "large for these nonlinearities")
    drift = max(2.0 * float(np.max(np.abs(fmid))), 1.0)

    def rate(length):
        return c4 * length ** a_exp * (length + 1.0) ** beta

    # The exponent ODE L' = rate(L) is autonomous, so its time map is the
    # integral t(L) = int L / rate(L) d(log L) from L0, one 24-node panel in
    # log L: the integrand's nearest singularity is pi off the real axis,
    # and a float nu keeps log(l_max / L0) below 7.
    s0, s_top = math.log(L0), math.log(l_max)

    def slope(s):
        ells = np.exp(s)
        return ells / rate(ells)

    def time_to(s):
        return _gl_partial(slope, s0, s)

    horizon = float(time_to(s_top))
    if not 0.0 < horizon < math.inf:
        raise ParameterError(
            f"horizon T = {horizon!r} is not finite and positive (C4 = "
            f"{c4!r}); parameters are outside the family's workable range")
    s_table = np.linspace(s0, s_top, EXPONENT_TABLE_POINTS)
    t_table = time_to(s_table)
    log.info("super_family: mu = %g, L0 = %g, nu = %g, C4 = %.6g, "
             "c = %.6g, T = %.6g, L(T) = %.6g", mu, L0, nu, c4, drift,
             horizon, l_max)

    @functools.lru_cache(maxsize=STATE_CACHE)
    def exponent(t: float) -> float:
        # Newton in s = log L, started by linear interpolation in the table.
        return math.exp(root(lambda s: time_to(s) - t, s0, s_top,
                             x0=float(np.interp(t, t_table, s_table)),
                             slope=slope, tol=ROOT_STEP_TOL))

    def exponent_at(t: float) -> float:
        t = float(t)
        if t < 0.0 or t > horizon:
            raise HorizonError(
                f"t = {t:.6g} outside the validity window [0, "
                f"{horizon:.6g}]")
        return exponent(t)

    offset = L0 ** mu * 1.5 ** L0

    def state(t: float):
        """Per-time scalars, each the Python expression the formulas in
        value and jet below once evaluated at a scalar time."""
        length = exponent_at(t)
        if t == horizon:
            raise HorizonError(f"the drift 1/(T - t) is infinite at the "
                               f"horizon t = T = {horizon:.6g}")
        l_mu = length ** mu
        l_mu1 = length ** (mu + 1.0)
        dl_dt = rate(length)
        mu_term = mu * length ** (mu - 1.0) if mu > 0.0 else 0.0
        return (length, l_mu, l_mu1, (4.0 / b ** 2) * l_mu1 * (length + 1.0),
                dl_dt, mu_term,
                drift * t + 1.0 / (horizon - t) - 1.0 / horizon - offset,
                drift + 1.0 / (horizon - t) ** 2,
                l_mu * 1.5 ** length,
                dl_dt * 1.5 ** length * (mu_term + l_mu * math.log(1.5)))

    def prep(xs: np.ndarray, t):
        """Region masks, d = 2 - 2|x|/b outside, and the per-time state at
        the points of the region it serves."""
        (length, l_mu, l_mu1, coef, rate, mu_term, tail, base, junction,
         mid_rate) = _per_time(state, t, xs)
        outer = np.abs(xs) >= 2.0 * b / 3.0
        mid = ~outer
        return SimpleNamespace(
            outer=outer, mid=mid, d=2.0 - 2.0 * np.abs(xs[outer]) / b,
            length=length[outer], l_mu=l_mu[outer], l_mu1=l_mu1[outer],
            coef=coef[outer], rate=rate[outer], mu_term=mu_term[outer],
            tail=tail, base=base, junction=junction[mid],
            mid_rate=mid_rate[mid])

    # Outside |x| < 2b/3 the layer L^mu d^(-L); inside the arc plus the
    # layer's value at the junction; `tail` is the common time drift.
    def value(xs: np.ndarray, t) -> np.ndarray:
        p = prep(xs, t)
        out = np.array(p.tail)
        out[p.outer] += p.l_mu * p.d ** (-p.length)
        out[p.mid] += (-np.sqrt(arc_gap_sq(xs[p.mid])) / root_nu
                       + 2.0 * b / (3.0 * nu * root_nu) + p.junction)
        return out

    def jet(xs: np.ndarray, t):
        p = prep(xs, t)
        gap_sq = arc_gap_sq(xs[p.mid])
        dx, dxx, dt = np.zeros_like(xs), np.zeros_like(xs), np.array(p.base)
        dx[p.outer] += (np.sign(xs[p.outer]) * (2.0 / b) * p.l_mu1
                        * p.d ** (-p.length - 1.0))
        dx[p.mid] += xs[p.mid] / (root_nu * np.sqrt(gap_sq))
        dxx[p.outer] += p.coef * p.d ** (-p.length - 2.0)
        dxx[p.mid] += r_arc_sq / (root_nu * gap_sq ** 1.5)
        dt[p.outer] += (p.rate * p.d ** (-p.length)
                        * (p.mu_term + p.l_mu * np.log(1.0 / p.d)))
        dt[p.mid] += p.mid_rate
        return dx, dxx, dt

    params = SuperFamilyParams(mu=mu, L0=L0, nu=nu, c=drift, T=horizon,
                               L=exponent_at, C4=c4)
    kinks = ((lambda t: 2.0 * b / 3.0, "concave"),
             (lambda t: -2.0 * b / 3.0, "concave"))

    # Closed-form one-sided slopes at the junctions.  The arc slope climbs
    # to sqrt(nu) inside a layer of width about b/nu^2, far below any probe
    # step, so a finite-difference check there would understate the margin.
    def outer_slope_at(t: float):
        length, _, l_mu1 = state(t)[:3]
        return ((2.0 / b) * l_mu1 * 1.5 ** (length + 1.0),)

    def outer_slope(t):
        return _per_time(outer_slope_at, t)[0]

    kink_slopes = (
        (lambda t: root_nu, outer_slope),
        (lambda t: -outer_slope(t), lambda t: -root_nu),
    )
    return BarrierFunction(eval=_xt(value), jet=_xt(jet), kinks=kinks,
                           valid_until=horizon, family="super_L",
                           domain=(-b, b), params=params,
                           kink_slopes=kink_slopes)


# ---------------------------------------------------------------------------
# convex_envelope and translate_wave
# ---------------------------------------------------------------------------


def convex_envelope(x, values) -> BarrierFunction:
    """Greatest convex minorant of sampled data, as a stationary barrier.

    Monotone-chain construction; the result is piecewise linear with zero
    curvature almost everywhere and convex kinks at the hull vertices, so
    it is always an admissible stationary sub-solution.
    """
    xs = np.asarray(x, dtype=float)
    vals = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != vals.shape or xs.size < 2:
        raise ParameterError("need matching 1-d arrays with >= 2 points")
    if np.any(np.diff(xs) <= 0.0):
        raise ParameterError("sample abscissae must be strictly increasing")
    if not np.all(np.isfinite(vals)):
        raise ParameterError("sampled values must be finite")

    hull: List[Tuple[float, float]] = []
    for px, py in zip(xs, vals):
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                hull.pop()
            else:
                break
        hull.append((float(px), float(py)))
    hx = np.asarray([p[0] for p in hull])
    hy = np.asarray([p[1] for p in hull])
    slopes = np.diff(hy) / np.diff(hx)

    def value(q: np.ndarray, t) -> np.ndarray:
        return np.interp(q, hx, hy)

    def jet(q: np.ndarray, t):
        idx = np.clip(np.searchsorted(hx, q, side="right") - 1, 0,
                      slopes.size - 1)
        return slopes[idx], np.zeros_like(q), np.zeros_like(q)

    def make_loc(xv: float):
        return lambda t: xv

    kinks = tuple((make_loc(float(hx[j])), "convex")
                  for j in range(1, hx.size - 1))
    params = {"n_input": int(xs.size), "n_vertices": int(hx.size)}
    return BarrierFunction(eval=_xt(value), jet=_xt(jet), kinks=kinks,
                           valid_until=math.inf, family="convex_envelope",
                           domain=(float(hx[0]), float(hx[-1])), params=params)


def translate_wave(profile: WaveProfile, spec: ProblemSpec,
                   shift: float = 0.0) -> BarrierFunction:
    """The exact traveling solution W(x) + c t + shift as a barrier.

    Its residual vanishes identically (the curvature in its jet is derived
    from the quadrature identity g(W_x) W_xx = f^{-1}(c), so no numerical
    differentiation enters), which makes it the calibration case for
    verify_inequality: it must pass as both a sub- and a super-solution.
    """
    if abs(profile.b - spec.b) > 1e-12 * max(1.0, spec.b):
        raise ParameterError(
            f"profile half-width {profile.b} does not match the problem "
            f"half-width {spec.b}")
    q = profile.f_inv_c

    def value(xs: np.ndarray, t) -> np.ndarray:
        return np.asarray(profile.w(xs), dtype=float) + profile.c * t + shift

    def jet(xs: np.ndarray, t):
        # One slope inversion serves both space derivatives.
        slope = np.asarray(profile.wx(xs), dtype=float)
        return (slope, q / np.asarray(spec.g.eval(slope), dtype=float),
                np.full_like(xs, profile.c))

    params = {"c": profile.c, "shift": shift}
    return BarrierFunction(eval=_xt(value), jet=_xt(jet), kinks=(),
                           valid_until=math.inf, family="translate_wave",
                           domain=(-profile.b, profile.b), params=params)


# ---------------------------------------------------------------------------
# verify_inequality
# ---------------------------------------------------------------------------


def _parse_side(side: str) -> Tuple[str, float, int, bool]:
    """Return (label, factor, orientation, check_dt_sign)."""
    name, delta = str(side).strip(), None
    m = _SIDE_PATTERN.match(name)
    if m:
        name = m.group(1) + "_strict"
        delta = float(m.group(2))
    if name == "sub":
        return "sub", 1.0, -1, False
    if name == "super":
        return "super", 1.0, +1, False
    if name == "sub_strict":
        if delta is None or delta < 0.0:
            raise ParameterError("sub_strict needs a nonnegative margin")
        return f"sub_strict({delta:g})", 1.0 / (1.0 + delta), -1, False
    if name == "super_strict":
        if delta is None or delta < 0.0:
            raise ParameterError("super_strict needs a nonnegative margin")
        return f"super_strict({delta:g})", 1.0 + delta, +1, True
    raise ParameterError(
        f"unknown side {side!r}; expected sub, super, sub_strict(d) or "
        "super_strict(d)")


def _kink_checks(bf: BarrierFunction, times: np.ndarray,
                 locs: Sequence[np.ndarray], x_lo: float, x_hi: float,
                 probe: float) -> List[Dict]:
    """One-sided slope check of each kink at every stratum time it sits
    inside the domain, reporting the worst time: the first nan margin if
    there is one, else the first smallest margin."""
    checks: List[Dict] = []
    for idx, ((_, kind), xk) in enumerate(zip(bf.kinks, locs)):
        inside = np.isfinite(xk) & (x_lo + 2.0 * probe < xk) \
            & (xk < x_hi - 2.0 * probe)
        if not inside.any():
            continue
        ts, xk = times[inside], xk[inside]
        analytic = bf.kink_slopes is not None and idx < len(bf.kink_slopes)
        if analytic:
            left, right = (np.broadcast_to(np.asarray(fn(ts), dtype=float),
                                           ts.shape)
                           for fn in bf.kink_slopes[idx])
        else:
            sides = np.stack([xk - probe, xk + probe], axis=1)
            both = np.asarray(bf.jet(sides, ts[:, None])[0], dtype=float)
            left, right = both[:, 0], both[:, 1]
        margins = (right - left) if kind == "convex" else (left - right)
        i = int(np.argmin(margins))
        entry = {"kink": idx, "kind": kind, "t": float(ts[i]),
                 "x": float(xk[i]), "left_slope": float(left[i]),
                 "right_slope": float(right[i]),
                 "margin": float(margins[i]), "analytic": analytic}
        scale = max(1.0, abs(entry["left_slope"]), abs(entry["right_slope"]))
        entry["pass"] = bool(entry["margin"] >= -KINK_SLOPE_TOL * scale)
        checks.append(entry)
    return checks


def _redraw_near_kinks(xs: np.ndarray, locs: Sequence[float], rng,
                       x_lo: float, x_hi: float, t: float) -> None:
    """Redraw, within their own bins, the points of one stratum that lie
    within KINK_EXCLUSION of a kink; warn if some are left after the last
    round."""
    n_x = xs.size
    for _ in range(KINK_REDRAW_ROUNDS):
        near = _near_kinks(xs, locs)
        if not near.any():
            return
        redraw = (np.flatnonzero(near) + rng.random(int(near.sum()))) / n_x
        xs[near] = x_lo + (x_hi - x_lo) * redraw
    n_near = int(_near_kinks(xs, locs).sum())
    if n_near:
        log.warning("kink redraws exhausted at t = %.9g: %d of %d points "
                    "stay within %g of a kink", t, n_near, n_x,
                    KINK_EXCLUSION)


def _near_kinks(xs: np.ndarray, locs: Sequence[float]) -> np.ndarray:
    near = np.zeros(xs.shape, dtype=bool)
    for xk in locs:
        near |= np.abs(xs - xk) <= KINK_EXCLUSION
    return near


def scalar_params(params) -> Dict[str, Any]:
    """The number and string entries of a barrier's ``params`` (a dict or a
    dataclass such as `SuperFamilyParams`), in their declared order."""
    if is_dataclass(params):
        items = [(field.name, getattr(params, field.name))
                 for field in fields(params)]
    elif isinstance(params, dict):
        items = list(params.items())
    else:
        return {}
    return {key: val for key, val in items
            if isinstance(val, (int, float, str))}


def verify_inequality(bf: BarrierFunction, spec: ProblemSpec, side,
                      samples: int, t_window: Optional[Tuple[float, float]]
                      = None, seed: int = 0) -> Dict:
    """Check the barrier's differential inequality on a stratified sample.

    The residual dt - f(factor * g(dx) * dxx) must be <= 0 for sub sides
    and >= 0 for super sides, within an absolute slack of 1e-9; the factor
    is 1/(1+delta) for sub_strict(delta) and (1+delta) for
    super_strict(delta), which also requires dt >= -slack (the
    nonnegative-speed form).  Sampling is stratified over 32 time slices
    and space bins, from two generators seeded by ``seed`` (a non-negative
    integer): one draws the 32 slice times and then each block's bins in
    slice order, the other the kink redraws in slice order.  Points keep
    an exclusion radius of 1e-8 around kinks (redrawing at most 60 times,
    then logging a warning for points still inside it).  The jet then runs
    on blocks of whole slices of at most BLOCK_POINTS points, (m, n)
    points against an (m, 1) column of times: one block for 1e4 samples,
    11 for 1e5, each small enough that its temporaries stay off freshly
    mapped pages.  Every slice is computed independently of its block and
    a block's draws continue the same stream, so the block size never
    changes a report.  The worst residual is taken per slice and then over
    the slices in order.  Every kink inside the domain gets a one-sided
    slope check at all slice times in one call; it reports the first nan
    margin if any (which fails the check), else the first smallest one.
    Time slices run over ``t_window`` (default: up to min(horizon, 1));
    windows beyond the validity horizon raise a horizon error.
    """
    for name, value, low in (("samples", samples, 1000), ("seed", seed, 0)):
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < low):
            raise ParameterError(
                f"{name} must be an integer >= {low}, got {value!r}")
    label, factor, orientation, check_dt = _parse_side(side)

    hi_default = bf.valid_until
    if math.isfinite(hi_default):
        hi_default = hi_default * (1.0 - 1e-3)
    t_lo, t_hi = t_window if t_window is not None else \
        (0.0, min(hi_default, DEFAULT_T_CAP))
    if t_hi > bf.valid_until:
        raise HorizonError(
            f"time window up to {t_hi:g} exceeds the validity horizon "
            f"{bf.valid_until:g}")
    if not (0.0 <= t_lo < t_hi):
        raise ParameterError(f"bad time window ({t_lo}, {t_hi})")

    x_lo = max(-spec.b, bf.domain[0])
    x_hi = min(spec.b, bf.domain[1])
    margin = EDGE_MARGIN * max(1.0, x_hi - x_lo)
    x_lo, x_hi = x_lo + margin, x_hi - margin
    if x_hi <= x_lo:
        raise ParameterError("barrier domain does not overlap the problem "
                             "domain")

    # One stream draws the stratum times, then every stratum's bins in
    # stratum order, one block at a time; a second serves the kink redraws,
    # also in stratum order.  A block-sized draw from one stream gives the
    # same numbers whatever the block split.
    n_t = T_STRATA
    n_x = -(-samples // n_t)
    draws, redraws = (np.random.default_rng(stream) for stream
                      in np.random.SeedSequence(seed).spawn(2))
    times = t_lo + (t_hi - t_lo) * (np.arange(n_t) + draws.random(n_t)) / n_t
    locs = [np.broadcast_to(np.asarray(loc(times), dtype=float), times.shape)
            for loc, _ in bf.kinks]

    # Blocks of whole strata: their points, then the residual and its
    # extremes per stratum; Python max/min over the strata in order below.
    results = []
    per_block = max(1, BLOCK_POINTS // n_x)
    for start in range(0, n_t, per_block):
        stop = min(start + per_block, n_t)
        block = x_lo + (x_hi - x_lo) * (
            (np.arange(n_x) + draws.random((stop - start, n_x))) / n_x)
        block_locs = [xk[start:stop, None] for xk in locs]
        for r in np.flatnonzero(_near_kinks(block, block_locs).any(axis=1)):
            _redraw_near_kinks(block[r], [xk[r, 0] for xk in block_locs],
                               redraws, x_lo, x_hi, float(times[start + r]))
        dxv, dxxv, dtv = bf.jet(block, times[start:stop, None])
        dtv = np.asarray(dtv, dtype=float)
        # Barriers may legitimately reach inf near a wall or front; an
        # inf - inf there yields nan, which argmax/argmin treat as extreme
        # within a stratum.
        with np.errstate(over="ignore", invalid="ignore"):
            res = residual_values(spec.f, spec.g, dtv, dxv, dxxv, factor)
        dt_low = np.min(dtv, axis=1)
        for r, (hi, lo) in enumerate(zip(np.argmax(res, axis=1),
                                         np.argmin(res, axis=1))):
            results.append((float(times[start + r]), res[r, hi],
                            block[r, hi], res[r, lo], block[r, lo],
                            float(dt_low[r]), n_x))

    worst_hi = max(results, key=lambda r: r[1])
    worst_lo = min(results, key=lambda r: r[3])
    dt_min = min(r[5] for r in results)
    total = sum(r[6] for r in results)

    if orientation < 0:
        worst_res, worst_point = worst_hi[1], (worst_hi[2], worst_hi[0])
        residual_ok = worst_res <= RESIDUAL_SLACK
    else:
        worst_res, worst_point = worst_lo[3], (worst_lo[4], worst_lo[0])
        residual_ok = worst_res >= -RESIDUAL_SLACK

    probe = KINK_PROBE * max(1.0, spec.b)
    kink_checks = _kink_checks(bf, times, locs, x_lo, x_hi, probe)
    kinks_ok = all(entry["pass"] for entry in kink_checks)
    dt_ok = (dt_min >= -RESIDUAL_SLACK) if check_dt else True

    report = {
        "family": bf.family,
        "side": label,
        "n_samples": total,
        "worst_residual": float(worst_res),
        "worst_point": (float(worst_point[0]), float(worst_point[1])),
        "kink_checks": kink_checks,
        "constant_estimates": {
            key: val for key, val in scalar_params(bf.params).items()
            if not isinstance(val, str)},
        "pass": bool(residual_ok and kinks_ok and dt_ok),
    }
    if check_dt:
        report["dt_min"] = float(dt_min)
    return report
