"""Core parameterizations for the singular diffusion flow u_t = f(g(u_x) u_xx).

The model layer owns the three ingredient types and their validation:

* ``Nonlinearity``   -- the outer function f: strictly increasing, f(0) = 0,
  with optional power-growth data (beta, cf_plus, cf_minus) describing
  |s|^(-beta) f(s) -> +-cf as s -> +-infinity.
* ``DiffusionWeight`` -- the gradient weight g > 0 with tail exponent alpha
  and tail constants cg_plus, cg_minus for |s|^alpha g(s) -> cg as s -> +-inf.
* ``InitialDatum``   -- one of three boundary classes on (-b, b):
  ``B1`` bounded up to the endpoints, ``B2`` diverging with a power bound,
  ``B3`` diverging with an exact leading term D * psi_gamma(dist) + Chat.

Declared asymptotics are never trusted: constructors sample the tails and the
boundary layers and reject inconsistent declarations.  All callables are
expected to accept numpy arrays (every preset does); user-supplied scalar-only
callables still work for the scalar code paths, including inverse lookup.

All types are frozen dataclasses; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._scalar import root
from .errors import DomainError, ParameterError

# Tail declarations are checked at these magnitudes; the ratio must approach
# the declared constant monotonically and land within TAIL_RTOL at the last.
TAIL_SAMPLES = (1.0e4, 1.0e6, 1.0e8)
TAIL_RTOL = 0.05

# Boundary-layer certificates sample x = b - 2^{-j}.
CERT_J_LO = 10
CERT_J_HI = 40
CERT_WINDOW = 5
CERT_RTOL = 0.02

# Monotonicity / positivity sampling grid for f and g.
_SAMPLE_GRID = np.concatenate([
    -np.logspace(6, -6, 49), [0.0], np.logspace(-6, 6, 49),
])


def check_finite(what: str, **params: float) -> None:
    """Raise ParameterError naming the first of ``params`` that is nan or
    +-inf; ``what`` names the construction."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ParameterError(f"{what} needs a finite {name}, got {value}")


def psi(gamma: float, s):
    """Boundary profile psi_gamma: s^(-gamma) for gamma > 0, -log(s) at gamma = 0.

    Parameters
    ----------
    gamma : float
        Rate exponent, must be >= 0.
    s : float or array_like
        Distance to the boundary, strictly positive.

    Returns
    -------
    float or ndarray
        Same shape as ``s``.
    """
    if gamma < 0.0:
        raise ParameterError(f"psi needs gamma >= 0, got {gamma}")
    arr = np.asarray(s, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("psi is only defined for positive distances")
    out = -np.log(arr) if gamma == 0.0 else arr ** (-gamma)
    if arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Nonlinearity:
    """Strictly increasing f with f(0) = 0 and an inverse.

    ``beta`` and the tail constants are optional: they are only needed when
    the flow's diffusion weight decays at rate alpha <= 1, where the growth
    of f decides between existence and instantaneous blow-up.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[float], float]
    beta: Optional[float]
    cf_plus: Optional[float]
    cf_minus: Optional[float]
    kind: str


@dataclass(frozen=True)
class DiffusionWeight:
    """Positive gradient weight g with declared tail |s|^alpha g(s) -> cg_+-."""

    eval: Callable[[np.ndarray], np.ndarray]
    alpha: float
    cg_plus: float
    cg_minus: float
    kind: str


@dataclass(frozen=True)
class InitialDatum:
    """Initial datum on (-b, b) tagged with its boundary class.

    klass is one of:

    * ``"B1"`` -- continuous up to the closed interval (finite at the ends).
    * ``"B2"`` -- diverges at both ends, with values(x) * (b -+ x)^gamma
      bounded near +-b.
    * ``"B3"`` -- diverges with exact first-order shape
      values(x) = d_pm * psi_{gamma_pm}(b -+ x) + chat_pm + o(1).
    """

    klass: str
    values: Callable[[np.ndarray], np.ndarray]
    gamma: Optional[float] = None
    gamma_plus: Optional[float] = None
    gamma_minus: Optional[float] = None
    d_plus: Optional[float] = None
    d_minus: Optional[float] = None
    chat_plus: Optional[float] = None
    chat_minus: Optional[float] = None


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified flow: half-width b, nonlinearity, weight, datum."""

    b: float
    f: Nonlinearity
    g: DiffusionWeight
    u0: InitialDatum


# ---------------------------------------------------------------------------
# Nonlinearity constructors


def _check_increasing_through_zero(fn, what: str) -> None:
    vals = np.asarray(fn(_SAMPLE_GRID), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ParameterError(f"{what} is not finite on the sample grid")
    if np.any(np.diff(vals) <= 0.0):
        raise ParameterError(f"{what} is not strictly increasing on the sample grid")
    at_zero = float(fn(np.asarray(0.0)))
    if abs(at_zero) > 1e-12:
        raise ParameterError(f"{what}(0) = {at_zero:g}, expected 0")


def _check_tail(fn, exponent: float, c_plus: float, c_minus: float,
                what: str, odd: bool = False) -> None:
    """Sampled certificate that |s|^exponent * fn(s) approaches the declared
    constants monotonically, within TAIL_RTOL at the largest magnitude.

    With ``odd`` the expected limit on the negative side is -c_minus (the
    shape an increasing f through zero has); weights use the plain limits.
    """
    for sign, target in ((1.0, c_plus), (-1.0, c_minus)):
        if target <= 0.0:
            raise ParameterError(f"{what}: tail constants must be positive")
        limit = sign * target if odd else target
        gaps = []
        for mag in TAIL_SAMPLES:
            s = sign * mag
            ratio = float(np.abs(s) ** exponent * np.asarray(fn(np.asarray(s))))
            gaps.append(abs(ratio - limit))
        # Allow ties: constant-ratio tails (exact powers) are the common case.
        if not (gaps[1] <= gaps[0] + 1e-12 and gaps[2] <= gaps[1] + 1e-12):
            raise ParameterError(
                f"{what}: sampled tail ratio does not approach the declared "
                f"constant monotonically (gaps {gaps})")
        if gaps[2] > TAIL_RTOL * target:
            raise ParameterError(
                f"{what}: tail ratio misses the declared constant by "
                f"{gaps[2] / target:.1%} at |s| = {TAIL_SAMPLES[-1]:g}")


def signed_power(beta: float) -> Nonlinearity:
    """The odd power f(s) = |s|^(beta-1) s, with closed-form inverse."""
    check_finite("signed_power", beta=beta)
    if beta <= 0.0:
        raise ParameterError(f"signed_power needs beta > 0, got {beta}")

    def fwd(s):
        a = np.asarray(s, dtype=float)
        return np.sign(a) * np.abs(a) ** beta

    def inv(y: float) -> float:
        return math.copysign(abs(y) ** (1.0 / beta), y)

    return Nonlinearity(eval=fwd, inverse=inv, beta=beta,
                        cf_plus=1.0, cf_minus=1.0,
                        kind=f"signed_power({beta:g})")


def _bracketed_inverse(fn) -> Callable[[float], float]:
    """Inverse of a strictly increasing fn with fn(0) = 0, by bracket
    expansion, then bisection.  Scalar in, scalar out."""

    def inv(y: float) -> float:
        if not math.isfinite(y):
            raise DomainError(f"cannot invert the non-finite value {y:g}")
        if y == 0.0:
            return 0.0
        lo, hi = (0.0, 1.0) if y > 0.0 else (-1.0, 0.0)
        probe = hi if y > 0.0 else lo
        while (float(fn(np.asarray(probe))) < y) if y > 0.0 else \
              (float(fn(np.asarray(probe))) > y):
            probe *= 2.0
            if abs(probe) > 1e300:
                raise DomainError(f"value {y:g} is never attained")
        lo, hi = (lo, probe) if y > 0.0 else (probe, hi)
        return root(lambda s: float(fn(np.asarray(s))) - y, lo, hi)

    return inv


def certify_nonlinearity(f: Nonlinearity) -> None:
    """Sampled certificate that f is strictly increasing through zero and,
    when it declares beta, grows like |s|^(-beta) f(s) -> +-cf."""
    _check_increasing_through_zero(f.eval, "f")
    if f.beta is not None:
        _check_tail(f.eval, -f.beta, f.cf_plus, f.cf_minus, "f tail", odd=True)


def custom_nonlinearity(fn, beta: Optional[float] = None,
                        cf_plus: Optional[float] = None,
                        cf_minus: Optional[float] = None) -> Nonlinearity:
    """Wrap a user-supplied increasing fn with fn(0) = 0 as a Nonlinearity.

    When ``beta`` is declared, both tail constants must be declared too and
    the growth |s|^(-beta) fn(s) -> +-cf is certified by sampling.
    """
    if beta is not None:
        if beta <= 0.0:
            raise ParameterError(f"custom nonlinearity: beta must be > 0, got {beta}")
        if cf_plus is None or cf_minus is None:
            raise ParameterError(
                "custom nonlinearity: declaring beta requires cf_plus and cf_minus")
    elif cf_plus is not None or cf_minus is not None:
        raise ParameterError(
            "custom nonlinearity: tail constants make no sense without beta")
    f = Nonlinearity(eval=fn, inverse=_bracketed_inverse(fn), beta=beta,
                     cf_plus=cf_plus, cf_minus=cf_minus, kind="custom")
    certify_nonlinearity(f)
    return f


# ---------------------------------------------------------------------------
# DiffusionWeight constructors


def certify_weight(g: DiffusionWeight) -> None:
    """Sampled certificate that g is finite and positive and that
    |s|^alpha g(s) approaches the declared tail constants."""
    vals = np.asarray(g.eval(_SAMPLE_GRID), dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ParameterError("g must be finite and positive on the sample grid")
    _check_tail(g.eval, g.alpha, g.cg_plus, g.cg_minus, "g tail")


def custom_weight(fn, alpha: float, cg_plus: float,
                  cg_minus: float) -> DiffusionWeight:
    """Wrap a user-supplied positive fn with declared tail data as a weight."""
    g = DiffusionWeight(eval=fn, alpha=alpha, cg_plus=cg_plus,
                        cg_minus=cg_minus, kind="custom")
    certify_weight(g)
    return g


def power_tail_weight(alpha: float, cg_plus: float,
                      cg_minus: float) -> DiffusionWeight:
    """Smooth weight with prescribed, possibly asymmetric tails.

    g(s) = blend(s) * (1 + s^2)^(-alpha/2) with a tanh blend between the two
    tail constants; the only stock weight with cg_plus != cg_minus.
    """
    if cg_plus <= 0.0 or cg_minus <= 0.0:
        raise ParameterError("power_tail_weight needs positive tail constants")

    def fn(s):
        a = np.asarray(s, dtype=float)
        w = 0.5 * (1.0 + np.tanh(a))
        return (w * cg_plus + (1.0 - w) * cg_minus) * (1.0 + a * a) ** (-alpha / 2.0)

    weight = DiffusionWeight(eval=fn, alpha=alpha, cg_plus=cg_plus,
                             cg_minus=cg_minus,
                             kind=f"power_tail({alpha:g}, {cg_plus:g}, {cg_minus:g})")
    _check_tail(fn, alpha, cg_plus, cg_minus, "g tail")
    return weight


# ---------------------------------------------------------------------------
# Presets


def preset_p_heat(p: float, beta1: float, eps: float):
    """Regularized p-Laplace flow: f(s) = |s|^(beta1-1) s and
    g(s) = (p-1)|s|^(p-2) + eps.

    The weight has tail exponent alpha = 2 - p, so every member of this
    family sits in the fast-decay range alpha <= 0 where the growth rate
    beta1 of f decides the regime.

    Returns
    -------
    (Nonlinearity, DiffusionWeight)
    """
    check_finite("p-heat preset", p=p, beta1=beta1, eps=eps)
    if p < 2.0:
        raise ParameterError(f"p-heat preset needs p >= 2, got {p}")
    if beta1 <= 0.0:
        raise ParameterError(f"p-heat preset needs beta1 > 0, got {beta1}")
    if eps <= 0.0:
        raise ParameterError(f"p-heat preset needs eps > 0, got {eps}")

    def g_fn(s):
        a = np.asarray(s, dtype=float)
        return (p - 1.0) * np.abs(a) ** (p - 2.0) + eps

    cg = 1.0 + eps if p == 2.0 else p - 1.0
    g = DiffusionWeight(eval=g_fn, alpha=2.0 - p, cg_plus=cg, cg_minus=cg,
                        kind=f"p_laplace({p:g}, {eps:g})")
    return signed_power(beta1), g


def preset_curvature(beta2: float):
    """Power mean-curvature flow: f(s) = |s|^(beta2-1) s and
    g(s) = (1 + s^2)^((1 - 3 beta2) / (2 beta2)).

    Tail exponent alpha = 3 - 1/beta2 sweeps the whole range alpha < 3 as
    beta2 varies, which makes this family the workhorse for exercising the
    slow-decay regimes (traveling waves need alpha > 1).

    Returns
    -------
    (Nonlinearity, DiffusionWeight)
    """
    check_finite("curvature preset", beta2=beta2)
    if beta2 <= 0.0:
        raise ParameterError(f"curvature preset needs beta2 > 0, got {beta2}")
    expo = (1.0 - 3.0 * beta2) / (2.0 * beta2)

    def g_fn(s):
        a = np.asarray(s, dtype=float)
        return (1.0 + a * a) ** expo

    g = DiffusionWeight(eval=g_fn, alpha=3.0 - 1.0 / beta2, cg_plus=1.0,
                        cg_minus=1.0, kind=f"curvature({beta2:g})")
    return signed_power(beta2), g


# ---------------------------------------------------------------------------
# Initial data


def initial_b1(values) -> InitialDatum:
    """Datum continuous up to the closed interval."""
    return InitialDatum(klass="B1", values=values)


def initial_b2(values, gamma: float) -> InitialDatum:
    """Datum diverging at both ends with power bound (b -+ x)^(-gamma)."""
    if gamma <= 0.0:
        raise ParameterError(f"B2 datum needs gamma > 0, got {gamma}")
    return InitialDatum(klass="B2", values=values, gamma=gamma)


def initial_b3(values, gamma_plus: float, gamma_minus: float,
               d_plus: float, d_minus: float,
               chat_plus: float, chat_minus: float) -> InitialDatum:
    """Datum with exact first-order boundary shape d * psi_gamma + chat."""
    if gamma_plus < 0.0 or gamma_minus < 0.0:
        raise ParameterError("B3 datum needs gamma_plus, gamma_minus >= 0")
    if d_plus <= 0.0 or d_minus <= 0.0:
        raise ParameterError("B3 datum needs positive leading constants")
    return InitialDatum(klass="B3", values=values,
                        gamma_plus=gamma_plus, gamma_minus=gamma_minus,
                        d_plus=d_plus, d_minus=d_minus,
                        chat_plus=chat_plus, chat_minus=chat_minus)


def _cert_distances() -> np.ndarray:
    return 2.0 ** (-np.arange(CERT_J_LO, CERT_J_HI + 1, dtype=float))


def _side_values(u0: InitialDatum, b: float, side: int,
                 dist: np.ndarray) -> np.ndarray:
    x = side * (b - dist)
    return np.asarray(u0.values(x), dtype=float)


def _certify_b1(u0: InitialDatum, b: float) -> None:
    for side in (+1, -1):
        v = float(np.asarray(u0.values(np.asarray(side * (b - 1e-9)))))
        if not math.isfinite(v):
            raise ParameterError(
                f"B1 datum is not finite near x = {side * b:g}")


def _certify_b2(u0: InitialDatum, b: float) -> None:
    dist = _cert_distances()
    for side in (+1, -1):
        vals = _side_values(u0, b, side, dist)
        prods = vals * dist ** u0.gamma
        if not np.all(np.isfinite(prods)):
            raise ParameterError("B2 datum: non-finite boundary samples")
        tail = vals[-CERT_WINDOW:]
        if np.any(np.diff(tail) <= 0.0) or tail[-1] <= vals[0]:
            raise ParameterError(
                f"B2 datum does not diverge on approach to x = {side * b:g}")
        earlier = float(np.max(prods[:-CERT_WINDOW]))
        if float(np.max(prods[-CERT_WINDOW:])) > (1.0 + CERT_RTOL) * earlier:
            raise ParameterError(
                f"B2 datum: values * dist^{u0.gamma:g} keeps growing near "
                f"x = {side * b:g}; gamma is declared too small")


def _certify_b3(u0: InitialDatum, b: float) -> None:
    dist = _cert_distances()
    for side, gam, d, chat in ((+1, u0.gamma_plus, u0.d_plus, u0.chat_plus),
                               (-1, u0.gamma_minus, u0.d_minus, u0.chat_minus)):
        vals = _side_values(u0, b, side, dist)
        lead = d * psi(gam, dist)
        resid = vals - lead
        scale = 1.0 + abs(chat)
        # Closest samples can be pure rounding noise: the subtraction above
        # cancels ~16 digits of the leading term.  Keep only samples where
        # that cancellation is well below the certificate tolerance.
        usable = np.nonzero(np.abs(lead) * 1e-13 <= 0.5 * CERT_RTOL * scale)[0]
        if usable.size < CERT_WINDOW:
            raise ParameterError(
                f"B3 datum: leading term too large to certify the limit near "
                f"x = {side * b:g} (float cancellation)")
        window = resid[usable[-CERT_WINDOW:]]
        if not np.all(np.isfinite(window)):
            raise ParameterError("B3 datum: non-finite boundary samples")
        if float(np.max(window) - np.min(window)) > CERT_RTOL * scale:
            raise ParameterError(
                f"B3 datum: values - d * psi does not settle near "
                f"x = {side * b:g} (window spread "
                f"{float(np.max(window) - np.min(window)):.3g})")
        if abs(float(np.mean(window)) - chat) > CERT_RTOL * scale:
            raise ParameterError(
                f"B3 datum: sampled limit {float(np.mean(window)):.6g} does "
                f"not match declared offset {chat:g} near x = {side * b:g}")


def certify_initial(u0: InitialDatum, b: float) -> None:
    """Sampled certificate that a datum matches its declared boundary class.

    Boundary layers are probed at x = +-(b - 2^-j), j = 10..40, which
    requires b > 2^-9.
    """
    if b <= 2.0 ** (-(CERT_J_LO - 1)):
        raise ParameterError(
            f"half-width b = {b:g} is too small for boundary certificates")
    if u0.klass == "B1":
        _certify_b1(u0, b)
    elif u0.klass == "B2":
        _certify_b2(u0, b)
    elif u0.klass == "B3":
        _certify_b3(u0, b)
    else:
        raise ParameterError(f"unknown initial-datum class {u0.klass!r}")


def make_problem(b: float, f: Nonlinearity, g: DiffusionWeight,
                 u0: InitialDatum) -> ProblemSpec:
    """Assemble and validate a ProblemSpec (runs the boundary certificates)."""
    if not 0.0 < b < math.inf:
        raise ParameterError(
            f"half-width b must be positive and finite, got {b}")
    certify_initial(u0, b)
    return ProblemSpec(b=b, f=f, g=g, u0=u0)
