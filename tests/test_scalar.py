"""Accuracy of the package's one root finder, `singflow._scalar.root`,
and of the roots the package takes with it.

scipy.optimize's brentq run to float resolution is the reference; the
package itself does not import scipy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from singflow import (DomainError, custom_nonlinearity, initial_b1,
                      make_problem, preset_curvature, preset_p_heat,
                      signed_power, sub_uk, super_family, super_mu)
from singflow._scalar import root

EPS = np.finfo(float).eps
TIGHT = dict(xtol=1e-300, rtol=4.0 * EPS, maxiter=500)


def _spec(f, g):
    return make_problem(1.0, f, g, initial_b1(lambda x: 0.0 * x))


@settings(max_examples=60, deadline=None)
@given(k=st.floats(3.0, 1e12))
@example(k=math.e * (1.0 + 1e-6))
@example(k=5.0)
@example(k=300.0)
@example(k=1e4)
@example(k=1e8)
def test_root_finders_match_scipy_on_the_layer_equation(k):
    """sub_uk's y_k, the root of y log y + 1/k, to the accuracy its
    conditioning allows: the log-form root u = log y carries |u| rounding
    units into y, and 1/|1 + u| more as the root nears the double root of
    k = e."""
    y_k = sub_uk(_spec(*preset_curvature(1.0)), k).params["y_k"]
    ref = scipy_brentq(lambda y: y * math.log(y) + 1.0 / k, 1e-300,
                       math.exp(-1.0), **TIGHT)
    u = math.log(ref)
    tol = 4.0 * EPS * abs(u) * (1.0 + 1.0 / abs(1.0 + u))
    assert y_k == pytest.approx(ref, rel=tol, abs=0.0)


_CRITERION_4 = {
    "heat": (lambda: preset_p_heat(2.0, 0.5, 0.1), 3.0),
    "lin": (lambda: (signed_power(1.0), preset_curvature(0.5)[1]), 1.2),
}


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(_CRITERION_4)),
       log_nu=st.floats(3.5, 100.0))
def test_root_finders_match_scipy_on_the_steepness_equation(case, log_nu):
    """super_family's terminal exponent L(T), where the junction's
    steepness need c* L^(2 mu + 2) 1.5^(2 L + 2) reaches nu, on both
    acceptance-criterion-4 specs."""
    make, l0 = _CRITERION_4[case]
    f, g = make()
    nu = 10.0 ** log_nu
    p = super_family(_spec(f, g), None, l0, nu).params
    mu = super_mu(g.alpha, f.beta)
    c_star = 4.0

    def needed(length):
        return (c_star * length ** (2.0 * mu + 2.0)
                * 1.5 ** (2.0 * length + 2.0))

    top = math.log(nu / c_star) / (2.0 * math.log(1.5)) - 1.0
    ref = scipy_brentq(lambda ln: needed(ln) - nu, l0, top, **TIGHT)
    assert p["L"](p["T"]) == pytest.approx(ref, rel=8.0 * EPS, abs=0.0)


# Each increasing fn with fn(0) = 0 and its derivative.
_CUSTOM = {
    "cubic": (lambda s: np.asarray(s) + np.asarray(s) ** 3,
              lambda s: 1.0 + 3.0 * s ** 2),
    "cbrt": (lambda s: np.cbrt(np.asarray(s)),
             lambda s: abs(s) ** (-2.0 / 3.0) / 3.0),
    "power": (lambda s: np.sign(s) * np.abs(np.asarray(s)) ** 1.5,
              lambda s: 1.5 * abs(s) ** 0.5),
    "arctan": (lambda s: np.arctan(np.asarray(s)),
               lambda s: 1.0 / (1.0 + s ** 2)),
}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_CUSTOM)), log_y=st.floats(-8.0, 8.0),
       sign=st.sampled_from((1.0, -1.0)))
def test_root_finders_match_scipy_on_a_custom_inverse(kind, log_y, sign):
    """custom_nonlinearity's inverse bisects fn(s) - y down to float
    resolution: fn crosses y between s and its float neighbours, and s is
    scipy's root on the bracket the inverse expands to, within what the
    conditioning y / (s fn'(s)) allows."""
    fn, dfn = _CUSTOM[kind]
    y = sign * 10.0 ** log_y
    inverse = custom_nonlinearity(fn).inverse
    probe = sign
    while sign * float(fn(np.asarray(probe))) < sign * y:
        probe *= 2.0
        if abs(probe) > 1e300:
            with pytest.raises(DomainError, match="never attained"):
                inverse(y)
            return
    s = inverse(y)
    below = float(fn(np.nextafter(s, -math.inf)))
    above = float(fn(np.nextafter(s, math.inf)))
    assert below <= y <= above
    ref = scipy_brentq(lambda x: float(fn(np.asarray(x))) - y,
                       *sorted((0.0, probe)), **TIGHT)
    cond = abs(y) / (abs(ref) * dfn(ref))
    assert s == pytest.approx(ref, rel=8.0 * EPS * (1.0 + cond), abs=0.0)


def test_newton_steps_that_leave_the_bracket_bisect_instead():
    """Plain Newton on arctan diverges from x0 = 20; the safeguarded
    iteration still reaches the root."""
    x = root(math.atan, -10.0, 30.0, x0=20.0,
             slope=lambda x: 1.0 / (1.0 + x * x), tol=1e-12)
    assert abs(x) < 1e-15


def test_root_finder_failures_are_typed_and_name_the_bracket():
    with pytest.raises(DomainError, match=r"nan.*\[0\.0, 2\.0\]"):
        root(lambda x: math.nan if x > 1.5 else x - 1.0, 0.0, 2.0, x0=1.8,
             slope=lambda x: 1.0, tol=1e-12)
    with pytest.raises(DomainError, match=r"\[1\.0, 2\.0\].*no root"):
        root(lambda x: x, 1.0, 2.0)
    with pytest.raises(DomainError, match=r"\[-2\.0, -1\.0\].*no root"):
        root(lambda x: x, -2.0, -1.0, slope=lambda x: 1.0, tol=1e-12)
    inverse = custom_nonlinearity(_CUSTOM["cubic"][0]).inverse
    for y in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="non-finite"):
            inverse(y)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.floor(8.0 * x) - 3.5, 0.0, 1.0),        # steps
    (lambda x: min(max(x, 0.2), 0.8) - 0.5, 0.0, 1.0),      # flat ends
    (lambda x: min(max(x, 0.2), 0.8) - 0.5, 0.0, 0.55),
    (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),               # product underflow
    (lambda x: 1e-150 * (math.exp(3.0 * x) - 2.0), 0.0, 1.0),
    (lambda x: 1e-200, 0.0, 1.0),                           # no sign change
    (lambda x: x, 0.0, 1.0),                                # root at an end
    (lambda x: -0.0 if x < 0.5 else 1.0, 0.0, 1.0),         # negative zero
    (lambda x: (x - 0.25) ** 3, -1.0, 1e9),
    (lambda x: math.copysign(1.0, x - 0.1), -1.0, 1.0),     # a jump
])
def test_root_finders_match_scipy_on_awkward_functions(f, a, b):
    """On flat stretches, steps, jumps, tiny values and zeros at the ends,
    bisection ends on a zero of f or on a sign change of f between float
    neighbours, and raises DomainError exactly where scipy finds no sign
    change."""
    try:
        scipy_brentq(f, a, b, **TIGHT)
    except ValueError:
        with pytest.raises(DomainError, match="no root"):
            root(f, a, b)
        return
    x = root(f, a, b)
    assert a <= x <= b
    assert (f(x) == 0.0 or f(np.nextafter(x, -math.inf)) <= 0.0 <= f(x)
            or f(x) <= 0.0 <= f(np.nextafter(x, math.inf)))
