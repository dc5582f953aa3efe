"""The in-package root finders and RK45 against scipy, bit for bit.

scipy.optimize and scipy.integrate are the reference here and only here:
the package itself does not import them.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import bisect as scipy_bisect
from scipy.optimize import brentq as scipy_brentq

from singflow import (DomainError, custom_nonlinearity, initial_b1,
                      make_problem, preset_curvature, preset_p_heat,
                      signed_power, super_family)
from singflow import _scalar, barriers

EPS = np.finfo(float).eps
METHODS = ((_scalar.bisect, scipy_bisect), (_scalar.brentq, scipy_brentq))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _assert_same_root(f, a, b, **tols):
    """Both methods give scipy's bits, or raise DomainError where scipy
    raises."""
    for ours, theirs in METHODS:
        try:
            expected = theirs(f, a, b, **tols)
        except (ValueError, RuntimeError):
            with pytest.raises(DomainError):
                ours(f, a, b, **tols)
            continue
        assert _bits(ours(f, a, b, **tols)) == _bits(expected), ours


@settings(max_examples=150, deadline=None)
@given(k=st.floats(1.0, 1e12), lo_exp=st.floats(-300.0, -0.5))
def test_root_finders_match_scipy_on_the_layer_equation(k, lo_exp):
    """sub_uk's y log y + 1/k, on brackets [lo, 1/e]."""
    _assert_same_root(lambda y: y * math.log(y) + 1.0 / k,
                      10.0 ** lo_exp, math.exp(-1.0),
                      xtol=1e-14, rtol=4.0 * EPS)


@settings(max_examples=150, deadline=None)
@given(c_star=st.floats(16.0 / 9.0, 40.0), mu=st.floats(0.0, 3.0),
       l0=st.floats(1.0, 6.0), log_nu=st.floats(1.0, 12.0),
       widen=st.integers(0, 3))
def test_root_finders_match_scipy_on_the_steepness_equation(
        c_star, mu, l0, log_nu, widen):
    """super_family's steepness_needed(L) - nu, on the doubled bracket
    [L0, hi] it uses and on wider ones."""
    def needed(length):
        return (c_star * length ** (2.0 * mu + 2.0)
                * 1.5 ** (2.0 * length + 2.0))

    nu = 10.0 ** log_nu
    hi = max(2.0 * l0, 4.0)
    while needed(hi) < nu:
        hi *= 2.0
    _assert_same_root(lambda ln: needed(ln) - nu, l0, hi * 2.0 ** widen,
                      xtol=1e-12, rtol=4.0 * EPS)


_CUSTOM = {
    "cubic": lambda s: np.asarray(s) + np.asarray(s) ** 3,
    "cbrt": lambda s: np.cbrt(np.asarray(s)),
    "power": lambda s: np.sign(s) * np.abs(np.asarray(s)) ** 1.5,
    "arctan": lambda s: np.arctan(np.asarray(s)),
}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_CUSTOM)), log_y=st.floats(-8.0, 8.0),
       sign=st.sampled_from((1.0, -1.0)), top=st.integers(0, 60))
def test_root_finders_match_scipy_on_a_custom_inverse(kind, log_y, sign,
                                                      top):
    """_bracketed_inverse's fn(s) - y: the inverse itself against scipy's
    brentq on the bracket it expands to, and both methods on drawn
    brackets [0, +-2^top]."""
    fn = _CUSTOM[kind]
    y = sign * 10.0 ** log_y
    shifted = lambda s: float(fn(np.asarray(s))) - y
    tols = dict(xtol=1e-300, rtol=4.0 * EPS, maxiter=200)
    _assert_same_root(shifted, *sorted((0.0, sign * 2.0 ** top)), **tols)

    probe = sign
    while sign * float(fn(np.asarray(probe))) < sign * y:
        probe *= 2.0
        if abs(probe) > 1e300:
            with pytest.raises(DomainError):
                custom_nonlinearity(fn).inverse(y)
            return
    expected = scipy_brentq(shifted, *sorted((0.0, probe)), **tols)
    assert _bits(custom_nonlinearity(fn).inverse(y)) == _bits(expected)


def _flat(f, g):
    return make_problem(1.0, f, g, initial_b1(
        lambda x: np.zeros_like(np.asarray(x, dtype=float))))


# The two criterion-4 cases: (spec, L0).
_CRITERION_4 = {
    "p_heat": (lambda: _flat(*preset_p_heat(2.0, 0.5, 0.1)), 3.0),
    "linear": (lambda: _flat(signed_power(1.0), preset_curvature(0.5)[1]),
               1.2),
}


def _assert_same_trajectory(fun, t0, y0, t_bound, rtol, atol, event):
    def terminal(t, y):
        return event(t, y)
    terminal.terminal = True
    terminal.direction = 1.0
    ref = solve_ivp(fun, (t0, t_bound), y0, method="RK45", rtol=rtol,
                    atol=atol, dense_output=True, events=terminal)
    t_event, sol = _scalar.rk45(fun, t0, y0, t_bound, rtol, atol, event)
    if t_event is None:
        assert ref.t_events[0].size == 0
        return None
    assert _bits(t_event) == ref.t_events[0][0].tobytes()
    times = np.concatenate([np.linspace(t0, t_event, 64), sol.ts])
    ours = np.array([sol(t) for t in times])
    theirs = np.array([ref.sol(t) for t in times])
    assert ours.tobytes() == theirs.tobytes()
    return t_event


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(_CRITERION_4)),
       log_nu=st.floats(3.0, 8.0))
def test_rk45_matches_solve_ivp_on_the_exponent_ode(case, log_nu):
    """Every integration super_family runs, replayed through solve_ivp:
    event time and dense values at 64 times plus every step boundary,
    and a shortened run that ends before the event."""
    build, l0 = _CRITERION_4[case]
    spec = build()
    runs = []
    real = _scalar.rk45

    def recording(*args):
        runs.append(args)
        return real(*args)

    with mock.patch.object(barriers, "rk45", recording):
        super_family(spec, None, l0, 10.0 ** log_nu)
    assert runs
    for fun, t0, y0, t_bound, rtol, atol, event in runs:
        t_event = _assert_same_trajectory(fun, t0, y0, t_bound, rtol, atol,
                                          event)
    assert t_event is not None
    assert _assert_same_trajectory(fun, t0, y0, 0.5 * t_event, rtol, atol,
                                   event) is None


def test_root_finder_failures_are_typed_and_name_the_bracket():
    for method in (_scalar.bisect, _scalar.brentq):
        with pytest.raises(DomainError, match=r"f\(1\.0\).*f\(2\.0\)"):
            method(lambda x: x, 1.0, 2.0, xtol=1e-12)
        with pytest.raises(DomainError, match=r"nan.*\[0\.0, 2\.0\]"):
            method(lambda x: math.nan if x > 1.5 else x - 1.0, 0.0, 2.0,
                   xtol=1e-12)
        with pytest.raises(DomainError,
                           match=r"\[0\.0, 1\.0\].*3 iterations"):
            method(lambda x: math.exp(x) - 2.0, 0.0, 1.0, xtol=1e-12,
                   maxiter=3)
    with pytest.raises(DomainError, match="empty"):
        _scalar.rk45(lambda t, y: y, 1.0, [1.0], 1.0, 1e-8, 1e-12,
                     lambda t, y: y[0] - 2.0)
    for y0, fun in (([math.nan], lambda t, y: y),
                    ([1.0], lambda t, y: [math.nan])):
        with pytest.raises(DomainError, match="not finite"):
            _scalar.rk45(fun, 0.0, y0, 1.0, 1e-8, 1e-12,
                         lambda t, y: y[0] - 2.0)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.floor(8.0 * x) - 3.5, 0.0, 1.0),        # steps
    (lambda x: min(max(x, 0.2), 0.8) - 0.5, 0.0, 1.0),      # flat ends
    (lambda x: min(max(x, 0.2), 0.8) - 0.5, 0.0, 0.55),
    (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),               # product underflow
    (lambda x: 1e-150 * (math.exp(3.0 * x) - 2.0), 0.0, 1.0),  # 1/0 in C
    (lambda x: 1e-200, 0.0, 1.0),                           # no sign change
    (lambda x: x, 0.0, 1.0),                                # root at an end
    (lambda x: -0.0 if x < 0.5 else 1.0, 0.0, 1.0),
    (lambda x: (x - 0.25) ** 3, -1.0, 1e9),
    (lambda x: math.copysign(1.0, x - 0.1), -1.0, 1.0),     # a jump
])
def test_root_finders_match_scipy_on_awkward_functions(f, a, b):
    """Flat stretches, steps, jumps, underflowing products and zeros at the
    ends, where the C code tests sign bits or divides by an underflowed
    zero."""
    _assert_same_root(f, a, b, xtol=1e-12, rtol=4.0 * EPS)
    _assert_same_root(f, a, b, xtol=1e-300, rtol=4.0 * EPS, maxiter=200)


@pytest.mark.parametrize("fun, y0, t_bound, event", [
    # blow-up at t = 1: rejected steps near the event
    (lambda t, y: y ** 2, 1.0, 2.0, lambda t, y: y[0] - 1e8),
    # a fast relaxation onto a moving target
    (lambda t, y: -60.0 * (y - math.sin(5.0 * t)), 0.0, 3.0,
     lambda t, y: y[0] - 0.9),
    # zero error estimates: the step grows by the largest factor until
    # t_bound cuts it, and the event falls in that last step
    (lambda t, y: [1.0], 0.0, 4.6, lambda t, y: y[0] - 4.5),
    # an event that never comes
    (lambda t, y: -y, 1.0, 5.0, lambda t, y: y[0] - 2.0),
])
def test_rk45_matches_solve_ivp_on_other_odes(fun, y0, t_bound, event):
    _assert_same_trajectory(fun, 0.0, [y0], t_bound, 1e-8, 1e-12, event)
