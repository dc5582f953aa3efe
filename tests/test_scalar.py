"""The in-package root finders against scipy, bit for bit.

scipy.optimize's brentq and bisect are the reference; the package itself
does not import scipy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect as scipy_bisect
from scipy.optimize import brentq as scipy_brentq

from singflow import DomainError, _scalar, custom_nonlinearity

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
