"""Model layer: nonlinearities, weights, initial data and certificates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singflow import (DomainError, ParameterError, custom_nonlinearity,
                      custom_weight, initial_b1, initial_b2, initial_b3,
                      make_problem, power_tail_weight, preset_curvature,
                      preset_p_heat, psi, signed_power)


def _flat():
    return initial_b1(lambda x: np.zeros_like(np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_power_branch():
    assert psi(2.0, 0.5) == 4.0
    assert psi(1.0, 0.25) == 4.0
    np.testing.assert_allclose(psi(0.5, np.array([0.25, 4.0])), [2.0, 0.5])


def test_psi_log_branch():
    assert psi(0.0, 1.0) == 0.0
    assert math.isclose(psi(0.0, math.exp(-1.0)), 1.0, rel_tol=1e-15)


def test_psi_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        psi(-0.5, 1.0)
    with pytest.raises(DomainError):
        psi(1.0, 0.0)
    with pytest.raises(DomainError):
        psi(1.0, np.array([0.5, -1.0]))


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def test_signed_power_is_odd_and_increasing():
    f = signed_power(1.5)
    xs = np.linspace(-3.0, 3.0, 101)
    vals = np.asarray(f.eval(xs))
    np.testing.assert_allclose(vals, -np.asarray(f.eval(-xs)), atol=1e-15)
    assert np.all(np.diff(vals) > 0.0)
    assert f.eval(0.0) == 0.0
    assert f.beta == 1.5 and f.cf_plus == 1.0 and f.cf_minus == 1.0


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(0.1, 5.0), y=st.floats(-100.0, 100.0))
def test_signed_power_inverse_roundtrip(beta, y):
    f = signed_power(beta)
    s = f.inverse(y)
    assert math.isclose(float(f.eval(s)), y,
                        rel_tol=1e-12, abs_tol=1e-12)


def test_signed_power_rejects_nonpositive_rate():
    with pytest.raises(ParameterError):
        signed_power(0.0)


def test_custom_nonlinearity_bracketed_inverse():
    f = custom_nonlinearity(lambda s: np.asarray(s) + np.asarray(s) ** 3,
                            beta=3.0, cf_plus=1.0, cf_minus=1.0)
    for y in (-27.5, -0.3, 0.0, 0.7, 110.0):
        s = f.inverse(y)
        assert math.isclose(float(f.eval(s)), y, rel_tol=1e-9, abs_tol=1e-9)


def test_custom_inverse_failures_are_typed():
    """A nan value inside the expanded bracket and a non-finite target both
    raise DomainError, the first naming the bracket."""
    def fn(s):
        s = np.asarray(s, dtype=float)
        return np.where(np.abs(s) >= 1e7, np.nan, s)

    f = custom_nonlinearity(fn)
    with pytest.raises(DomainError, match=r"\[0\.0, 16777216\.0\]"):
        f.inverse(1e8)
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="non-finite"):
            f.inverse(y)


def test_custom_nonlinearity_rejects_bad_declarations():
    with pytest.raises(ParameterError):
        custom_nonlinearity(lambda s: -np.asarray(s))
    with pytest.raises(ParameterError):
        custom_nonlinearity(lambda s: np.asarray(s), beta=2.0)
    with pytest.raises(ParameterError):
        # Linear growth declared as quadratic: the tail check must fail.
        custom_nonlinearity(lambda s: np.asarray(s), beta=2.0,
                            cf_plus=1.0, cf_minus=1.0)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_preset_p_heat_contracts():
    f, g = preset_p_heat(3.0, 0.5, 0.2)
    assert g.alpha == -1.0
    assert g.cg_plus == 2.0 and g.cg_minus == 2.0
    assert f.beta == 0.5
    assert float(g.eval(0.0)) == pytest.approx(0.2)
    # p = 2 collapses to a constant weight 1 + eps.
    _, g2 = preset_p_heat(2.0, 1.0, 0.1)
    np.testing.assert_allclose(g2.eval(np.array([-5.0, 0.0, 5.0])), 1.1)
    assert g2.alpha == 0.0 and g2.cg_plus == 1.1


def test_preset_curvature_contracts():
    f, g = preset_curvature(1.0)
    assert g.alpha == 2.0 and f.beta == 1.0
    np.testing.assert_allclose(g.eval(np.array([0.0, 1.0])), [1.0, 0.5])
    _, g3 = preset_curvature(2.0)
    assert g3.alpha == 2.5
    _, g4 = preset_curvature(2.0 / 3.0)
    assert g4.alpha == pytest.approx(1.5)


def test_preset_parameter_validation():
    with pytest.raises(ParameterError):
        preset_p_heat(1.5, 1.0, 0.1)
    with pytest.raises(ParameterError):
        preset_p_heat(2.0, 0.0, 0.1)
    with pytest.raises(ParameterError):
        preset_p_heat(2.0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        preset_curvature(0.0)


def test_power_tail_weight_asymmetric():
    g = power_tail_weight(1.0, 2.0, 0.5)
    assert g.cg_plus == 2.0 and g.cg_minus == 0.5
    s = 1.0e6
    assert float(g.eval(s)) * s == pytest.approx(2.0, rel=1e-4)
    assert float(g.eval(-s)) * s == pytest.approx(0.5, rel=1e-4)
    with pytest.raises(ParameterError):
        power_tail_weight(1.0, 0.0, 1.0)


def test_custom_weight_rejects_nonpositive():
    with pytest.raises(ParameterError):
        custom_weight(lambda s: np.asarray(s) * 0.0, alpha=0.0,
                      cg_plus=1.0, cg_minus=1.0)


# ---------------------------------------------------------------------------
# initial data and boundary certificates
# ---------------------------------------------------------------------------


def test_initial_constructor_validation():
    with pytest.raises(ParameterError):
        initial_b2(lambda x: x, gamma=0.0)
    with pytest.raises(ParameterError):
        initial_b3(lambda x: x, gamma_plus=-1.0, gamma_minus=1.0,
                   d_plus=1.0, d_minus=1.0, chat_plus=0.0, chat_minus=0.0)
    with pytest.raises(ParameterError):
        initial_b3(lambda x: x, gamma_plus=1.0, gamma_minus=1.0,
                   d_plus=0.0, d_minus=1.0, chat_plus=0.0, chat_minus=0.0)


def test_make_problem_accepts_bounded_b1():
    f, g = preset_curvature(1.0)
    spec = make_problem(2.0, f, g, initial_b1(
        lambda x: np.cos(np.asarray(x, dtype=float))))
    assert spec.b == 2.0 and spec.u0.klass == "B1"


def test_make_problem_rejects_nonfinite_b1():
    f, g = preset_curvature(1.0)

    def values(x):
        xs = np.asarray(x, dtype=float)
        return np.where(1.0 - np.abs(xs) <= 1e-8, np.inf, 0.0)

    with pytest.raises(ParameterError):
        make_problem(1.0, f, g, initial_b1(values))


def test_make_problem_accepts_diverging_b2():
    f, g = preset_curvature(1.0)
    b = 1.0

    def values(x):
        xs = np.asarray(x, dtype=float)
        return psi(0.5, b - xs) + psi(0.5, b + xs)

    spec = make_problem(b, f, g, initial_b2(values, gamma=0.5))
    assert spec.u0.gamma == 0.5


def test_make_problem_rejects_bounded_b2():
    f, g = preset_curvature(1.0)
    with pytest.raises(ParameterError):
        make_problem(1.0, f, g, initial_b2(
            lambda x: np.ones_like(np.asarray(x, dtype=float)), gamma=1.0))


def test_make_problem_b3_offsets_include_far_wall():
    """The remainder limit at one wall picks up the other wall's finite
    tail contribution, not just the additive constant."""
    f, g = preset_curvature(1.0)
    b = 1.0

    def values(x):
        xs = np.asarray(x, dtype=float)
        return 2.0 * psi(1.0, b - xs) + 3.0 * psi(1.0, b + xs) + 0.5

    good = initial_b3(values, gamma_plus=1.0, gamma_minus=1.0,
                      d_plus=2.0, d_minus=3.0,
                      chat_plus=0.5 + 3.0 * psi(1.0, 2.0 * b),
                      chat_minus=0.5 + 2.0 * psi(1.0, 2.0 * b))
    assert make_problem(b, f, g, good).u0.chat_plus == 2.0

    bad = initial_b3(values, gamma_plus=1.0, gamma_minus=1.0,
                     d_plus=2.0, d_minus=3.0, chat_plus=0.5, chat_minus=0.5)
    with pytest.raises(ParameterError):
        make_problem(b, f, g, bad)


def test_make_problem_rejects_bad_halfwidth():
    f, g = preset_curvature(1.0)
    with pytest.raises(ParameterError):
        make_problem(0.0, f, g, _flat())
    with pytest.raises(ParameterError):
        make_problem(2.0 ** -12, f, g, _flat())
