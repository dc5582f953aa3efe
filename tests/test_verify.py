"""Residual bookkeeping, scaling maps, boundary-rate fitting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singflow import (InsufficientDataError, ParameterError,
                      default_gamma_grid, fit_boundary_rate, initial_b1,
                      make_problem, preset_curvature, residual_values,
                      scale_sub, scale_super)


def _curvature_spec():
    f, g = preset_curvature(1.0)
    return make_problem(1.0, f, g, initial_b1(
        lambda x: np.zeros_like(np.asarray(x, dtype=float))))


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_residual_sign_convention():
    spec = _curvature_spec()
    f, g = spec.f, spec.g
    # dt = 0, positive curvature: the flow pushes up, residual negative.
    assert residual_values(f, g, 0.0, 0.0, 1.0) == pytest.approx(-1.0)
    assert residual_values(f, g, 2.0, 0.0, 1.0) == pytest.approx(1.0)
    assert residual_values(f, g, 0.0, 0.0, 0.0, factor=0.5) == 0.0


def test_residual_values_vectorized():
    spec = _curvature_spec()
    dx = np.array([0.0, 1.0, -2.0])
    dxx = np.array([1.0, -1.0, 2.0])
    out = residual_values(spec.f, spec.g, 0.0, dx, dxx)
    expected = [float(residual_values(spec.f, spec.g, 0.0, float(p), float(z)))
                for p, z in zip(dx, dxx)]
    np.testing.assert_allclose(out, expected)


@settings(max_examples=60, deadline=None)
@given(dt=st.floats(-3.0, 3.0), dx=st.floats(-10.0, 10.0),
       dxx=st.floats(-5.0, 5.0),
       fa=st.floats(0.1, 4.0), fb=st.floats(0.1, 4.0))
def test_residual_monotone_in_factor(dt, dx, dxx, fa, fb):
    """Raising the factor lowers the residual wherever dxx >= 0 and raises
    it wherever dxx <= 0 (monotonicity of the outer nonlinearity)."""
    spec = _curvature_spec()
    lo_f, hi_f = min(fa, fb), max(fa, fb)
    lo = residual_values(spec.f, spec.g, dt, dx, dxx, factor=lo_f)
    hi = residual_values(spec.f, spec.g, dt, dx, dxx, factor=hi_f)
    if dxx >= 0.0:
        assert hi <= lo + 1e-12
    else:
        assert hi >= lo - 1e-12


# ---------------------------------------------------------------------------
# scaling maps
# ---------------------------------------------------------------------------


def test_scaling_definitions():
    fn = lambda x, t: x * x + 3.0 * t
    lam = 0.5
    assert scale_super(fn, lam)(0.4, 0.2) == pytest.approx(
        fn(1.5 * 0.4, 1.5 * 0.2) / 1.5)
    assert scale_sub(fn, lam)(0.4, 0.2) == pytest.approx(
        1.5 * fn(0.4 / 1.5, 0.2 / 1.5))


@settings(max_examples=80, deadline=None)
@given(lam=st.floats(0.0, 1.0, exclude_max=True),
       x=st.floats(-2.0, 2.0), t=st.floats(0.0, 2.0),
       a=st.floats(-2.0, 2.0), c=st.floats(-2.0, 2.0))
def test_scaling_roundtrip_is_identity(lam, x, t, a, c):
    fn = lambda xx, tt: a * xx * xx + c * tt + 0.7 * xx
    back = scale_sub(scale_super(fn, lam), lam)
    assert math.isclose(back(x, t), fn(x, t),
                        rel_tol=1e-12, abs_tol=1e-12)


def test_scaling_rejects_bad_lambda():
    fn = lambda x, t: x
    for lam in (-0.1, 1.0, 2.0):
        with pytest.raises(ParameterError):
            scale_super(fn, lam)
        with pytest.raises(ParameterError):
            scale_sub(fn, lam)


# ---------------------------------------------------------------------------
# boundary-rate fitting
# ---------------------------------------------------------------------------


def test_gamma_grid_contains_distinguished_rate():
    grid = default_gamma_grid(1.5)
    assert 1.0 in grid and 0.0 in grid and 5.0 in grid
    fine = default_gamma_grid(1.6)
    assert any(abs(gv - 2.0 / 3.0) < 1e-12 for gv in fine)
    assert len(default_gamma_grid()) == 21


def test_fit_recovers_planted_power():
    b = 1.0
    dist = 2.0 ** -np.arange(3, 31, dtype=float)
    gamma_fit, d_fit, spread = fit_boundary_rate(
        b - dist, 3.0 * dist ** -2.0, b)
    assert gamma_fit == 2.0
    assert d_fit == pytest.approx(3.0, abs=1e-10)
    assert spread < 1e-10


def test_fit_recovers_planted_log():
    b = 1.0
    dist = 2.0 ** -np.arange(3, 31, dtype=float)
    gamma_fit, d_fit, spread = fit_boundary_rate(
        b - dist, -1.5 * np.log(dist) + 7.0, b)
    assert gamma_fit == 0.0
    assert d_fit == pytest.approx(1.5, abs=1e-10)
    assert spread < 1e-10


def test_fit_left_wall():
    b = 2.0
    dist = 2.0 ** -np.arange(2, 24, dtype=float)
    gamma_fit, d_fit, _ = fit_boundary_rate(
        -b + dist, 0.5 * dist ** -1.0, b, side=-1)
    assert gamma_fit == 1.0 and d_fit == pytest.approx(0.5, abs=1e-10)


def test_fit_insufficient_data():
    b = 1.0
    with pytest.raises(InsufficientDataError):
        fit_boundary_rate(b - np.array([0.1, 0.2, 0.3]),
                          np.array([1.0, 2.0, 3.0]), b)
    narrow = b - np.linspace(0.1, 0.2, 12)
    with pytest.raises(InsufficientDataError):
        fit_boundary_rate(narrow, np.ones(12), b)


def test_fit_input_validation():
    b = 1.0
    dist = 2.0 ** -np.arange(3, 14, dtype=float)
    with pytest.raises(ParameterError):
        fit_boundary_rate(b - dist, dist, b, side=2)
    with pytest.raises(ParameterError):
        fit_boundary_rate(np.array([0.5, 1.5]), np.array([1.0, 2.0]), b)


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------


def test_run_suite_survives_a_raising_check(monkeypatch):
    from singflow import suite

    def broken():
        raise ZeroDivisionError("planted")

    ran = []

    def after():
        ran.append(True)
        return True, "ran"

    monkeypatch.setattr(suite, "CHECKS", (("broken", broken),
                                          ("after", after)))
    summary = suite.run_suite()
    assert ran == [True]
    assert [c["pass"] for c in summary["checks"]] == [False, True]
    assert "ZeroDivisionError" in summary["checks"][0]["detail"]
    assert summary["n_failed"] == 1 and not summary["pass"]
