"""Scaling maps, boundary-rate fitting and the invariant suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singflow import (InsufficientDataError, ParameterError,
                      fit_boundary_rate, scale_sub, scale_super)
from singflow.wave import _default_gamma_grid


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
    grid = _default_gamma_grid(1.5)
    assert 1.0 in grid and 0.0 in grid and 5.0 in grid
    fine = _default_gamma_grid(1.6)
    assert any(abs(gv - 2.0 / 3.0) < 1e-12 for gv in fine)
    assert len(_default_gamma_grid()) == 21


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


@pytest.mark.parametrize("where, value", [("u", math.nan), ("u", math.inf),
                                          ("u", -math.inf), ("x", math.nan)])
def test_fit_refuses_non_finite_samples(where, value):
    """One bad sample is a ParameterError, even among too few samples;
    it used to read as the log rate with a nan slope."""
    b = 1.0
    dist = 2.0 ** -np.arange(3, 31, dtype=float)
    x, u = b - dist, 3.0 * dist ** -2.0
    (u if where == "u" else x)[5] = value
    with pytest.raises(ParameterError, match="finite"):
        fit_boundary_rate(x, u, b)
    with pytest.raises(ParameterError, match="finite"):
        fit_boundary_rate(x[3:7], u[3:7], b)


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


def test_a_fixture_that_fails_fails_each_check_that_uses_it(monkeypatch):
    """The suite's fixture cache keeps no exception: each check that asks
    for the barrier family set builds it again, fails, and the run goes
    on."""
    from singflow import suite

    calls = []

    def broken(*args):
        calls.append(args)
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(suite, "super_family", broken)
    monkeypatch.setattr(suite, "CHECKS", tuple(
        (name, fn) for name, fn in suite.CHECKS
        if name in ("barrier_derivative_consistency", "super_trajectory",
                    "rate_fit_recovery")))
    suite._family_instances.cache_clear()
    summary = suite.run_suite()
    assert [c["pass"] for c in summary["checks"]] == [False, False, True]
    assert all("ZeroDivisionError" in c["detail"]
               for c in summary["checks"][:2])
    assert len(calls) == 2
