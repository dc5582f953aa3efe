"""Explicit scheme: CFL, comparison, caps and rate fits."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import logging
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from singflow import (Nonlinearity, ParameterError, SolverOverflowError,
                      StepSizeError, cap_studies, cap_study, cfl_limit,
                      compute_wave, initial_b1, initial_b3, make_field,
                      make_problem, march_ordered, preset_curvature,
                      preset_p_heat, psi, solve, step)
from singflow import solver
from singflow.solver import _kernel, _march, _padded, _probe_value


def _flat():
    return initial_b1(lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def _curvature_spec(beta2=1.0, b=1.0):
    f, g = preset_curvature(beta2)
    return make_problem(b, f, g, _flat())


# ---------------------------------------------------------------------------
# grid fields
# ---------------------------------------------------------------------------


def test_make_field_clamps_at_cap():
    field = make_field(1.0, 9, lambda x: 10.0 * np.ones_like(x), cap=3.0)
    assert np.all(field.values == 3.0)
    assert field.ghost_left == 3.0
    assert field.dx == pytest.approx(0.2)
    np.testing.assert_allclose(field.nodes[[0, -1]], [-0.8, 0.8])


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_make_field_rejects_nonfinite_half_widths(b):
    with pytest.raises(ParameterError, match="half-width"):
        make_field(b, 9, lambda x: np.zeros_like(x), cap=1.0)


def test_make_field_refuses_a_step_without_a_finite_square():
    """dx = 2b/(n+1) squares past the float range at b = 1e300, n = 20;
    the kernel's dx^2 used to raise a bare OverflowError there."""
    with pytest.raises(ParameterError, match="finite square"):
        make_field(1e300, 20, np.zeros(20), cap=1.0)
    with pytest.raises(ParameterError, match="finite square"):
        solve(_curvature_spec(b=1e300), 20, 1.0, 1e-3)
    assert solve(_curvature_spec(b=1e150), 20, 1.0, 1e-3).final.n == 20


def test_make_field_validation():
    with pytest.raises(ParameterError):
        make_field(0.0, 9, lambda x: x, cap=1.0)
    with pytest.raises(ParameterError):
        make_field(1.0, 2, lambda x: x, cap=1.0)
    with pytest.raises(ParameterError):
        make_field(1.0, 9, np.zeros(5), cap=1.0)
    with pytest.raises(ParameterError):
        make_field(1.0, 9, lambda x: np.full_like(x, np.nan), cap=1.0)


def test_asymmetric_caps():
    field = make_field(1.0, 9, lambda x: 0.0 * x, cap=2.0, cap_minus=-1.0)
    assert field.ghost_left == -1.0
    assert field.cap == 2.0


def test_cfl_limit_scales_with_grid():
    spec = _curvature_spec()
    coarse = make_field(1.0, 50, lambda x: 0.1 * np.sin(x), cap=2.0)
    fine = make_field(1.0, 100, lambda x: 0.1 * np.sin(x), cap=2.0)
    dt_c, dt_f = cfl_limit(coarse, spec), cfl_limit(fine, spec)
    assert dt_c > 0.0 and dt_f > 0.0
    ratio = (coarse.dx / fine.dx) ** 2
    assert dt_c / dt_f == pytest.approx(ratio, rel=0.3)


# ---------------------------------------------------------------------------
# evolution properties
# ---------------------------------------------------------------------------


def test_max_principle_and_no_violations():
    f, g = preset_curvature(1.0)
    spec = make_problem(1.0, f, g, initial_b1(
        lambda x: 0.5 - 0.5 * np.asarray(x, dtype=float) ** 2))
    report = solve(spec, 100, 5.0, 0.02)
    assert report.comparison_violations == 0
    assert not report.diverged
    assert float(np.max(report.final.values)) <= 5.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(1.0, 2.0), eps=st.floats(0.05, 1.0),
       n=st.integers(10, 60), cap=st.floats(1.0, 20.0),
       t_end=st.floats(1e-6, 5e-3), gap=st.floats(0.05, 0.25),
       data=st.data())
def test_max_principle_and_order_hold_on_p_heat(beta, eps, n, cap, t_end,
                                                 gap, data):
    """p_heat(2, beta, eps) has a constant g and, for beta >= 1, a convex
    f, so the explicit step is monotone at its CFL step: bounded data stay
    within their bounds (the walls hold the cap) and ordered pairs stay
    ordered."""
    values = cap * np.array(data.draw(st.lists(
        st.floats(0.0, 1.0), min_size=n, max_size=n)))
    nodes = make_field(1.0, n, values, cap).nodes
    spec = make_problem(1.0, *preset_p_heat(2.0, beta, eps), initial_b1(
        lambda x: np.interp(x, nodes, values)))
    report = solve(spec, n, cap, t_end)
    bound = max(cap, float(np.max(values)))
    tol = 1e-9 * max(1.0, bound)
    assert report.comparison_violations == 0
    assert float(np.max(report.final.values)) <= bound + tol
    assert float(np.min(report.final.values)) >= float(np.min(values)) - tol
    _, _, excess = march_ordered(spec, [make_field(1.0, n, values, cap)],
                                 [make_field(1.0, n, values + gap, cap)],
                                 t_end)
    assert excess.max() <= 0.0


@pytest.mark.parametrize("fg", [preset_curvature(0.6), preset_curvature(1.0),
                                preset_p_heat(2.0, 2.0, 0.1)],
                         ids=["curvature(0.6)", "curvature(1)",
                              "p_heat(2,2,0.1)"])
def test_cfl_limit_equals_the_step_kernel_limit(fg):
    """cfl_limit is the step kernel's limit, bit for bit."""
    spec = make_problem(1.0, *fg, _flat())
    rng = np.random.default_rng(7)
    for n, cap in ((20, 1.0), (100, 30.0), (400, 1e6)):
        field = make_field(1.0, n, cap * rng.random(n) ** 3, cap,
                           cap_minus=0.5 * cap)
        limit, _ = _kernel(_padded([field]), field.dx, spec)
        assert cfl_limit(field, spec) == float(limit[0])


def _lockstep(spec, lo, hi, t_end):
    """march_ordered's reference: cfl_limit and step calls on one pair."""
    excess = -np.inf
    while lo.time < t_end:
        dt = 0.9 * min(cfl_limit(lo, spec), cfl_limit(hi, spec))
        dt = min(dt, t_end - lo.time)
        lo, hi = step(lo, spec, dt), step(hi, spec, dt)
        excess = max(excess, float(np.max(lo.values - hi.values)))
    return lo, hi, excess


def test_lockstep_comparison_preserves_order():
    """march_ordered equals the per-call loop bit for bit, on pairs with
    their own caps, a left cap and a later start time."""
    low = lambda x: -0.5 + 0.2 * np.cos(3.0 * x)          # noqa: E731
    high = lambda x: 0.1 + 0.3 * np.sin(2.0 * x) ** 2     # noqa: E731
    pairs = [(make_field(1.0, 100, low, cap, cap_minus=minus, time=time),
              make_field(1.0, 100, high, 2.0 * cap, time=time))
             for cap, minus, time in ((4.0, None, 0.0), (1.0, -2.0, 0.005),
                                      (20.0, 3.0, 0.0))]
    for fg in (preset_curvature(0.6), preset_curvature(1.0),
               preset_p_heat(2.0, 1.0, 0.1)):
        spec = make_problem(1.0, *fg, _flat())
        got = march_ordered(spec, *zip(*pairs), 0.01)
        for lo, hi, excess, pair in zip(*got, pairs):
            want = _lockstep(spec, *pair, 0.01)
            states = [(fld.values.tobytes(), fld.time, fld.cap,
                       fld.cap_minus) for fld in (lo, hi, *want[:2])]
            assert states[:2] == states[2:]
            assert excess == want[2] <= 1e-12


def test_a_failed_block_restores_each_pairs_excess():
    """The CFL step grows on these pairs, so a block overshoots the stop
    and is replayed step by step; the excess widened on the failed block
    is put back, and equals the reference loop's bit for bit."""
    spec = make_problem(1.0, *preset_p_heat(3.0, 1.0, 0.1), _flat())
    lo, hi = (make_field(1.0, 60, lambda x, top=top:
                         top - np.exp(-(x / 0.1) ** 2), 2.0)
              for top in (1.5, 1.55))
    lows, highs, excess = march_ordered(spec, [lo], [hi], 3e-3)
    want = _lockstep(spec, lo, hi, 3e-3)
    assert (lows[0].values.tobytes(), highs[0].values.tobytes()) == (
        want[0].values.tobytes(), want[1].values.tobytes())
    assert excess[0] == want[2] == -0.005534041417934121


def test_march_ordered_validation():
    spec, lo = _curvature_spec(), _field()
    for highs in ([lo, lo], [make_field(2.0, 9, _FLAT, 2.0)],
                  [make_field(1.0, 10, np.zeros(10), 2.0)],
                  [dataclasses.replace(lo, time=0.001)]):
        with pytest.raises(ParameterError):
            march_ordered(spec, [lo], highs, 0.01)
    assert march_ordered(spec, [], [], 0.01)[:2] == ([], [])
    at_int_zero = dataclasses.replace(lo, time=0)
    assert march_ordered(spec, [at_int_zero], [lo], 1e-4)[1][0].time == 1e-4


def test_pairs_at_or_past_t_end_take_no_step():
    """A pair that starts at or past t_end comes back as it went in, with
    excess -inf, beside a pair that marches and in a batch of such pairs
    alone."""
    spec = _curvature_spec()
    lo = make_field(1.0, 30, lambda x: -0.5 + 0.2 * np.cos(3.0 * x), 2.0)
    hi = make_field(1.0, 30, lambda x: 0.1 + 0.3 * np.sin(2.0 * x), 4.0,
                    cap_minus=3.0)
    late = [dataclasses.replace(fld, time=0.02) for fld in (lo, hi)]
    cases = [([lo, late[0]], [hi, late[1]], 0.01, [1]),
             ([lo, lo], [hi, hi], -1.0, [0, 1]),
             ([lo, lo], [hi, hi], 0.0, [0, 1])]
    for lows, highs, t_end, idle in cases:
        got = march_ordered(spec, lows, highs, t_end)
        for k in range(2):
            before = [(fld.values.tobytes(), fld.time, fld.cap, fld.cap_minus)
                      for fld in (lows[k], highs[k])]
            after = [(fld.values.tobytes(), fld.time, fld.cap, fld.cap_minus)
                     for fld in (got[0][k], got[1][k])]
            assert (after == before) == (k in idle)
            assert (got[2][k] == -np.inf) == (k in idle)
        if 0 not in idle:
            assert got[0][0].time == got[1][0].time == t_end


def test_odd_data_stay_odd():
    """With f odd, g even and mirrored caps the scheme is equivariant under
    (x, u) -> (-x, -u), so odd data evolve into odd states."""
    f, g = preset_curvature(1.0)
    spec = make_problem(1.0, f, g, initial_b1(
        lambda x: 0.5 * np.sin(np.pi * np.asarray(x, dtype=float))))
    field = make_field(1.0, 64, spec.u0.values, cap=3.0, cap_minus=-3.0)
    for _ in range(200):
        field = step(field, spec, 0.5 * cfl_limit(field, spec))
    assert float(np.max(np.abs(field.values + field.values[::-1]))) < 1e-10


def test_snapshots_land_on_exact_times():
    spec = _curvature_spec()
    times = [0.0, 0.004, 0.01]
    report = solve(spec, 60, 2.0, 0.01, snapshot_times=times)
    assert [t for t, _ in report.snapshots] == times
    np.testing.assert_allclose(report.snapshots[0][1], 0.0)
    assert report.final.time == pytest.approx(0.01)


def test_cfl_collapse_flags_divergence():
    f, g = preset_p_heat(2.0, 2.0, 0.1)
    spec = make_problem(1.0, f, g, _flat())
    report = solve(spec, 20, 1e13, 0.1)
    assert report.diverged
    assert report.blowup_time == 0.0


def test_step_refuses_every_dt_when_the_stability_limit_is_nan():
    """f is nan beyond |s| = 1.5, so the CFL secants are nan: `solve` stops
    at t = 0, and `step` used to take dt = 1e6."""
    def clipped(s):
        a = np.asarray(s, dtype=float)
        return np.where(np.abs(a) <= 1.5, a, np.nan)

    f = Nonlinearity(eval=clipped, inverse=float, beta=None, cf_plus=None,
                     cf_minus=None, kind="clipped")
    _, g = preset_p_heat(2.0, 1.0, 0.1)
    spec = make_problem(1.0, f, g, initial_b1(
        lambda x: 0.5 * np.asarray(x, dtype=float) ** 2))
    field = make_field(1.0, 20, spec.u0.values, 0.5)
    assert math.isnan(cfl_limit(field, spec))
    with pytest.raises(StepSizeError, match="stability limit is nan"):
        step(field, spec, 1e6)
    report = solve(spec, 20, 0.5, 0.1)
    assert report.diverged and report.blowup_time == 0.0


def test_solve_validation():
    spec = _curvature_spec()
    with pytest.raises(ParameterError):
        solve(spec, 60, 2.0, 0.0)


_NAN, _INF = float("nan"), float("inf")
_FLAT = np.zeros(9)


def _field():
    return make_field(1.0, 9, _FLAT, cap=2.0)


@pytest.mark.parametrize("call", [
    lambda spec: solve(spec, 10, 2.0, _INF),
    lambda spec: solve(spec, 10, 2.0, _NAN),
    lambda spec: solve(spec, 10, _INF, 0.01),
    lambda spec: solve(spec, 10, _NAN, 0.01),
    lambda spec: solve(spec, 10, 2.0, 0.01, cap_minus=_NAN),
    lambda spec: solve(spec, 10, 2.0, 0.01, cap_minus=-_INF),
    lambda spec: cap_study(spec, 10, [2.0, 4.0, 8.0, 16.0], (0.0, _NAN)),
    lambda spec: cap_study(spec, 10, [2.0, 4.0, 8.0, 16.0], (0.0, _INF)),
    lambda spec: cap_study(spec, 10, [2.0, 4.0, 8.0, _INF], (0.0, 0.01)),
    lambda spec: solve(spec, 10, 2.0, 0.01, snapshot_times=[_NAN, 0.005]),
    lambda spec: solve(spec, 10, 2.0, 0.01, snapshot_times=[0.005, 0.02]),
    lambda spec: step(_field(), spec, _NAN),
    lambda spec: step(_field(), spec, _INF),
    lambda spec: march_ordered(spec, [_field()], [_field()], _NAN),
    lambda spec: march_ordered(spec, [_field()], [_field()], _INF),
    lambda spec: make_field(1.0, 9, _FLAT, cap=_INF),
    lambda spec: make_field(1.0, 9, _FLAT, cap=2.0, cap_minus=_INF),
], ids=["solve-t_end-inf", "solve-t_end-nan", "solve-cap-inf",
        "solve-cap-nan", "solve-cap_minus-nan", "solve-cap_minus-inf",
        "cap_study-probe-nan", "cap_study-probe-inf", "cap_study-cap-inf",
        "solve-snapshot-nan", "solve-snapshot-past-t_end", "step-dt-nan",
        "step-dt-inf", "march_ordered-t_end-nan", "march_ordered-t_end-inf",
        "make_field-cap-inf",
        "make_field-cap_minus-inf"])
def test_non_finite_inputs_raise_before_marching(call, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("marched on a non-finite input")

    spec = _curvature_spec()
    monkeypatch.setattr(solver, "_march", no_run)
    monkeypatch.setattr(solver, "_kernel", no_run)
    with pytest.raises(ParameterError):
        call(spec)


# ---------------------------------------------------------------------------
# boundary-rate fitting on final states
# ---------------------------------------------------------------------------


def test_b3_run_reports_boundary_rates():
    f, g = preset_curvature(1.0)
    b = 1.0

    def values(x):
        xs = np.asarray(x, dtype=float)
        return psi(1.0, b - xs) + psi(1.0, b + xs)

    u0 = initial_b3(values, 1.0, 1.0, 1.0, 1.0,
                    chat_plus=psi(1.0, 2.0), chat_minus=psi(1.0, 2.0))
    spec = make_problem(b, f, g, u0)
    report = solve(spec, 1801, 1e4, 2e-5)
    assert report.rate_fit is not None
    for side in ("plus", "minus"):
        gamma_fit, d_fit, spread = report.rate_fit[side]
        assert gamma_fit == 1.0
        assert d_fit == pytest.approx(1.0, rel=0.01)
        assert spread < 0.01


def test_narrow_window_reports_no_rates():
    f, g = preset_curvature(1.0)
    b = 1.0

    def values(x):
        xs = np.asarray(x, dtype=float)
        return psi(1.0, b - xs) + psi(1.0, b + xs)

    u0 = initial_b3(values, 1.0, 1.0, 1.0, 1.0,
                    chat_plus=psi(1.0, 2.0), chat_minus=psi(1.0, 2.0))
    spec = make_problem(b, f, g, u0)
    assert solve(spec, 200, 30.0, 1e-5).rate_fit is None


# ---------------------------------------------------------------------------
# exact solutions of p_heat(2, beta, eps): g = 1 + eps, f = s^beta
# ---------------------------------------------------------------------------


def _wall_integral(q, s_end):
    """int_1^Y (y^(q+1) - 1)^(-1/2) dy with y = 1 + s^2, to s_end =
    sqrt(Y - 1): the substitution removes the singularity at y = 1."""
    return quad(lambda s: 2.0 * s / math.sqrt(
        math.expm1((q + 1.0) * math.log1p(s * s))), 0.0, s_end)[0]


def _separable(beta, eps, b, x, t):
    """The large solution u = t^gamma A(x) of zero data for beta < 1.

    With gamma = 1/(1 - beta), A'' = K A^q, q = 1/beta, K = (1 - beta)^(-q)
    / c, c = 1 + eps, A'(0) = 0 and A(+-b) = infinity (Keller, Comm. Pure
    Appl. Math. 10, 1957; Osserman, Pacific J. Math. 7, 1957).  The first
    integral gives b = sqrt((q+1)/(2K)) a0^((1-q)/2) int_1^inf for
    a0 = A(0), and A(x) = a0 Y where int_1^Y takes the share |x|/b of the
    whole integral: one quadrature and one root.
    """
    q = 1.0 / beta
    k = (1.0 - beta) ** (-q) / (1.0 + eps)
    total = _wall_integral(q, math.inf)
    a0 = (b / (math.sqrt((q + 1.0) / (2.0 * k)) * total)) ** (2.0 / (1.0 - q))
    share = abs(x) / b * total
    hi = 1.0
    while _wall_integral(q, hi) < share:
        hi *= 2.0
    s = brentq(lambda s: _wall_integral(q, s) - share, 0.0, hi, xtol=1e-14,
               rtol=1e-14)
    return t ** (1.0 / (1.0 - beta)) * a0 * (1.0 + s * s)


def test_separable_solution_matches_recorded_values():
    for x, u in [(0.0, 0.0243307), (0.5, 0.0664726), (0.9, 1.65000)]:
        assert _separable(0.5, 0.1, 1.0, x, 0.1) == pytest.approx(u,
                                                                  rel=1e-5)


def _p_heat_spec(beta, eps=0.1):
    return make_problem(1.0, *preset_p_heat(2.0, beta, eps), _flat())


def test_capped_scheme_converges_to_the_separable_solution_at_first_order():
    """At dt = cfl_limit / 16 (so the step error is out) and cap 640 the
    centre value at t = 0.1 approaches the exact one from above, at first
    order in dx: +20.86 % at n = 50 and +9.73 % at n = 100 (ratio 2.14).
    The uniform grid does not resolve the wall layer."""
    spec, t_end = _p_heat_spec(0.5), 0.1
    exact = _separable(0.5, 0.1, 1.0, 0.0, t_end)
    errors = []
    for n in (50, 100):
        field = make_field(1.0, n, np.zeros(n), cap=640.0)
        while field.time < t_end:
            dt = min(cfl_limit(field, spec) / 16.0, t_end - field.time)
            field = step(field, spec, dt)
        errors.append(np.interp(0.0, field.nodes, field.values) / exact - 1)
    assert errors[0] > errors[1] > 0.0
    assert 1.8 <= errors[0] / errors[1] <= 2.3


@pytest.mark.parametrize("beta2", [1.0, 2.0, 0.6])
def test_traveling_wave_is_reproduced_at_second_order(beta2):
    """For alpha > 1, u = W(x) + c t with the computed wave (W, c) on b = 1
    solves the problem on (-a, a) with data W(+-a) + c t.  Marching W to
    t = 0.01 on a = 0.5 with the caps reset to that data after each step,
    the max nodal error falls at second order in dx: 2.52e-6 -> 6.30e-7
    for curvature(1) (alpha = 2), 3.36e-6 -> 8.39e-7 for curvature(2)
    (alpha = 2.5), 1.33e-5 -> 3.37e-6 for curvature(0.6) (alpha = 1.33),
    at n = 49 and 99."""
    spec = _curvature_spec(beta2)
    profile = compute_wave(spec)
    w, c, a, t_end = profile.w, profile.c, 0.5, 0.01
    errors = []
    for n in (49, 99):
        field = make_field(a, n, w, cap=float(w(a)), cap_minus=float(w(-a)))
        while field.time < t_end:
            dt = min(cfl_limit(field, spec), t_end - field.time)
            field = step(field, spec, dt)
            field = dataclasses.replace(
                field, cap=float(w(a)) + c * field.time,
                cap_minus=float(w(-a)) + c * field.time)
        exact = w(field.nodes) + c * field.time
        errors.append(float(np.max(np.abs(field.values - exact))))
    assert 1.9 <= math.log2(errors[0] / errors[1]) <= 2.1


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
def test_cap_scaling_law(beta):
    """u_M(x, t) = M V(x, M^(beta-1) t) with V the cap-1 solution, exact for
    the PDE with zero data.  The explicit scheme keeps it up to its step
    choice: max |u_M - M V| / M at n = 100, t = 0.02 read 1.8e-16 (beta = 1,
    M = 10 and 40), 7.1e-16 and 5.1e-9 (beta = 1.5), 1.2e-15 and 1.3e-6
    (beta = 2, where the M = 40 pair takes 18,152 and 19,089 steps)."""
    spec = _p_heat_spec(beta)
    for m in (10.0, 40.0):
        u_m = solve(spec, 100, m, 0.02)
        v = solve(spec, 100, 1.0, m ** (beta - 1.0) * 0.02)
        assert not (u_m.diverged or v.diverged)
        gap = np.max(np.abs(u_m.final.values - m * v.final.values)) / m
        assert gap <= 1e-5, (m, gap)


# ---------------------------------------------------------------------------
# cap ladders
# ---------------------------------------------------------------------------


def test_cap_study_saturates_in_existence_regime():
    study = cap_study(_curvature_spec(), 100, [2.0, 4.0, 6.0, 8.0],
                      probe=(0.0, 0.05))
    assert study.verdict == "saturating"
    assert len(study.rows) == 4
    assert [row["cap"] for row in study.rows] == [2.0, 4.0, 6.0, 8.0]


def test_cap_study_validation():
    spec = _curvature_spec()
    with pytest.raises(ParameterError):
        cap_study(spec, 100, [4.0, 2.0], probe=(0.0, 0.05))
    with pytest.raises(ParameterError):
        cap_study(spec, 100, [2.0, 4.0], probe=(1.5, 0.05))
    with pytest.raises(ParameterError):
        cap_study(spec, 100, [2.0, 4.0], probe=(0.0, 0.0))


# ---------------------------------------------------------------------------
# batched marching reproduces one-row solves bit for bit
# ---------------------------------------------------------------------------


# sha256 of final.values.tobytes() and the dt history of flat-datum solves at
# n = 50, recorded from the unbatched scheme (separate CFL and update passes).
PINNED = [
    (preset_curvature(1.0), 5.0, 0.05,
     "29baa3fd7406396baa7e7b940daad5e83e57c57df25f7889b3ba4a33bba07e34",
     {"n_steps": 131.0, "dt_min": 1.9223352949994388e-05,
      "dt_max": 0.00038446751450742055, "dt_mean": 0.0003816793893129771}),
    (preset_p_heat(2.0, 2.0, 0.1), 20.0, 0.02,
     "4890a22a757ccbc71f7c2221b962da997899684daee12d807faea81a5d991101",
     {"n_steps": 3342.0, "dt_min": 1.2216137864813407e-08,
      "dt_max": 1.1663861655718808e-05, "dt_mean": 5.984440454817474e-06}),
]


@pytest.mark.parametrize("fg, cap, t_end, digest, history", PINNED,
                         ids=["curvature(1)", "p_heat(2,2,0.1)"])
def test_solve_matches_pinned_results(fg, cap, t_end, digest, history):
    report = solve(make_problem(1.0, *fg, _flat()), 50, cap, t_end)
    assert hashlib.sha256(report.final.values.tobytes()).hexdigest() == digest
    assert report.dt_history == history
    assert report.final.time == t_end


def _assert_same_report(batch, alone):
    assert batch.final.values.tobytes() == alone.final.values.tobytes()
    # repr keeps a nan blow-up time comparable
    assert repr((batch.final.time, batch.final.cap, batch.final.cap_minus,
                 batch.dt_history, batch.comparison_violations,
                 batch.diverged, batch.blowup_time)) == repr(
        (alone.final.time, alone.final.cap, alone.final.cap_minus,
         alone.dt_history, alone.comparison_violations, alone.diverged,
         alone.blowup_time))
    assert len(batch.snapshots) == len(alone.snapshots)
    for (tb, vb), (ta, va) in zip(batch.snapshots, alone.snapshots):
        assert tb == ta and vb.tobytes() == va.tobytes()


def _assert_ladder_matches_solves(spec, n, caps, probe):
    alone = [solve(spec, n, cap, probe[1]) for cap in caps]
    fields = [make_field(spec.b, n, spec.u0.values, cap) for cap in caps]
    for batch, solo in zip(_march(spec, fields, probe[1]), alone):
        _assert_same_report(batch, solo)
    study = cap_study(spec, n, caps, probe)
    assert [row["value"] for row in study.rows] == [
        _probe_value(rep, probe[0]) for rep in alone]
    assert [row["diverged"] for row in study.rows] == [
        float(rep.diverged) for rep in alone]
    return alone


def test_cap_study_rows_retiring_at_different_steps():
    spec = make_problem(1.0, *preset_p_heat(2.0, 2.0, 0.1), _flat())
    alone = _assert_ladder_matches_solves(spec, 30, [10.0, 20.0, 40.0, 1e13],
                                          (0.0, 0.005))
    steps = [rep.dt_history["n_steps"] for rep in alone]
    assert len(set(steps[:3])) == 3
    assert alone[-1].diverged and alone[-1].blowup_time == 0.0


def test_cap_study_with_an_overflowing_row(caplog):
    """f turns non-finite above an argument the steepest caps reach at once,
    so those rows leave the batch on their first step."""
    base = make_problem(1.0, *preset_p_heat(2.0, 1.0, 0.1), _flat())

    def f_eval(s):
        s = np.asarray(s, dtype=float)
        return np.where(s > 1.2e4, np.nan, s)

    spec = dataclasses.replace(base, f=dataclasses.replace(base.f,
                                                            eval=f_eval))
    with caplog.at_level(logging.WARNING, logger="singflow.solver"):
        alone = _assert_ladder_matches_solves(
            spec, 30, [5.0, 10.0, 20.0, 40.0], (0.0, 0.005))
    assert "f returned non-finite values at t = 0" in caplog.text
    assert [rep.diverged for rep in alone] == [False, False, False, True]
    assert alone[-1].dt_history["n_steps"] == 0.0
    assert alone[-1].blowup_time == 0.0         # the time reached


@pytest.mark.parametrize("fg, falls", [
    (preset_curvature(1.0), True), (preset_p_heat(2.0, 1.0, 0.1), False)],
    ids=["curvature(1)", "p_heat(2,1,0.1)"])
def test_cap_study_warns_when_the_probe_falls_with_the_cap(fg, falls, caplog):
    """Next to a wall the centered scheme scales like cap^(1 - alpha), so
    for alpha = 2 the probe falls as the cap rises (7.0e-4 at cap 10, 4.4e-5
    at cap 160): one warning names the first falling rung.  p_heat rises
    with the cap and warns of nothing."""
    spec = make_problem(1.0, *fg, _flat())
    with caplog.at_level(logging.WARNING, logger="singflow.solver"):
        study = cap_study(spec, 30, [10.0, 40.0, 160.0], (0.0, 0.1))
    values = [row["value"] for row in study.rows]
    warned = [r.getMessage() for r in caplog.records
              if "not monotone in the cap" in r.getMessage()]
    if falls:
        assert values[0] > values[1] > values[2] > 0.0
        assert len(warned) == 1 and "at cap 40 " in warned[0]
    else:
        assert values[0] < values[1] < values[2]
        assert not warned


def test_march_with_asymmetric_caps_and_snapshots():
    spec = _curvature_spec()
    caps, t_end = [2.0, 4.0, 8.0], 0.02
    times = [0.0, 0.005, 0.0125, t_end]
    fields = [make_field(1.0, 40, spec.u0.values, cap, cap_minus=-0.5 * cap)
              for cap in caps]
    batch = _march(spec, fields, t_end, snapshot_times=times)
    for cap, rep in zip(caps, batch):
        alone = solve(spec, 40, cap, t_end, cap_minus=-0.5 * cap,
                      snapshot_times=times)
        assert [t for t, _ in alone.snapshots] == times
        _assert_same_report(rep, alone)


def test_march_retires_a_row_whose_update_alone_turns_minus_inf():
    """f is -inf on a band that the spike's update argument hits and no
    secant argument does, so the CFL step stays finite and only the update
    leaves the float range: that row ends on its first step, the others go
    on as if marched alone; march_ordered raises, naming the pair."""
    n = 30
    dx = 2.0 / (n + 1)
    smooth = initial_b1(lambda x: 0.2 * np.cos(0.5 * np.pi * np.asarray(x)))
    base = make_problem(1.0, *preset_p_heat(2.0, 1.0, 0.1), smooth)

    def f_eval(s):   # the spike's update argument is -2.2 / dx^2
        s = np.asarray(s, dtype=float)
        return np.where((s > -2.5 / dx ** 2) & (s < -2.0 / dx ** 2),
                        -np.inf, s)

    spec = dataclasses.replace(base, f=dataclasses.replace(base.f,
                                                            eval=f_eval))
    spike = np.zeros(n)
    spike[n // 2] = 1.0
    fields = [make_field(1.0, n, smooth.values, 2.0),
              make_field(1.0, n, spike, 2.0),
              make_field(1.0, n, smooth.values, 4.0)]
    reports = _march(spec, fields, 0.01)
    gone = reports[1]
    assert gone.diverged
    assert gone.blowup_time == cfl_limit(fields[1], spec)
    assert gone.dt_history == {"n_steps": 0.0, "dt_min": 0.0, "dt_max": 0.0,
                               "dt_mean": 0.0}
    assert gone.final.time == 0.0
    assert gone.final.values.tobytes() == spike.tobytes()
    for report, cap in zip(reports[::2], (2.0, 4.0)):
        _assert_same_report(report, solve(spec, n, cap, 0.01))
        assert report.dt_history["n_steps"] == 11.0
    with pytest.raises(SolverOverflowError) as err:
        march_ordered(spec, fields[:2], [fields[2], fields[1]], 0.01)
    assert (err.value.node, err.value.time) == (n // 2,
                                                0.9 * gone.blowup_time)
    assert str(err.value).endswith("in the low field of pair 1")


def test_repeated_snapshot_time_is_one_stop():
    spec = _curvature_spec()
    once = solve(spec, 50, 2.0, 0.01, snapshot_times=[0.005])
    twice = solve(spec, 50, 2.0, 0.01, snapshot_times=[0.005, 0.005])
    assert twice.dt_history == once.dt_history
    assert once.dt_history["n_steps"] == 28.0
    assert twice.final.values.tobytes() == once.final.values.tobytes()
    assert [t for t, _ in twice.snapshots] == [0.005, 0.005]
    for _, values in twice.snapshots:
        assert values.tobytes() == once.snapshots[0][1].tobytes()
    assert twice.snapshots[0][1] is not twice.snapshots[1][1]
    zeros = solve(spec, 50, 2.0, 0.01, snapshot_times=[0.0, 0.0])
    assert [t for t, _ in zeros.snapshots] == [0.0, 0.0]


def test_snapshot_times_within_the_stop_tolerance_share_a_stop():
    spec = _curvature_spec()
    near = 0.005 * (1.0 + 1e-13)
    once = solve(spec, 50, 2.0, 0.01, snapshot_times=[0.005])
    close = solve(spec, 50, 2.0, 0.01, snapshot_times=[near, 0.005])
    assert close.dt_history == once.dt_history
    assert close.dt_history["n_steps"] == 28.0
    assert close.final.values.tobytes() == once.final.values.tobytes()
    assert [t for t, _ in close.snapshots] == [0.005, near]
    for _, values in close.snapshots:
        assert values.tobytes() == once.snapshots[0][1].tobytes()


# ---------------------------------------------------------------------------
# step and march errors
# ---------------------------------------------------------------------------


def test_batch_step_names_the_field_that_fails():
    spec = make_problem(1.0, *preset_p_heat(2.0, 2.0, 0.1), _flat())
    calm = make_field(1.0, 30, np.zeros(30), 1.0)
    steep = make_field(1.0, 30, np.zeros(30), 100.0)
    dt = (cfl_limit(calm, spec) * cfl_limit(steep, spec)) ** 0.5
    with pytest.raises(StepSizeError, match="exceeds the stability limit"):
        step(steep, spec, dt)

    spiked = np.zeros(30)
    spiked[12] = 1e307          # curvatures overflow there and at the walls
    bad = make_field(1.0, 30, spiked, 1e307)
    dt = 0.5 * cfl_limit(calm, spec)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverOverflowError, match="at node 0 ") as err:
            step(bad, spec, dt)
        assert (err.value.node, err.value.time) == (0, dt)
        # its CFL step is nan, so the pair cannot step at all
        with pytest.raises(StepSizeError, match="pair 1 collapsed to nan"):
            march_ordered(spec, [calm, calm], [calm, bad], 0.01)


# ---------------------------------------------------------------------------
# cap studies at several probes
# ---------------------------------------------------------------------------


def test_probes_that_share_a_time_share_one_march(monkeypatch):
    spec = _curvature_spec()
    caps = [2.0, 4.0, 8.0]
    probes = [(0.0, 0.02), (0.5, 0.02), (0.2, 0.01), (-0.3, 0.02)]
    alone = [cap_study(spec, 60, caps, probe) for probe in probes]
    times = []

    def counting(spec, fields, t_end, snapshot_times=None):
        times.append(t_end)
        return march(spec, fields, t_end, snapshot_times)

    march = solver._march
    monkeypatch.setattr(solver, "_march", counting)
    studies = cap_studies(spec, 60, caps, probes)
    assert times == [0.02, 0.01]
    assert studies == alone
    with pytest.raises(ParameterError):
        cap_studies(spec, 60, caps, [(0.0, 0.02), (1.0, 0.02)])


# ---------------------------------------------------------------------------
# block-validated marching against a step-by-step reference
# ---------------------------------------------------------------------------


def _reference(spec, field, t_end, snapshot_times=()):
    """`solve`'s reference: a loop of `cfl_limit` and `step` calls on one
    field, each step clipped at the next stop (a snapshot time or t_end),
    which counts as reached once the time is within STOP_RTOL of it.
    Snapshot times must be STOP_RTOL apart.  Returns the report's fields
    and the step count at each stop."""
    bound = max(field.cap, field.ghost_left, float(np.max(field.values)))
    tol = bound + 1e-9 * max(1.0, abs(bound))
    snaps = [(0.0, field.values) for t in snapshot_times if t == 0.0]
    dts, violations, blowup, stop_steps = [], 0, None, []
    for stop in sorted({t for t in snapshot_times if t > 0.0} | {t_end}):
        mark = stop * (1.0 - solver.STOP_RTOL)
        while blowup is None and field.time < mark:
            limit = cfl_limit(field, spec)
            if not limit >= solver.DT_FLOOR:
                blowup = field.time
                break
            dt = min(limit, stop - field.time)
            try:
                field = step(field, spec, dt)
            except SolverOverflowError as err:
                blowup = err.time
                break
            dts.append(dt)
            violations += int(np.count_nonzero(field.values > tol))
            if float(np.max(field.values)) > solver.BLOWUP_VALUE:
                blowup = field.time
        if blowup is not None:
            break
        stop_steps.append(len(dts))
        snaps.extend((t, field.values) for t in snapshot_times if t == stop)
    n_steps = len(dts)
    history = {"n_steps": float(n_steps),
               "dt_min": min(dts, default=0.0),
               "dt_max": max(dts, default=0.0),
               "dt_mean": field.time / n_steps if n_steps else 0.0}
    return (field, history, violations, blowup, snaps), stop_steps


def _assert_matches_reference(report, reference):
    field, history, violations, blowup, snaps = reference
    assert report.final.values.tobytes() == field.values.tobytes()
    assert (report.final.time, report.final.cap, report.final.cap_minus) == (
        field.time, field.cap, field.cap_minus)
    assert report.dt_history == history
    assert report.comparison_violations == violations
    assert report.diverged == (blowup is not None)
    assert repr(report.blowup_time) == repr(blowup)
    assert [t for t, _ in report.snapshots] == [t for t, _ in snaps]
    for (_, got), (_, want) in zip(report.snapshots, snaps):
        assert got.tobytes() == want.tobytes()


def test_solve_matches_the_reference_with_a_snapshot_inside_a_block():
    spec = _curvature_spec()
    times = [0.0, 0.02, 0.05]
    report = solve(spec, 50, 5.0, 0.05, snapshot_times=times)
    want, stop_steps = _reference(
        spec, make_field(1.0, 50, spec.u0.values, 5.0), 0.05, times)
    assert stop_steps[0] % solver.BLOCK and stop_steps[1] > 3 * solver.BLOCK
    _assert_matches_reference(report, want)


def test_march_matches_the_reference_when_rows_retire_inside_blocks():
    """A p_heat(2, 2, 0.1) ladder whose rows end at four different steps,
    one of them before its first step."""
    spec = make_problem(1.0, *preset_p_heat(2.0, 2.0, 0.1), _flat())
    fields = [make_field(1.0, 30, spec.u0.values, cap)
              for cap in (10.0, 20.0, 40.0, 1e13)]
    reports = _march(spec, fields, 0.02)
    for report, fld in zip(reports, fields):
        _assert_matches_reference(report, _reference(spec, fld, 0.02)[0])
    ends = [report.dt_history["n_steps"] for report in reports]
    assert ends[-1] == 0.0 and all(end % solver.BLOCK for end in ends[:3])
    assert len(set(ends)) == 4


def test_march_matches_the_reference_with_asymmetric_caps_and_snapshots():
    f, g = preset_p_heat(2.0, 1.0, 0.1)
    spec = make_problem(1.0, f, g, initial_b1(
        lambda x: 0.3 * np.cos(np.asarray(x, dtype=float))))
    times = [0.0, 0.031, 0.077, 0.077]
    fields = [make_field(1.0, 40, spec.u0.values, cap, cap_minus=minus)
              for cap, minus in ((2.0, -1.0), (8.0, 0.5), (30.0, -30.0))]
    for report, fld in zip(_march(spec, fields, 0.1, times), fields):
        want, stop_steps = _reference(spec, fld, 0.1, times)
        assert all(k % solver.BLOCK for k in stop_steps)
        assert stop_steps[-1] > 3 * solver.BLOCK
        _assert_matches_reference(report, want)


_N, _DX = 30, 2.0 / 31
_SMOOTH = initial_b1(lambda x: 0.2 * np.cos(0.5 * np.pi * np.asarray(x)))
_SPIKE = np.where(np.arange(_N) == _N // 2, 1.0, 0.0)


def _band(s):      # -inf where only the spike's update argument falls
    s = np.asarray(s, dtype=float)
    return np.where((s > -2.5 / _DX ** 2) & (s < -2.0 / _DX ** 2), -np.inf, s)


def _nan_above(s):
    s = np.asarray(s, dtype=float)
    return np.where(s > 1.2e4, np.nan, s)


def _steep_above(s):    # Lambda ~ 1e12, yet dt * f(s) stays small
    s = np.asarray(s, dtype=float)
    return np.where(s > 3e3, 1e12 * s, s)


@pytest.mark.parametrize("f_eval, caps, datum", [
    (_band, (2.0, 2.0), (_SMOOTH.values, _SPIKE)),
    (_nan_above, (5.0, 40.0), (np.zeros(_N), np.zeros(_N))),
    (_steep_above, (2.0, 40.0), (np.zeros(_N), np.zeros(_N))),
    (None, (5.0, 1e13), (np.zeros(_N), np.zeros(_N)))],
    ids=["update-minus-inf", "secant-nan", "cfl-collapse", "past-1e12"])
def test_march_matches_the_reference_when_a_row_ends_early(f_eval, caps,
                                                          datum):
    """The second row ends on its first step, each way a row can, and no
    floating-point error need flag the failed block."""
    spec = make_problem(1.0, *preset_p_heat(2.0, 1.0, 0.1), _SMOOTH)
    if f_eval is not None:
        spec = dataclasses.replace(spec, f=dataclasses.replace(
            spec.f, eval=f_eval))
    fields = [make_field(1.0, _N, values, cap)
              for values, cap in zip(datum, caps)]
    with np.errstate(all="ignore"):
        reports = _march(spec, fields, 0.05)
        wants = [_reference(spec, fld, 0.05)[0] for fld in fields]
    assert [rep.diverged for rep in reports] == [False, True]
    assert reports[1].dt_history["n_steps"] <= 1.0
    assert reports[0].dt_history["n_steps"] > solver.BLOCK
    for report, want in zip(reports, wants):
        _assert_matches_reference(report, want)


def test_march_retires_a_row_turning_minus_inf_on_a_blocks_last_step():
    """f is -inf on a narrow band around the update argument one node
    reaches on a block's last step, so no later step of the block sees the
    -inf and no floating-point error flags it: the final state's min does."""
    spec = make_problem(1.0, *preset_p_heat(2.0, 1.0, 0.1), _flat())
    fields = [make_field(1.0, _N, np.zeros(_N), cap) for cap in (2.0, 3.0)]
    args = []    # what f sees on the way to t = 0.1; the update is f = s
    for fld in fields:
        while fld.time < 0.1 * (1.0 - solver.STOP_RTOL):
            s = _kernel(_padded([fld]), fld.dx, spec)[1][0]
            r = np.maximum(np.abs(s) / 2.0, 1.0)
            args.append((s, np.concatenate([s + r, s - r])))
            fld = step(fld, spec, min(cfl_limit(fld, spec), 0.1 - fld.time))
    hit = args[solver.BLOCK - 1][0][-1]
    seen = np.concatenate([np.concatenate(pair) for pair in args])
    half = 0.5 * np.min(np.abs(seen[seen != hit] - hit))

    def f_eval(s):
        s = np.asarray(s, dtype=float)
        return np.where(np.abs(s - hit) < half, -np.inf, s)

    spec = dataclasses.replace(spec, f=dataclasses.replace(spec.f,
                                                            eval=f_eval))
    reports = _march(spec, fields, 0.1)
    assert reports[0].diverged and not reports[1].diverged
    assert reports[0].dt_history["n_steps"] == solver.BLOCK - 1
    for report, fld in zip(reports, fields):
        _assert_matches_reference(report, _reference(spec, fld, 0.1)[0])


def test_march_counts_bound_violations_as_the_reference_does():
    """For beta < 1 the scheme can pass a row's bound by more than its
    tolerance: a block that does is replayed, so every violation counts."""
    spec = make_problem(1.0, *preset_curvature(0.6), initial_b1(
        lambda x: 0.9 * np.cos(0.5 * np.pi * np.asarray(x, dtype=float))))
    fields = [make_field(1.0, 40, spec.u0.values, cap) for cap in (0.5, 2.0)]
    reports = _march(spec, fields, 0.05)
    assert [rep.comparison_violations for rep in reports] == [52, 0]
    for report, fld in zip(reports, fields):
        _assert_matches_reference(report, _reference(spec, fld, 0.05)[0])


def test_march_work_is_bounded_by_steps_and_events(monkeypatch, caplog):
    """Blocks are sized to end before the first row reaches its next stop,
    so on these batches, two ladders and march_ordered's lows-then-highs
    batch of pairs with two start times, only a snapshot stop may fail one,
    at a cost of at most BLOCK kernel calls beyond the steps taken; a block
    path that always failed (bit-identical, twice the work) breaks the
    bound."""
    calls = []
    kernel = solver._kernel

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(solver, "_kernel", counting)
    x = make_field(1.0, 100, np.zeros(100), 1.0).nodes
    starts = ((4.0, 0.0), (2.0, 0.004), (8.0, 0.0))
    lows = [make_field(1.0, 100, -0.5 + 0.2 * np.cos(3.0 * x), cap, time=t)
            for cap, t in starts]
    highs = [make_field(1.0, 100, 0.1 + 0.3 * np.sin(2.0 * x) ** 2,
                        2.0 * cap, time=t) for cap, t in starts]
    batches = [(make_problem(1.0, *preset_p_heat(2.0, 2.0, 0.1), _flat()),
                [make_field(1.0, 30, np.zeros(30), cap)
                 for cap in (10.0, 20.0, 40.0, 1e13)], (), None),
               (_curvature_spec(), [make_field(1.0, 100, np.zeros(100), cap)
                                    for cap in (2.0, 4.0, 8.0, 16.0)],
                (0.0123,), None),
               (_curvature_spec(), lows + highs, (), np.full(3, -np.inf))]
    for spec, fields, times, excess in batches:
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="singflow.solver"):
            reports = _march(spec, fields, 0.05, times, excess)
        ends = {rep.dt_history["n_steps"] for rep in reports}
        steps = int(max(ends))
        assert steps > 10 * solver.BLOCK
        assert len(calls) <= steps + solver.BLOCK * len(times)
        (line,) = [rec.getMessage() for rec in caplog.records
                   if rec.getMessage().startswith("march of")]
        counts = re.fullmatch(
            r"march of (\d+) rows: (\d+) steps, (\d+) committed in blocks, "
            r"(\d+) replayed, (\d+) kernel calls on failed blocks", line)
        rows, logged, committed, replayed, failed = map(int, counts.groups())
        assert (rows, logged) == (len(fields), steps)
        assert committed + replayed == steps
        assert len(calls) == steps + failed


def _callers(name):
    """(module, top-level definition) pairs under src/singflow that call
    ``name``, as a plain or an attribute call."""
    callers = set()
    for path in Path(solver.__file__).parent.rglob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    callers.add((path.stem, getattr(top, "name", None)))
    return callers


def test_only_the_one_row_wrappers_and_the_march_call_the_kernel():
    """One march loop: `_kernel` is called only by `_march` and by
    `cfl_limit` and `step`, which run it on one row; `march_ordered` marches
    through `_march` and has no loop of its own."""
    tree = ast.parse(Path(solver.__file__).read_text())
    ordered = next(node for node in tree.body
                   if getattr(node, "name", None) == "march_ordered")
    assert not [node for node in ast.walk(ordered)
                if isinstance(node, (ast.For, ast.While))]
    assert _callers("_kernel") == {("solver", "_march"),
                                   ("solver", "cfl_limit"), ("solver", "step")}


def test_only_make_field_constructs_a_grid_field():
    """One field record: every other field is a `dataclasses.replace` copy
    of one that `make_field` built."""
    assert _callers("GridField") == {("solver", "make_field")}


def test_blocks_report_floating_point_errors_as_steps_do(caplog):
    """A numpy floating-point error fails its block, whose exact replay
    reports it under the caller's settings.  Step-by-step marching emits no
    RuntimeWarning on the -inf and overflowing-row marches, and one
    overflow in g per step when the cap's slope squared passes the float
    range, so blocks must add none and lose none."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        test_march_retires_a_row_whose_update_alone_turns_minus_inf()
        test_cap_study_with_an_overflowing_row(caplog)
    assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []

    spec = make_problem(1.0, *preset_curvature(1.0), _flat())
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        report = solve(spec, 30, 1e160, 0.1)
    assert report.dt_history["n_steps"] == 97.0 > 2 * solver.BLOCK
    assert [(w.category, str(w.message)) for w in seen] == 97 * [
        (RuntimeWarning, "overflow encountered in multiply")]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        solve(spec, 30, 1e160, 0.1)
