"""Traveling-wave profiles: quadrature, speed identity, boundary rates."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singflow import (ParameterError, RateExtractionError, RegimeError,
                      check_points,
                      compute_wave, custom_weight, divergence_rate,
                      g_antiderivative, initial_b1, make_problem,
                      power_tail_weight, preset_curvature, profile_residuals,
                      signed_power)
from singflow import wave
from singflow.wave import _gl_partial, _TailCorrectedG

HALF_PI = math.pi / 2.0
EPS = np.finfo(float).eps


def _spec(beta2, b=1.0):
    f, g = preset_curvature(beta2)
    return make_problem(b, f, g, initial_b1(
        lambda x: np.zeros_like(np.asarray(x, dtype=float))))


def test_arctan_oracle():
    """For f = id and g = 1/(1+s^2) on (-pi/2, pi/2) the profile ODE
    integrates in closed form: W'(x) = tan x, so W = -log cos x and the
    speed is exactly 1."""
    spec = _spec(1.0, b=HALF_PI)
    profile = compute_wave(spec)
    assert profile.c == pytest.approx(1.0, abs=1e-8)
    xs = check_points(profile)
    err = np.max(np.abs(profile.w(xs) + np.log(np.cos(xs))))
    assert err < 1e-6


def test_speed_identity():
    for beta2, b in ((1.0, 1.0), (2.0 / 3.0, 0.7), (2.0, 1.3)):
        spec = _spec(beta2, b=b)
        profile = compute_wave(spec)
        q = g_antiderivative(spec.g, np.inf) / (2.0 * b)
        assert profile.f_inv_c == pytest.approx(q, rel=1e-10)
        assert profile.c == pytest.approx(float(spec.f.eval(q)), rel=1e-10)


def test_profile_is_symmetric_convex():
    profile = compute_wave(_spec(1.0), w0=0.0)
    xs = np.linspace(0.0, 0.9, 40)
    np.testing.assert_allclose(profile.w(xs), profile.w(-xs), atol=1e-9)
    assert float(profile.w(np.array([0.0]))[0]) == pytest.approx(0.0,
                                                                 abs=1e-12)
    slopes = profile.wx(xs)
    assert np.all(np.diff(slopes) > 0.0)


def test_w0_shifts_vertically():
    base = compute_wave(_spec(1.0), w0=0.0)
    lifted = compute_wave(_spec(1.0), w0=3.0)
    xs = np.linspace(-0.8, 0.8, 17)
    np.testing.assert_allclose(lifted.w(xs), base.w(xs) + 3.0, atol=1e-9)


def test_slope_map_matches_profile_differences():
    profile = compute_wave(_spec(1.0))
    xs = np.linspace(-0.7, 0.7, 29)
    h = 1e-6
    fd = (profile.w(xs + h) - profile.w(xs - h)) / (2.0 * h)
    np.testing.assert_allclose(profile.wx(xs), fd, rtol=1e-5, atol=1e-7)


def test_residuals_small_and_refinement_monotone():
    spec = _spec(1.0)
    coarse = compute_wave(spec, n_grid=2 ** 10)
    fine = compute_wave(spec, n_grid=2 ** 11)
    res_coarse = np.max(profile_residuals(coarse, spec,
                                          check_points(coarse)))
    res_fine = np.max(profile_residuals(fine, spec, check_points(fine)))
    assert res_coarse < 1e-6
    assert res_fine <= res_coarse


def _three_call_residuals(profile, spec, xs):
    """profile_residuals as it was written with one inversion per point
    set, kept as the reference for the one-call version."""
    dist = np.minimum(profile.b - xs, profile.b + xs)
    h = np.maximum(1e-4 * dist, 4.0 * EPS * np.abs(xs))
    xp, xm = xs + h, xs - h
    wxx = (profile.wx(xp) - profile.wx(xm)) / (xp - xm)
    q = profile.f_inv_c
    return np.abs(q - np.asarray(spec.g.eval(profile.wx(xs))) * wxx) / abs(q)


@pytest.mark.parametrize("beta2,b", [(1.0, HALF_PI), (0.8, 1.3)])
def test_residuals_invert_the_slope_once(beta2, b):
    spec = _spec(beta2, b=b)
    profile = compute_wave(spec)
    xs = check_points(profile)
    calls = []

    def counting_wx(x):
        calls.append(np.size(x))
        return profile.wx(x)

    counted = dataclasses.replace(profile, wx=counting_wx)
    res = profile_residuals(counted, spec, xs)
    assert calls == [3 * xs.size]
    assert res.tobytes() == _three_call_residuals(profile, spec,
                                                  xs).tobytes()


def test_divergence_rate_log_branch():
    spec = _spec(1.0, b=HALF_PI)       # alpha = 2: W ~ -log(wall distance)
    d_plus, d_minus = divergence_rate(compute_wave(spec), spec.g.alpha)
    assert d_plus == pytest.approx(1.0, rel=0.02)
    assert d_minus == pytest.approx(1.0, rel=0.02)


def test_divergence_rate_power_branch_symmetric():
    spec = _spec(2.0 / 3.0)            # alpha = 1.5: W ~ D / (wall distance)
    d_plus, d_minus = divergence_rate(compute_wave(spec), spec.g.alpha)
    assert d_plus > 0.0 and d_minus > 0.0
    assert d_plus == pytest.approx(d_minus, rel=1e-6)


def test_divergence_rate_skipped_for_bounded_waves():
    spec = _spec(2.0)                  # alpha = 2.5: bounded profile
    profile = compute_wave(spec)
    assert divergence_rate(profile, spec.g.alpha) == (None, None)
    assert np.max(profile.w_values) < np.inf
    with pytest.raises(ParameterError):
        divergence_rate(profile, 1.0)


@pytest.mark.parametrize("beta2", [1.0, 0.8, 2.0 / 3.0])  # alpha 2, 1.75, 1.5
def test_divergence_rate_reads_the_stored_fit(monkeypatch, beta2):
    fit, calls = wave._fit_divergence, []

    def counting(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(wave, "_fit_divergence", counting)
    spec = _spec(beta2)
    profile = compute_wave(spec)
    rates = divergence_rate(profile, spec.g.alpha)
    assert len(calls) == 1
    assert rates == fit(profile.x_grid, profile.w_values, profile.b,
                        spec.g.alpha)


def test_no_wave_below_critical_decay():
    with pytest.raises(RegimeError):
        compute_wave(_spec(0.5))       # alpha = 1


def test_check_points_avoid_walls():
    profile = compute_wave(_spec(1.0))
    xs = check_points(profile)
    assert xs.size > 0
    dist = np.minimum(profile.b - xs, profile.b + xs)
    assert np.min(dist) >= profile.b * 2.0 ** -26


# ---------------------------------------------------------------------------
# G^{-1}: safeguarded Newton against an 80-step reference bisection
# ---------------------------------------------------------------------------


@st.composite
def _weights(draw):
    alpha = draw(st.floats(1.05, 2.95))
    if draw(st.booleans()):
        return preset_curvature(1.0 / (3.0 - alpha))[1]   # alpha = 3 - 1/beta2
    cg_plus, cg_minus = draw(st.tuples(st.floats(0.2, 5.0),
                                       st.floats(0.2, 5.0))
                             .filter(lambda c: abs(c[0] - c[1]) > 0.1))
    return power_tail_weight(alpha, cg_plus, cg_minus)


def _table_points(table):
    """Arguments strictly inside the panel table: a uniform sweep, every
    inner panel edge, and every panel midpoint."""
    cum = table.cum
    return np.concatenate([np.linspace(cum[0], cum[-1], 201)[1:-1],
                           cum[1:-1], 0.5 * (cum[:-1] + cum[1:])])


def _bisection_inverse(table, w):
    """Reference G^{-1}: 80 bisection steps on the panel holding w."""
    idx = np.clip(np.searchsorted(table.cum, w, side="right") - 1,
                  0, len(table.bps) - 2)
    lo, hi = table.bps[idx], table.bps[idx + 1]
    anchor, tau = table.bps[idx], w - table.cum[idx]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        high = _gl_partial(table.g.eval, anchor, mid) > tau
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return 0.5 * (lo + hi)


def _linear_start_newton(table, w):
    """Reference G^{-1}: the safeguarded Newton of `_panel_inverse` started
    from linear interpolation in the cumulative table."""
    g = table.g.eval
    idx = np.clip(np.searchsorted(table.cum, w, side="right") - 1,
                  0, len(table.bps) - 2)
    anchor = table.bps[idx]
    lo, hi = anchor, table.bps[idx + 1]
    tau = w - table.cum[idx]
    s = lo + (hi - lo) * tau / (table.cum[idx + 1] - table.cum[idx])
    tol = 4.0 * EPS * w
    out = np.empty_like(w)
    todo = np.arange(w.size)
    for _ in range(80):
        resid = _gl_partial(g, anchor, s) - tau
        newton = s - resid / np.asarray(g(s), dtype=float)
        high = resid > 0.0
        hi = np.where(high, s, hi)
        lo = np.where(high, lo, s)
        done = np.abs(resid) <= tol
        out[todo[done]] = np.clip(newton[done], lo[done], hi[done])
        keep = ~done
        todo, anchor, tau, tol, lo, hi, newton = (
            arr[keep] for arr in (todo, anchor, tau, tol, lo, hi, newton))
        if not todo.size:
            return out
        s = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
    out[todo] = s
    return out


@settings(max_examples=30, deadline=None)
@given(g=_weights())
def test_inverse_composes_and_matches_bisection(g):
    table = _TailCorrectedG(g)
    w = _table_points(table)
    s = table.inverse(w)
    assert np.all(np.abs(table.value(s) - w) <= 8.0 * EPS * w)
    gap = np.abs(s - _bisection_inverse(table, w)) * np.asarray(g.eval(s))
    assert np.all(gap <= 16.0 * EPS * w)


@settings(max_examples=30, deadline=None)
@given(g=_weights())
def test_inverse_matches_the_linear_start_newton(g):
    """The Chebyshev start moves only where Newton stops, not its root."""
    table = _TailCorrectedG(g)
    w = _table_points(table)
    s = table.inverse(w)
    gap = np.abs(s - _linear_start_newton(table, w)) * np.asarray(g.eval(s))
    assert np.all(gap <= 16.0 * EPS * w)


def test_inverse_needs_few_quadrature_rows(monkeypatch):
    """Quadrature rows per inverted point on a 2000-point sweep plus every
    panel midpoint; the linear start needed 4.3 to 4.5.  Points at every
    panel edge, where the outer panels of steep tails leave the degree-12
    start only near 1e-7, are counted apart; the linear start needed 3.9
    to 4.1 on `_table_points`."""
    tables = [_TailCorrectedG(make(alpha)) for make, _ in PINNED_TABLES
              for alpha in TABLE_ALPHAS]
    rows = []

    def counting(fn, a, s):
        rows.append(np.broadcast(np.asarray(a), np.asarray(s)).size)
        return _gl_partial(fn, a, s)

    # Unchunked, so that each quadrature pass is one counted call.
    monkeypatch.setattr(wave, "_GL_CHUNK_ROWS", 10 ** 9)
    monkeypatch.setattr(wave, "_gl_partial", counting)
    for table in tables:
        cum = table.cum
        sweep = np.concatenate([np.linspace(cum[0], cum[-1], 2002)[1:-1],
                                0.5 * (cum[:-1] + cum[1:])])
        for w, bound in ((sweep, 2.0), (_table_points(table), 3.0)):
            rows.clear()
            table.inverse(w)
            assert sum(rows) <= bound * w.size, (table.alpha, bound)


@settings(max_examples=30, deadline=None)
@given(g=_weights())
def test_inverse_is_batch_independent(g):
    """G^{-1}, G and H give each point the same bits alone, in small
    slices and in one batch of more than three 512-row quadrature chunks;
    the points cover both analytic tails, their edges and the table."""
    table = _TailCorrectedG(g)
    tails = np.array([0.5 * table.cum[0], table.cum[0], table.cum[-1],
                      table.total - 0.5 * table.tm_plus])
    w = np.concatenate([tails, _table_points(table)])
    full = table.inverse(w)
    sliced = np.concatenate([table.inverse(w[i:i + 7])
                             for i in range(0, w.size, 7)])
    assert sliced.tobytes() == full.tobytes()
    picks = np.r_[:tails.size, tails.size:w.size:9]
    alone = np.array([table.inverse(x) for x in w[picks]])
    assert alone.tobytes() == full[picks].tobytes()

    big = np.concatenate([w, np.linspace(table.cum[0], table.cum[-1],
                                         1601)[1:-1]])
    assert big.size > 3 * 512
    s = np.concatenate([table.inverse(big),
                        table.s0 * np.array([-10.0, -1.0, 1.0, 10.0]),
                        [-np.inf, np.inf]])
    assert s[:w.size].tobytes() == full.tobytes()
    picks = np.r_[:s.size:41, s.size - 6:s.size]
    for fn in (table.value, table.h_value):
        whole = fn(s)
        sliced = np.concatenate([fn(s[i:i + 97])
                                 for i in range(0, s.size, 97)])
        assert sliced.tobytes() == whole.tobytes()
        alone = np.array([fn(x) for x in s[picks]])
        assert alone.tobytes() == whole[picks].tobytes()


def test_inverse_survives_a_sharp_bump():
    """A narrow tall bump makes G kink inside a panel, so Newton steps from
    the flanks overshoot the panel and the midpoint fallback takes over."""
    def fn(s):
        a = np.asarray(s, dtype=float)
        return 1.0 / (1.0 + a * a) + 40.0 * np.exp(-((a - 0.3) / 0.01) ** 2)

    table = _TailCorrectedG(custom_weight(fn, 2.0, 1.0, 1.0))
    w = np.linspace(table.cum[0], table.cum[-1], 4001)[1:-1]
    # The first Newton step from the interpolated start leaves the panel.
    idx = np.searchsorted(table.cum, w, side="right") - 1
    lo, hi = table.bps[idx], table.bps[idx + 1]
    tau = w - table.cum[idx]
    start = lo + (hi - lo) * tau / (table.cum[idx + 1] - table.cum[idx])
    newton = start - (_gl_partial(fn, lo, start) - tau) / fn(start)
    assert np.count_nonzero((newton <= lo) | (newton >= hi)) > 100
    s = table.inverse(w)
    assert np.all(np.abs(table.value(s) - w) <= 8.0 * EPS * w)


# ---------------------------------------------------------------------------
# Table construction: pinned tables, each panel refined once
# ---------------------------------------------------------------------------


TABLE_ALPHAS = (1.3, 1.9, 2.5, 2.8)

# sha256 over (s0, total, bps, cum, hcum) for every alpha above, recorded
# from the cut search that re-refined every panel at each S0 doubling.
PINNED_TABLES = [
    (lambda a: preset_curvature(1.0 / (3.0 - a))[1],
     "0cebc5558403be2d9b963a6f6ee496c069cb06ac7c61257768da1e608d6100bf"),
    (lambda a: power_tail_weight(a, 1.7, 0.6),
     "e0bd13639f9e8c342c5fbd4e32cd990497b3602f88cdfa4c1b6f751e561b4fcd"),
]


@pytest.mark.parametrize("make, digest", PINNED_TABLES,
                         ids=["curvature", "asymmetric_power_tail"])
def test_tables_match_pinned_digests(make, digest):
    h = hashlib.sha256()
    for alpha in TABLE_ALPHAS:
        table = _TailCorrectedG(make(alpha))
        h.update(np.float64(table.s0).tobytes())
        h.update(np.float64(table.total).tobytes())
        for arr in (table.bps, table.cum, table.hcum):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("make", [make for make, _ in PINNED_TABLES],
                         ids=["curvature", "asymmetric_power_tail"])
def test_table_build_refines_each_panel_once(make, monkeypatch):
    calls = []
    refine = _TailCorrectedG._refine_panels

    def counting(self, keys):
        calls.extend((float(a), float(bb)) for a, bb in keys)
        return refine(self, keys)

    monkeypatch.setattr(_TailCorrectedG, "_refine_panels", counting)
    for alpha in TABLE_ALPHAS:
        calls.clear()
        table = _TailCorrectedG(make(alpha))
        assert len(calls) == len(set(calls))
        # Every refined panel lies inside the chosen cut.
        assert min(a for a, _ in calls) == -table.s0
        assert max(bb for _, bb in calls) == table.s0
        # The reuse map dies with the constructor.
        assert not any(isinstance(v, dict) for v in vars(table).values())


def test_table_cache_frees_dropped_weights():
    """The cache holds weights weakly, and a table must not hold its own
    key: a dropped weight's table is freed, a kept profile still works and
    a live weight gets its table back."""
    fn = preset_curvature(1.0)[1].eval
    g = custom_weight(fn, 2.0, 1.0, 1.0)
    table = weakref.ref(wave._antiderivative(g))
    assert wave._antiderivative(g) is table()
    del g
    gc.collect()
    assert table() is None

    spec = _spec(1.0)
    profile = compute_wave(spec)
    copy = wave._antiderivative(spec.g).g
    assert copy == spec.g and copy is not spec.g
    del spec, copy
    gc.collect()
    assert profile.wx(0.5) == pytest.approx(math.tan(0.25 * math.pi),
                                            rel=1e-12)


def test_wave_grid_extends_past_the_default_tail():
    """At alpha = 2.99 the model slope at j = 40 is below 1e6, so the
    geometric tail grows by one index to reach it (alpha = 2.95 stops at
    40)."""
    spec = make_problem(1.0, signed_power(1.0),
                        power_tail_weight(2.99, 1.0, 1.0),
                        initial_b1(lambda x: np.zeros_like(x)))
    profile = compute_wave(spec)
    x_last = profile.x_grid[-1]
    assert -math.log2(1.0 - x_last) > 40.0
    assert profile.wx(x_last) >= 1e6


@pytest.mark.parametrize("alpha", [1.005, 1.01, 1.02, 1.03])
def test_wave_near_alpha_one_fails_typed(alpha):
    """Just above alpha = 1 the model wall slope overflows a float at the
    default tail indices; that reads as past the slope cap, and the wave
    then fails with a typed error instead of a bare OverflowError."""
    spec = make_problem(1.0, signed_power(1.0),
                        power_tail_weight(alpha, 1.0, 1.0),
                        initial_b1(lambda x: np.zeros_like(x)))
    with np.errstate(over="ignore"), pytest.raises(RateExtractionError):
        compute_wave(spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, message", [
    (1.01, "did not converge"), (1.03, "did not converge"),
    (1.05, r"\(spread 0\.702 over the last decade\)")])
def test_divergence_fit_near_alpha_one_does_not_overflow(alpha, message):
    """gamma = (2 - alpha)/(alpha - 1) is 19 or more here, so psi on the
    last decade reaches 1e200 and squaring it overflows: the fit normalizes
    that column through its max-abs, warns of nothing and reports the real
    spread (0.702 at alpha = 1.05, not the 4 of a zeroed column)."""
    spec = make_problem(1.0, signed_power(1.0),
                        power_tail_weight(alpha, 1.0, 1.0),
                        initial_b1(lambda x: np.zeros_like(x)))
    with pytest.raises(RateExtractionError, match=message):
        compute_wave(spec)
