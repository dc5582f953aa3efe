"""Barrier families: construction contracts and inequality verification."""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq as scipy_brentq

from singflow import barriers
from singflow import (BarrierFunction, HorizonError, ParameterError,
                      RegimeError, SingflowError, compute_wave,
                      convex_envelope, h_tail, initial_b1, make_problem,
                      preset_curvature, preset_p_heat, signed_power, sub_uk,
                      sub_vL, super_family, super_mu, translate_wave,
                      verify_inequality)
from singflow.barriers import residual_values


def _flat():
    return initial_b1(lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def _spec(f, g, b=1.0):
    return make_problem(b, f, g, _flat())


def _curvature_spec(beta2, b=1.0):
    f, g = preset_curvature(beta2)
    return _spec(f, g, b=b)


def _p_heat_spec(p, beta1, eps, b=1.0):
    f, g = preset_p_heat(p, beta1, eps)
    return _spec(f, g, b=b)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_residual_sign_convention():
    spec = _curvature_spec(1.0)
    f, g = spec.f, spec.g
    # dt = 0, positive curvature: the flow pushes up, residual negative.
    assert residual_values(f, g, 0.0, 0.0, 1.0) == pytest.approx(-1.0)
    assert residual_values(f, g, 2.0, 0.0, 1.0) == pytest.approx(1.0)
    assert residual_values(f, g, 0.0, 0.0, 0.0, factor=0.5) == 0.0


def test_residual_values_vectorized():
    spec = _curvature_spec(1.0)
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
    spec = _curvature_spec(1.0)
    lo_f, hi_f = min(fa, fb), max(fa, fb)
    lo = residual_values(spec.f, spec.g, dt, dx, dxx, factor=lo_f)
    hi = residual_values(spec.f, spec.g, dt, dx, dxx, factor=hi_f)
    if dxx >= 0.0:
        assert hi <= lo + 1e-12
    else:
        assert hi >= lo - 1e-12


# ---------------------------------------------------------------------------
# h_tail
# ---------------------------------------------------------------------------


def test_h_tail_exact_tails():
    h = h_tail(1.0, 1.0, 0.5, 2.0, 1.0, 0.6)
    xs = np.array([0.7, 0.9, 0.99])
    np.testing.assert_allclose(h.eval(xs, 0.0), 2.0 * (1.0 - xs) ** -1.0)
    np.testing.assert_allclose(h.eval(-xs, 0.0), (1.0 - xs) ** -0.5)


def test_h_tail_junctions_are_twice_continuous():
    h = h_tail(1.0, 1.0, 0.5, 2.0, 1.0, 0.6)
    eps = 1e-7

    def orders(x):
        return (h.eval(x, 0.0),) + h.jet(x, 0.0)[:2]

    for x0 in (0.6, -0.6):
        for lo, hi in zip(orders(x0 - eps), orders(x0 + eps)):
            assert abs(hi - lo) <= 1e-3 * max(1.0, abs(hi))


def test_h_tail_validation():
    with pytest.raises(ParameterError):
        h_tail(1.0, 1.0, 1.0, 1.0, 1.0, 1.5)
    with pytest.raises(ParameterError):
        h_tail(1.0, -0.5, 1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        h_tail(1.0, 1.0, 1.0, 0.0, 1.0, 0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["b", "gamma_plus", "gamma_minus", "d_plus",
                                  "d_minus", "b0"])
def test_h_tail_refuses_non_finite_parameters(name, value):
    """An infinite b used to build a barrier whose certificate passed, a
    non-finite rate or coefficient one whose certificate failed on nan."""
    params = {"b": 1.0, "gamma_plus": 1.0, "gamma_minus": 0.5, "d_plus": 2.0,
              "d_minus": 1.0, "b0": 0.6}
    params[name] = value
    with pytest.raises(ParameterError, match=f"finite {name}, got {value}$"):
        h_tail(**params)


# ---------------------------------------------------------------------------
# shrinking-disc family
# ---------------------------------------------------------------------------


def test_uk_initial_slice_approaches_half_disc():
    spec = _curvature_spec(1.0)
    bf = sub_uk(spec, 1.0e4)
    xs = np.linspace(-0.95, 0.95, 191)
    target = -np.sqrt(1.0 - xs * xs)
    assert np.max(np.abs(np.asarray(bf.eval(xs, 0.0)) - target)) < 1e-3


def test_uk_junction_moves_inward():
    spec = _curvature_spec(1.0)
    bf = sub_uk(spec, 100.0)
    locs = [float(bf.kinks[0][0](t)) for t in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(locs, locs[1:]))
    assert all(0.0 < loc < 1.0 for loc in locs)


def test_uk_verifies_as_subsolution():
    spec = _curvature_spec(1.0)
    report = verify_inequality(sub_uk(spec, 100.0), spec, "sub",
                               samples=2000, seed=3)
    assert report["pass"]
    assert report["worst_residual"] <= 1e-9
    assert all(k["pass"] for k in report["kink_checks"])


def test_uk_large_k_is_refused_or_finite():
    """Past k ~ 1e8 the arc height b/k at t = 0 is below the rounding of
    r_k^2 - x_k^2, and past ~1.3e154 k^2 overflows: each k either raises a
    typed error or builds and evaluates finitely at t = 0."""
    spec = _curvature_spec(1.0)
    assert verify_inequality(sub_uk(spec, 1.0e8), spec, "sub", samples=2000,
                             seed=3)["pass"]
    xs = np.concatenate([np.linspace(-0.95, 0.95, 39),
                         1.0 - 2.0 ** -np.arange(1.0, 53.0)])
    for k in (1.0e9, 1.0e20, 1.0e160, 1.0e297):
        try:
            bf = sub_uk(spec, k)
        except SingflowError:
            continue
        for part in (bf.eval(xs, 0.0), *bf.jet(xs, 0.0)):
            assert np.all(np.isfinite(part)), k


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_uk_refuses_a_non_finite_k(value):
    """Such a k used to fail only inside the layer root-finder."""
    with pytest.raises(ParameterError, match=f"finite k, got {value}$"):
        sub_uk(_curvature_spec(1.0), value)


# ---------------------------------------------------------------------------
# flattening-wave family
# ---------------------------------------------------------------------------


def test_vl_slice_and_speed_constant():
    spec = _p_heat_spec(2.0, 1.0, 0.1)
    bf = sub_vL(spec, 50.0)
    xs = np.linspace(-0.9, 0.9, 37)
    np.testing.assert_allclose(bf.eval(xs, 0.0), 1.0)
    # alpha = 0, beta = 1, b = 1: c_L = M_f * M_g * L / (2 * (2b)^2).
    m_f, m_g = bf.params["M_f"], bf.params["M_g"]
    assert bf.params["c_L"] == pytest.approx(m_f * m_g * 50.0 / 8.0)


def test_vl_rejects_short_waves():
    spec = _p_heat_spec(2.0, 1.0, 0.1)
    with pytest.raises(ParameterError):
        sub_vL(spec, 2.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_vl_refuses_a_non_finite_exponent(value):
    """L = nan and L = inf used to build barriers whose sub certificate
    passed with worst residual 0."""
    with pytest.raises(ParameterError, match=f"finite L, got {value}$"):
        sub_vL(_p_heat_spec(2.0, 1.0, 0.1), value)


def test_vl_interior_value_grows_with_l():
    spec = _p_heat_spec(2.0, 1.0, 0.1)
    vals = [float(sub_vL(spec, L).eval(np.array([0.25]), 1.0)[0])
            for L in (50.0, 100.0, 200.0)]
    assert vals[0] < vals[1] < vals[2]


def test_vl_verifies_as_subsolution():
    spec = _p_heat_spec(2.0, 1.0, 0.1)
    report = verify_inequality(sub_vL(spec, 50.0), spec, "sub",
                               samples=2000, seed=5)
    assert report["pass"]


# ---------------------------------------------------------------------------
# steepening super-solution family
# ---------------------------------------------------------------------------


def test_super_family_regime_guard():
    with pytest.raises(RegimeError):
        super_family(_curvature_spec(1.0), None, 3.0, 1e4)


def test_super_family_needs_steep_arcs():
    spec = _p_heat_spec(2.0, 0.5, 0.1)
    with pytest.raises(ParameterError):
        super_family(spec, None, 3.0, 10.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_super_family_refuses_a_non_finite_initial_exponent(value):
    """L0 = nan used to fail only inside the terminal-exponent root-finder."""
    with pytest.raises(ParameterError, match=f"finite L0, got {value}$"):
        super_family(_p_heat_spec(2.0, 0.5, 0.1), None, value, 1e4)


def test_super_family_horizon_and_exponent():
    spec = _p_heat_spec(2.0, 0.5, 0.1)
    bf = super_family(spec, None, 3.0, 1e4)
    params = bf.params
    assert params["L0"] == 3.0 and params["nu"] == 1e4
    assert 0.0 < params["T"] < math.inf
    assert bf.valid_until == params["T"]
    assert params["L"](0.0) == pytest.approx(3.0, rel=1e-9)
    assert params["L"](0.9 * params["T"]) > 3.0
    assert [len(slopes) for _, _, slopes in bf.kinks] == [2, 2]


def _terminal_exponent(b, mu, l0, nu):
    """super_family's l_max: where the junction's steepness need reaches
    nu, by scipy's brentq to float resolution."""
    c_star = max(8.0 * b / 9.0, 16.0 / 9.0, 4.0 / b ** 2)

    def needed(length):
        return (c_star * length ** (2.0 * mu + 2.0)
                * 1.5 ** (2.0 * length + 2.0))

    hi = max(2.0 * l0, 4.0)
    while needed(hi) < nu:
        hi *= 2.0
    return scipy_brentq(lambda ln: needed(ln) - nu, l0, hi, xtol=1e-300,
                        rtol=4.0 * np.finfo(float).eps, maxiter=500)


def _criterion_4(case):
    """(spec, L0) of an acceptance-criterion-4 super_family case."""
    return {
        "heat": (_p_heat_spec(2.0, 0.5, 0.1), 3.0),
        "lin": (_spec(signed_power(1.0), preset_curvature(0.5)[1]), 1.2),
    }[case]


@pytest.mark.parametrize("case", ["heat", "lin"])
def test_super_family_horizon_and_exponent_are_exact(case):
    """T is the integral of dL / L' from L0 to l_max and L(t) inverts it,
    against scipy's adaptive quadrature at 1e-13 on both
    acceptance-criterion-4 specs."""
    spec, l0 = _criterion_4(case)
    alpha, beta = spec.g.alpha, spec.f.beta
    mu = super_mu(alpha, beta)
    a_exp = beta * (1.0 - alpha) * (1.0 + mu) - mu
    ulps = 4.0 * np.finfo(float).eps
    for nu in np.logspace(3.5, 8.0, 10).tolist():
        p = super_family(spec, None, l0, nu).params

        def time_to(length):
            return quad(lambda ln: 1.0 / (p["C4"] * ln ** a_exp
                                          * (ln + 1.0) ** beta),
                        l0, length, epsabs=0.0, epsrel=1e-13)[0]

        l_max = _terminal_exponent(spec.b, mu, l0, nu)
        assert p["T"] == pytest.approx(time_to(l_max), rel=1e-12, abs=0.0)
        for frac in (0.1, 0.5, 0.9, 0.999):
            t = frac * p["T"]
            assert time_to(p["L"](t)) == pytest.approx(t, rel=1e-12, abs=0.0)
        assert p["L"](0.0) == pytest.approx(l0, rel=ulps, abs=0.0)
        assert p["L"](p["T"]) == pytest.approx(l_max, rel=ulps, abs=0.0)


@pytest.mark.parametrize("case", ["heat", "lin"])
@pytest.mark.parametrize("nu", [1e100, 1e110, 1e150, 1e200, 1e300, 1.7e308])
def test_super_family_at_extreme_steepness_builds_or_fails_typed(case, nu):
    """A steepness near the float limit either gives a barrier with a
    finite horizon or raises ParameterError, never a bare OverflowError.
    From nu = 1e110 up the middle-region drift itself leaves the float
    range, below the nu ~ 1e154 where the arc gap (2b/3)^2/nu^2 underflows,
    so that underflow never decides the result."""
    spec, l0 = _criterion_4(case)
    try:
        bf = super_family(spec, None, l0, nu)
    except ParameterError as err:
        assert nu >= 1e110
        assert "middle-region drift estimate overflowed" in str(err)
        return
    assert nu < 1e110
    assert 0.0 < bf.valid_until < math.inf
    assert bf.params["L"](bf.valid_until) > l0


# sha256 over repr(scalar_params(params)) of super_family on both
# acceptance-criterion-4 specs at ten nu from 10^3.5 to 10^8, recorded while
# the C4 sweep looped over the exponents one at a time; re-recorded when the
# horizon became one Gauss-Legendre integral of the exponent's time map
# instead of an RK45 event time, which moved T by 1.6e-9 relative (the
# RK45 error) and left C4, c and the rest unchanged; and again when the
# terminal exponent became a Newton root of the log-form steepness equation
# instead of brentq at xtol 1e-12, which moved T by at most 3.7e-15
# relative at seven of the twenty nu and left C4 and c unchanged.
PINNED_SUPER_PARAMS = \
    "2b7866261665fbb4e1ed4f60d1964d154ff1c0176179900fc0e35eaa7a8be342"


def test_super_family_constants_match_pinned_digest():
    heat = _p_heat_spec(2.0, 0.5, 0.1)
    lin = _spec(signed_power(1.0), preset_curvature(0.5)[1])
    h = hashlib.sha256()
    for spec, l0 in ((heat, 3.0), (lin, 1.2)):
        for nu in np.logspace(3.5, 8.0, 10).tolist():
            params = super_family(spec, None, l0, nu).params
            h.update(repr(barriers.scalar_params(params)).encode())
    assert h.hexdigest() == PINNED_SUPER_PARAMS


def test_super_family_takes_no_datum_but_none():
    """v0 keeps its place in the signature, but only None is accepted."""
    spec, l0 = _criterion_4("heat")
    zero = (lambda x: 0.0 * x,) * 3
    with pytest.raises(ParameterError, match="v0 must be None"):
        super_family(spec, zero, l0, 1e4)
    positional = super_family(spec, None, l0, 1e4)
    keyword = super_family(spec, v0=None, L0=l0, nu=1e4)
    assert positional.params["T"] == keyword.params["T"] > 0.0


def test_super_family_sweep_hands_flat_arrays_to_the_nonlinearities():
    base = _p_heat_spec(2.0, 0.5, 0.1)
    shapes = []

    def recorded(nl):
        def call(s):
            shapes.append(np.shape(s))
            return nl.eval(s)
        return dataclasses.replace(nl, eval=call)

    spec = _spec(recorded(base.f), recorded(base.g))
    super_family(spec, None, 3.0, 1e4)
    grid = barriers.C4_L_POINTS * barriers.C4_D_POINTS
    assert shapes.count((grid,)) == 2
    assert all(len(shape) == 1 for shape in shapes)


def test_super_family_verifies_inside_horizon():
    spec = _p_heat_spec(2.0, 0.5, 0.1)
    bf = super_family(spec, None, 3.0, 1e4)
    report = verify_inequality(bf, spec, "super", samples=2000, seed=11)
    assert report["pass"]
    assert report["worst_residual"] >= -1e-9
    assert all(k["analytic"] for k in report["kink_checks"])


def test_super_family_window_beyond_horizon_raises():
    spec = _p_heat_spec(2.0, 0.5, 0.1)
    bf = super_family(spec, None, 3.0, 1e4)
    with pytest.raises(HorizonError):
        verify_inequality(bf, spec, "super", samples=2000,
                          t_window=(0.0, 2.0 * bf.params["T"]))
    # At T itself the drift 1/(T - t) is infinite; L(T) is still defined.
    assert bf.params["L"](bf.params["T"]) > 3.0
    for call in (lambda t: bf.eval(0.0, t), lambda t: bf.jet(0.9, t),
                 bf.kinks[0][2][1]):
        with pytest.raises(HorizonError):
            call(bf.params["T"])


def test_super_mu_values():
    assert super_mu(0.0, 0.5) == 0.0
    assert super_mu(1.0, 1.0) == 0.0
    assert super_mu(0.0, 0.9) == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# convex envelope
# ---------------------------------------------------------------------------


def test_envelope_of_convex_data_is_identity():
    xs = np.linspace(-1.0, 1.0, 41)
    vals = xs * xs
    env = convex_envelope(xs, vals)
    np.testing.assert_allclose(env.eval(xs, 0.0), vals, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=40))
def test_envelope_below_and_convex(values):
    xs = np.linspace(-1.0, 1.0, len(values))
    vals = np.asarray(values, dtype=float)
    env = convex_envelope(xs, vals)
    on_grid = np.asarray(env.eval(xs, 0.0))
    assert np.all(on_grid <= vals + 1e-12)
    assert on_grid[0] == vals[0] and on_grid[-1] == vals[-1]
    mid = 0.5 * (xs[:-1] + xs[1:])
    slopes = np.asarray(env.jet(mid, 0.0)[0])
    assert np.all(np.diff(slopes) >= -1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_envelope_refuses_non_finite_abscissae(where, value):
    """A nan abscissa used to build an envelope that is nan everywhere."""
    xs = np.array([0.0, 0.5, 1.0])
    xs[where] = value
    with pytest.raises(ParameterError, match="abscissae must be finite"):
        convex_envelope(xs, np.array([0.0, 1.0, 2.0]))


# ---------------------------------------------------------------------------
# translated waves and the verifier itself
# ---------------------------------------------------------------------------


def test_translated_wave_is_both_sided():
    spec = _curvature_spec(1.0)
    profile = compute_wave(spec)
    bf = translate_wave(profile, spec)
    for side in ("sub", "super"):
        report = verify_inequality(bf, spec, side, samples=2000, seed=1)
        assert report["pass"], side
        assert abs(report["worst_residual"]) < 1e-8


# sha256 over the reprs of sub and super reports for three translated waves
# (10016 samples, seed 7), recorded when G^{-1} started Newton from a
# per-panel Chebyshev interpolant: the profiles moved at rounding level
# (|dW_x| <= 2.7e-16 (1 + |W_x|)), and every report kept its pass, kink
# checks, sample count and worst residual.
PINNED_TRANSLATE_REPORTS = \
    "400076d31872ff5b42ead2e5ef6d56d8905347cd5a01e74184e5d48843719adf"


def test_translated_wave_reports_match_pinned_digest():
    h = hashlib.sha256()
    for beta2, b in ((1.0, math.pi / 2.0), (0.6667, 1.0), (2.0, 1.3)):
        spec = _curvature_spec(beta2, b=b)
        bf = translate_wave(compute_wave(spec), spec)
        for side in ("sub", "super"):
            report = verify_inequality(bf, spec, side, samples=10000, seed=7)
            h.update(repr(report).encode())
    assert h.hexdigest() == PINNED_TRANSLATE_REPORTS


def test_translated_wave_inverts_the_slope_once_per_stratum():
    spec = _curvature_spec(1.0)
    profile = compute_wave(spec)
    calls = []

    def counting_wx(x):
        calls.append(np.size(x))
        return profile.wx(x)

    bf = translate_wave(dataclasses.replace(profile, wx=counting_wx), spec)
    # 32 strata of 63 points, and of 313 points, fit one block.
    for samples, sizes in ((2000, [2016]), (10_000, [10_016])):
        calls.clear()
        verify_inequality(bf, spec, "sub", samples=samples, seed=1)
        assert calls == sizes


def test_weight_calls_stay_within_one_quadrature_chunk():
    """Quadrature passes go through the weight at most 512 rows of 24 nodes
    at a time, also where a wave grid or a verifier block holds thousands
    of points."""
    base = _curvature_spec(1.0)
    sizes = []

    def recorded(s):
        sizes.append(np.size(s))
        return base.g.eval(s)

    spec = _spec(base.f, dataclasses.replace(base.g, eval=recorded))
    profile = compute_wave(spec, n_grid=2048)
    report = verify_inequality(translate_wave(profile, spec), spec, "sub",
                               samples=10_000, seed=1)
    assert report["pass"]
    assert max(sizes) <= 512 * 24


def _block_cases():
    """(build, spec, side) per family; at seed 396528494 the sub_vL case
    holds a nan residual in stratum 5, at 1e4 and at 1e5 samples."""
    vl = _p_heat_spec(2.0, 1.0, 0.1)
    curv = _curvature_spec(0.75)
    heat = _p_heat_spec(2.0, 0.5, 0.1)
    wave = _curvature_spec(1.0)
    return {
        "sub_uk": (lambda: sub_uk(curv, 150.0), curv, "sub"),
        "sub_vL": (lambda: sub_vL(vl, 161.48749630046012), vl, "sub"),
        "super_family": (lambda: super_family(heat, None, 3.0, 1e4), heat,
                         "super"),
        "translate_wave": (lambda: translate_wave(compute_wave(wave), wave),
                           wave, "super"),
    }


@pytest.mark.parametrize("samples", [10_000, 100_000])
@pytest.mark.parametrize("name", ["sub_uk", "sub_vL", "super_family",
                                  "translate_wave"])
def test_reports_do_not_depend_on_the_block_size(name, samples, monkeypatch):
    """Every stratum is computed on its own, so one stratum per block gives
    the report of the default blocks."""
    build, spec, side = _block_cases()[name]
    default = verify_inequality(build(), spec, side, samples=samples,
                                seed=396528494)
    monkeypatch.setattr(barriers, "BLOCK_POINTS", 1)
    alone = verify_inequality(build(), spec, side, samples=samples,
                              seed=396528494)
    assert repr(alone) == repr(default)


def _corner(kind, slope=lambda xs, t: np.sign(xs), **kwargs):
    """|x| with its kink at 0 declared ``kind``; ``slope`` gives dx."""

    def jet(xs, t):
        xs = np.asarray(xs, dtype=float)
        return slope(xs, t), np.zeros_like(xs), np.zeros_like(xs)

    return BarrierFunction(
        eval=lambda xs, t: np.abs(np.asarray(xs, dtype=float)), jet=jet,
        kinks=((lambda t: 0.0, kind, None),), valid_until=math.inf,
        family="corner", **kwargs)


def test_verifier_warns_when_kink_redraws_run_out(caplog):
    """On a domain narrower than the kink exclusion radius every draw stays
    near the kink; the verifier must say so and still report."""
    bf = _corner("convex", domain=(-5e-9, 5e-9))
    spec = _curvature_spec(1.0)
    with caplog.at_level(logging.WARNING, logger="singflow.barriers"):
        report = verify_inequality(bf, spec, "sub", samples=2000)
    warnings = [r.getMessage() for r in caplog.records
                if "kink redraws exhausted" in r.getMessage()]
    assert len(warnings) == 32
    assert all("63 of 63 points" in msg for msg in warnings)
    assert report["n_samples"] == 32 * 63
    assert report["pass"]


def test_verifier_rejects_small_samples_and_bad_sides():
    spec = _curvature_spec(1.0)
    bf = translate_wave(compute_wave(spec), spec)
    with pytest.raises(ParameterError):
        verify_inequality(bf, spec, "sub", samples=10)
    with pytest.raises(ParameterError):
        verify_inequality(bf, spec, "sideways", samples=2000)


@pytest.mark.parametrize("side", ["sub_strict(abc)", "super_strict(abc)",
                                  "sub_strict(nan)", "super_strict(inf)",
                                  "sub_strict(1e400)"])
def test_verifier_refuses_a_margin_that_is_not_a_finite_number(side):
    """A strict margin must be a finite number >= 0: "abc" used to raise a
    bare ValueError, nan to report a nan worst residual, and inf or 1e400
    to pass with the factor 0."""
    spec = _curvature_spec(1.0)
    with pytest.raises(ParameterError, match="finite nonnegative margin"):
        verify_inequality(sub_uk(spec, 100.0), spec, side, samples=2000)


def test_verifier_refuses_a_window_end_that_is_not_finite():
    """With t_window = (0, inf) every stratum time was inf and sub_uk
    passed with its worst point at t = inf."""
    spec = _curvature_spec(1.0)
    with pytest.raises(ParameterError, match="bad time window"):
        verify_inequality(sub_uk(spec, 100.0), spec, "sub", samples=2000,
                          t_window=(0.0, math.inf))


@pytest.mark.parametrize("kwargs", [
    {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "3"},
    {"samples": 10_000.0}, {"samples": 999}, {"samples": False},
], ids=["seed-negative", "seed-float", "seed-bool", "seed-str",
        "samples-float", "samples-small", "samples-bool"])
def test_verifier_rejects_bad_seeds_and_sample_counts(kwargs):
    spec = _curvature_spec(1.0)
    args = dict({"samples": 2000, "seed": 0}, **kwargs)
    with pytest.raises(ParameterError):
        verify_inequality(sub_uk(spec, 100.0), spec, "sub", **args)


@pytest.mark.parametrize("samples", [2000, 10_000, 100_000])
def test_verifier_makes_at_most_two_generators(samples, monkeypatch):
    """The seeded set-up is a fixed cost per call: no generator per
    stratum."""
    made = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    spec = _curvature_spec(1.0)
    report = verify_inequality(sub_uk(spec, 100.0), spec, "sub",
                               samples=samples, seed=4)
    assert report["n_samples"] >= samples
    assert 1 <= len(made) <= 2


def test_verifier_catches_wrong_kink_orientation():
    """A convex corner declared concave must fail the slope check."""
    bf = _corner("concave")
    spec = _curvature_spec(1.0)
    report = verify_inequality(bf, spec, "sub", samples=2000)
    assert not report["pass"]
    assert not report["kink_checks"][0]["pass"]


# ---------------------------------------------------------------------------
# pinned reports of the time-dependent families
# ---------------------------------------------------------------------------


def _super_builder(spec, l0, nu):
    return lambda: super_family(spec, None, l0, nu)


def _pinned_family_cases():
    """(build, spec, side, samples, t_window, seed) per case; a window of
    "half" means (0.1 T, 0.5 T) of the barrier's horizon T."""
    vl = _p_heat_spec(2.0, 1.0, 0.1)
    curv = {b2: _curvature_spec(b2) for b2 in (0.5, 0.75, 1.0)}
    heat = _p_heat_spec(2.0, 0.5, 0.1)
    lin = _spec(signed_power(1.0), preset_curvature(0.5)[1])
    return {
        "vL-sub-1e4": (lambda: sub_vL(vl, 50.0), vl, "sub", 10_000, None, 5),
        "vL-strict-1e5": (lambda: sub_vL(vl, 120.0), vl, "sub_strict(0.05)",
                          100_000, None, 6),
        "vL-window-1e4": (lambda: sub_vL(vl, 80.0), vl, "sub", 10_000,
                          (0.002, 0.02), 7),
        # Stratum 7 of this task of the certify benchmark (seed 3) holds a
        # nan residual (inf - inf where y^(-L-1) overflows near the wall);
        # the per-stratum selection followed by max over strata in order
        # drops it.
        "vL-nan-stratum": (lambda: sub_vL(vl, 116.36264773386256), vl, "sub",
                           10_000, None, 1250729975),
        "uk0.5-sub-1e4": (lambda: sub_uk(curv[0.5], 300.0), curv[0.5], "sub",
                          10_000, None, 8),
        "uk0.75-sub-1e5": (lambda: sub_uk(curv[0.75], 150.0), curv[0.75],
                           "sub", 100_000, None, 9),
        "uk1-strict-1e4": (lambda: sub_uk(curv[1.0], 700.0), curv[1.0],
                           "sub_strict(0.1)", 10_000, None, 10),
        "uk1-window-1e4": (lambda: sub_uk(curv[1.0], 100.0), curv[1.0], "sub",
                           10_000, (0.25, 0.75), 11),
        "super-heat-1e4": (_super_builder(heat, 3.0, 1e4), heat, "super",
                           10_000, None, 12),
        "super-heat-strict-1e5": (_super_builder(heat, 3.0, 1e6), heat,
                                  "super_strict(0.1)", 100_000, None, 13),
        "super-lin-1e4": (_super_builder(lin, 1.2, 1e5), lin, "super", 10_000,
                          None, 14),
        "super-lin-window-1e4": (_super_builder(lin, 1.2, 1e3), lin, "super",
                                 10_000, "half", 15),
    }


# sha256 of repr(report) per case, recorded when the verifier moved from one
# seeded stream per stratum to one stream for the times and bins and one for
# the kink redraws; every case kept its pass flag, kink verdicts and sample
# count.  The super-* entries were re-recorded when L(t) and T came from the
# exponent's time map instead of RK45: times, margins and worst residuals
# moved by at most 3e-9 relative and every verdict held.  The uk* entries
# and super-heat-1e4 were re-recorded when sub_uk's layer thickness y_k and
# super_family's terminal exponent became Newton roots to float resolution
# instead of bisect at xtol 1e-14 and brentq at xtol 1e-12: y_k moved by at
# most 9e-12 relative and margins by 1e-11 (uk*) and 2e-14 (super), and
# every pass flag, kink verdict and sample count held.
PINNED_FAMILY_REPORTS = {
    "vL-sub-1e4":
        "10cb6fff9ffc2fefb680aac3720e03e597046cfcb2869a0c491daa6724dfa22b",
    "vL-strict-1e5":
        "6ccca350305a33aec00b334a5045467df37c77d86e556691b28627c91ef82036",
    "vL-window-1e4":
        "a17f13d45e5be7f18f3bb1b3ae1df7b3d6c5b9b99585101fcfd4a8999a7e85cc",
    "vL-nan-stratum":
        "17f54b3ab355801f86c21f507bacd56bc31e80e9d68b46794bf71a1372118536",
    "uk0.5-sub-1e4":
        "cab533df4dda23bba0f27b9f9b3d3683344a2fcd665f88e85c16030cbb1766cd",
    "uk0.75-sub-1e5":
        "4bc3a9110724c348617df6d880c763d04545ebb725ec98bab1a91ceb8bb192ae",
    "uk1-strict-1e4":
        "4022753000310de4bd5c1243582762eaca558665ba2218f98e94f90088de0e12",
    "uk1-window-1e4":
        "3559a22321eed060b8f6369bc2cd2a64cabcd5fb7e15fe795672c2be4cd7f574",
    "super-heat-1e4":
        "a0d33d323bfc7e75d5af6f31e5c5106b1231320bcd8c6b1ae86c99d576f5c487",
    "super-heat-strict-1e5":
        "61a58a34b72bed5b273e494d7ca78729b07d337d1e913f30bb6f1ba06d46acce",
    "super-lin-1e4":
        "4e9d57b28bc3725147f80984953aec7be0504d4874dbf557c11c2cd6105fe1ee",
    "super-lin-window-1e4":
        "ff49898404b97018e9bcb30f299d1eb46ade4a1d9615bdc67eda3337753e7cb1",
}


@pytest.mark.parametrize("name", sorted(PINNED_FAMILY_REPORTS))
def test_family_reports_match_pinned_digests(name, monkeypatch):
    build, spec, side, samples, window, seed = _pinned_family_cases()[name]
    nan_rows = []

    def recording(*args, **kwargs):
        res = residual_values(*args, **kwargs)
        nan_rows.extend(np.isnan(res).any(axis=1).tolist())
        return res

    monkeypatch.setattr(barriers, "residual_values", recording)
    bf = build()
    if window == "half":
        window = (0.1 * bf.valid_until, 0.5 * bf.valid_until)
    report = verify_inequality(bf, spec, side, samples=samples,
                               t_window=window, seed=seed)
    assert report["kink_checks"]
    if name == "vL-nan-stratum":
        # The nan sits in a later stratum, where the selection drops it.
        assert not nan_rows[0] and any(nan_rows[1:])
    digest = hashlib.sha256(repr(report).encode()).hexdigest()
    assert digest == PINNED_FAMILY_REPORTS[name]


# ---------------------------------------------------------------------------
# eval and jet over arrays of times and at scalar points
# ---------------------------------------------------------------------------


def _time_families():
    heat = _p_heat_spec(2.0, 0.5, 0.1)
    lin = _spec(signed_power(1.0), preset_curvature(0.5)[1])
    uk = sub_uk(_curvature_spec(0.75), 300.0)
    vl = sub_vL(_p_heat_spec(2.0, 1.0, 0.1), 100.0)
    sup = super_family(heat, None, 3.0, 1e5)
    sup_lin = super_family(lin, None, 1.2, 1e4)
    t_cross = 1.0 / vl.params["c_L"]
    return {
        "sub_uk": (uk, [0.0, 0.013, 0.4, 0.97, 3.0]),
        # Times on both sides of the moment the front leaves the domain.
        "sub_vL": (vl, [0.0, 0.2 * t_cross, 0.9 * t_cross, t_cross,
                        1.5 * t_cross]),
        "super_family": (sup, [0.0, 0.3 * sup.valid_until,
                               0.99 * sup.valid_until]),
        "super_family_lin": (sup_lin, [0.1 * sup_lin.valid_until,
                                       0.7 * sup_lin.valid_until]),
    }


def _probe_points(b):
    """Wall-hugging points, both regions of every family, and the
    junctions of the time-dependent ones."""
    return np.concatenate([np.linspace(-b, b, 201)[1:-1],
                           b - b * 2.0 ** -np.arange(4.0, 40.0, 3.0),
                           [2.0 * b / 3.0, -2.0 * b / 3.0]])


@pytest.mark.parametrize("name", ["sub_uk", "sub_vL", "super_family",
                                  "super_family_lin"])
def test_time_column_calls_equal_scalar_time_calls(name):
    bf, times = _time_families()[name]
    xs = _probe_points(bf.domain[1])
    grid = np.tile(xs, (len(times), 1))
    column = np.array(times)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        batched = (bf.eval(grid, column),) + bf.jet(grid, column)
        for row, t in enumerate(times):
            for part, scalar in zip(batched, (bf.eval(xs, t),)
                                    + bf.jet(xs, t)):
                assert part[row].tobytes() == scalar.tobytes(), t
    # Kink locations and closed-form slopes at all times in one call.
    ts = np.array(times)
    for fn in [loc for loc, _, _ in bf.kinks] + [
            fn for _, _, pair in bf.kinks for fn in (pair or ())]:
        batched = np.broadcast_to(np.asarray(fn(ts), dtype=float), ts.shape)
        scalar = np.array([float(fn(t)) for t in times])
        assert batched.tobytes() == scalar.tobytes()


def _jet_families():
    """All six families, each with four times inside its horizon."""
    grid = np.linspace(-1.0, 1.0, 41)
    wave_spec = _curvature_spec(1.0)
    vl = sub_vL(_p_heat_spec(2.0, 1.0, 0.1), 100.0)
    sup = super_family(_p_heat_spec(2.0, 0.5, 0.1), None, 3.0, 1e5)
    t_cross = 1.0 / vl.params["c_L"]
    fixed = [0.0, 0.25, 0.5, 1.0]
    return {
        "h_tail": (h_tail(1.0, 1.0, 0.5, 2.0, 1.0, 0.6), fixed),
        "sub_uk": (sub_uk(_curvature_spec(0.75), 300.0),
                   [0.0, 0.013, 0.4, 0.97]),
        "sub_vL": (vl, [0.0, 0.2 * t_cross, 0.9 * t_cross, 1.5 * t_cross]),
        "super_family": (sup, [0.0, 0.3 * sup.valid_until,
                               0.7 * sup.valid_until,
                               0.99 * sup.valid_until]),
        "convex_envelope": (convex_envelope(
            grid, np.cos(3.0 * grid) + 0.5 * grid), fixed),
        "translate_wave": (translate_wave(compute_wave(wave_spec), wave_spec,
                                          shift=0.5), fixed),
    }


# sha256 over the shape and bytes of (dx, dxx, dt) of every family in
# `_jet_families`, at each scalar time and then at the (4, 1) column of its
# times; recorded when G^{-1} started Newton from a per-panel Chebyshev
# interpolant, which moved the translated wave's dx and dxx at rounding
# level (relative 1.6e-16 and 4.8e-16) and no other family's jet; and
# again when super_family's L(t) and T came from the exponent's time map
# instead of RK45, which moved T by 1.6e-9 relative and with it that
# family's jet at all four times, and no other family's jet; and again when
# sub_uk's y_k and super_family's terminal exponent became Newton roots to
# float resolution, which moved y_k by 9e-12 and T by 2e-15 relative and
# the jets of those two families only.
PINNED_JETS = \
    "87a9ad5912129696ac47ab6fdc924a8be6f759b3ef9058060ba4e53fb2fde70f"


def test_jets_match_pinned_digest():
    h = hashlib.sha256()
    for bf, times in _jet_families().values():
        xs = _probe_points(bf.domain[1])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            calls = [bf.jet(xs, t) for t in times]
            calls.append(bf.jet(xs, np.array(times)[:, None]))
        for parts in calls:
            for part in parts:
                arr = np.asarray(part, dtype=float)
                h.update(repr(arr.shape).encode())
                h.update(arr.tobytes())
    assert h.hexdigest() == PINNED_JETS


# sha256 over the shape and bytes of the value of every family in
# `_jet_families`, at each scalar time and then at the (4, 1) column of its
# times; recorded while the families were still built by a shared
# per-order builder, before each got one value and one jet function.
PINNED_VALUES = \
    "64ca149a1d205e75b216d385acfc250b014b6f8727bda0518cc570c6c5995872"


def test_values_match_pinned_digest():
    h = hashlib.sha256()
    for bf, times in _jet_families().values():
        xs = _probe_points(bf.domain[1])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            calls = [bf.eval(xs, t) for t in times]
            calls.append(bf.eval(xs, np.array(times)[:, None]))
        for part in calls:
            arr = np.asarray(part, dtype=float)
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
    assert h.hexdigest() == PINNED_VALUES


@pytest.mark.parametrize("name", ["h_tail", "sub_uk", "sub_vL",
                                  "super_family", "convex_envelope",
                                  "translate_wave"])
def test_scalar_points_give_floats(name):
    bf, times = _jet_families()[name]
    for x in (-0.5, 0.1, 0.7, 0.95):
        for t in times:
            value = bf.eval(x, t)
            jet = bf.jet(x, t)
            assert type(value) is float
            assert len(jet) == 3 and all(type(v) is float for v in jet)
            at_array = [bf.eval(np.array([x]), t)] + list(
                bf.jet(np.array([x]), t))
            for scalar, array in zip((value,) + jet, at_array):
                assert np.float64(scalar).tobytes() == array.tobytes()


def test_super_family_evaluates_its_ode_once_per_stratum(monkeypatch):
    """L(t) inverts the exponent's time map once per stratum time."""
    real = barriers.root
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(barriers, "root", counted)
    spec = _p_heat_spec(2.0, 0.5, 0.1)
    bf = super_family(spec, None, 3.0, 1e4)
    for samples, seed in ((10_000, 1), (100_000, 2)):
        calls.clear()
        report = verify_inequality(bf, spec, "super", samples=samples,
                                   seed=seed)
        assert len(report["kink_checks"]) == 2
        assert len(calls) == 32


def test_verifier_fails_a_kink_whose_slope_turns_nan_late():
    """A nan one-sided slope fails the kink check at whatever time it
    appears, not only at the first probed time."""
    bf = _corner("convex", slope=lambda xs, t: np.where(
        np.asarray(t) > 0.5, np.nan, np.sign(xs)))
    spec = _curvature_spec(1.0)
    report = verify_inequality(bf, spec, "sub", samples=2000)
    check = report["kink_checks"][0]
    assert math.isnan(check["margin"]) and check["t"] > 0.5
    assert not check["pass"]
    assert not report["pass"]
