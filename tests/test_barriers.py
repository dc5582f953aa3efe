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

from singflow import (BarrierFunction, HorizonError, ParameterError,
                      RegimeError, compute_wave, convex_envelope, h_tail,
                      initial_b1, make_problem, preset_curvature,
                      preset_p_heat, signed_power, sub_uk, sub_vL,
                      super_family, super_mu, translate_wave,
                      verify_inequality)


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
    for x0 in (0.6, -0.6):
        for fn in (h.eval, h.dx, h.dxx):
            lo = float(fn(np.array([x0 - eps]), 0.0)[0])
            hi = float(fn(np.array([x0 + eps]), 0.0)[0])
            assert abs(hi - lo) <= 1e-3 * max(1.0, abs(hi))


def test_h_tail_validation():
    with pytest.raises(ParameterError):
        h_tail(1.0, 1.0, 1.0, 1.0, 1.0, 1.5)
    with pytest.raises(ParameterError):
        h_tail(1.0, -0.5, 1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        h_tail(1.0, 1.0, 1.0, 0.0, 1.0, 0.5)


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


def test_super_family_horizon_and_exponent():
    spec = _p_heat_spec(2.0, 0.5, 0.1)
    bf = super_family(spec, None, 3.0, 1e4)
    params = bf.params
    assert params.L0 == 3.0 and params.nu == 1e4
    assert 0.0 < params.T < math.inf
    assert bf.valid_until == params.T
    assert params.L(0.0) == pytest.approx(3.0, rel=1e-9)
    assert params.L(0.9 * params.T) > 3.0
    assert bf.kink_slopes is not None and len(bf.kink_slopes) == 2


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
                          t_window=(0.0, 2.0 * bf.params.T))


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
    slopes = np.asarray(env.dx(mid, 0.0))
    assert np.all(np.diff(slopes) >= -1e-12)


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
# (10016 samples, seed 7), recorded while the verifier called dx and dxx
# separately and inverted the slope map twice per sample.
PINNED_TRANSLATE_REPORTS = \
    "b0c112450cde311bfb5f37f07eeba69f2d591a56d15eb658a973a983614210c4"


def test_translated_wave_reports_match_pinned_digest():
    h = hashlib.sha256()
    for beta2, b in ((1.0, math.pi / 2.0), (0.6667, 1.0), (2.0, 1.3)):
        spec = _curvature_spec(beta2, b=b)
        bf = translate_wave(compute_wave(spec), spec)
        for side in ("sub", "super"):
            report = verify_inequality(bf, spec, side, samples=10000, seed=7)
            h.update(repr(report).encode())
    assert h.hexdigest() == PINNED_TRANSLATE_REPORTS


@pytest.mark.parametrize("beta2", [2.0 / 3.0, 1.0, 2.0])
def test_translated_wave_jet_equals_the_three_closures(beta2):
    spec = _curvature_spec(beta2)
    bf = translate_wave(compute_wave(spec), spec, shift=0.5)
    xs = np.concatenate([np.linspace(-0.999, 0.999, 257),
                         1.0 - 2.0 ** -np.arange(10.0, 40.0)])
    for t in (0.0, 0.37):
        dx, dxx, dt = bf.jet(xs, t)
        assert dx.tobytes() == bf.dx(xs, t).tobytes()
        assert dxx.tobytes() == bf.dxx(xs, t).tobytes()
        assert dt.tobytes() == bf.dt(xs, t).tobytes()


def test_translated_wave_inverts_the_slope_once_per_stratum():
    spec = _curvature_spec(1.0)
    profile = compute_wave(spec)
    calls = []

    def counting_wx(x):
        calls.append(np.size(x))
        return profile.wx(x)

    bf = translate_wave(dataclasses.replace(profile, wx=counting_wx), spec)
    verify_inequality(bf, spec, "sub", samples=2000, seed=1)
    assert len(calls) == 32


def test_verifier_warns_when_kink_redraws_run_out(caplog):
    """On a domain narrower than the kink exclusion radius every draw stays
    near the kink; the verifier must say so and still report."""
    zero = lambda xs, t: np.zeros_like(np.asarray(xs, dtype=float))
    bf = BarrierFunction(
        eval=lambda xs, t: np.abs(np.asarray(xs, dtype=float)),
        dx=lambda xs, t: np.sign(np.asarray(xs, dtype=float)),
        dxx=zero, dt=zero,
        kinks=((lambda t: 0.0, "convex"),),
        valid_until=math.inf, family="corner", domain=(-5e-9, 5e-9))
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


def test_verifier_catches_wrong_kink_orientation():
    """A convex corner declared concave must fail the slope check."""
    zero = lambda xs, t: np.zeros_like(np.asarray(xs, dtype=float))
    bf = BarrierFunction(
        eval=lambda xs, t: np.abs(np.asarray(xs, dtype=float)),
        dx=lambda xs, t: np.sign(np.asarray(xs, dtype=float)),
        dxx=zero, dt=zero,
        kinks=((lambda t: 0.0, "concave"),),
        valid_until=math.inf, family="corner")
    spec = _curvature_spec(1.0)
    report = verify_inequality(bf, spec, "sub", samples=2000)
    assert not report["pass"]
    assert not report["kink_checks"][0]["pass"]
