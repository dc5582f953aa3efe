"""Cross-module invariant suite.

Runs every module-level invariant that has a cheap numerical certificate:
preset contracts, classifier branch coverage, wave identities, barrier
derivative consistency and kink admissibility, solver maximum principle
and discrete comparison, residual monotonicity, scaling round-trips, and
planted-rate recovery.  The CLI ``verify`` subcommand wraps `run_suite`
and emits its summary as JSON.

Each check is independent and returns (passed, detail); a check that fails
or raises never aborts the run, so one report covers the whole suite.
"""

from __future__ import annotations

import logging
import math
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from .barriers import (BarrierFunction, convex_envelope, h_tail,
                       residual_values, scale_sub, scale_super, sub_uk,
                       sub_vL, super_family, super_mu, translate_wave,
                       verify_inequality)
from .errors import InsufficientDataError, SingflowError
from .model import (InitialDatum, ProblemSpec, initial_b1, initial_b2,
                    initial_b3, make_problem, preset_curvature,
                    preset_p_heat, psi, signed_power)
from .regime import (EXISTS, EXISTS_UNIQUE, NEEDS_B2, NOT_EXISTS,
                     OUTSIDE_THEORY, WAVE_EXISTS_BOUNDED,
                     WAVE_EXISTS_UNBOUNDED, WAVE_NOT_EXISTS, classify,
                     classify_wave)
from .solver import make_field, march_ordered, solve
from .wave import (compute_wave, fit_boundary_rate, g_antiderivative,
                   profile_residuals)

log = logging.getLogger(__name__)

# Tolerances quoted by the module contracts.
DERIV_RTOL = 1.0e-5
DERIV_STEP = 1.0e-5
ROUNDTRIP_TOL = 1.0e-12
INVERSE_TOL = 1.0e-10
SPEED_IDENTITY_TOL = 1.0e-10
G_COMPOSE_TOL = 1.0e-8
TAIL_RTOL = 0.05
PLANTED_SPREAD_TOL = 1.0e-10
UK_LIMIT_TOL = 1.0e-3

# Sampling sizes.  The derivative check keeps a generous clearance from
# walls and kinks: the step is fixed by the contract at 1e-5, so sampling
# regions whose feature length falls below ~100 steps would measure
# truncation error, not formula correctness.
DERIV_POINTS = 1000
DERIV_CLEARANCE = 0.02
DERIV_MAX_ROUNDS = 50
SUITE_SEED = 20240813


def _zero_datum() -> InitialDatum:
    return initial_b1(lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def _spec(f, g, b: float = 1.0, u0: InitialDatum = None) -> ProblemSpec:
    return ProblemSpec(b=b, f=f, g=g, u0=u0 if u0 is not None
                       else _zero_datum())


# ---------------------------------------------------------------------------
# model


def check_nonlinearity_contracts() -> Tuple[bool, str]:
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        f = signed_power(beta)
        s = np.concatenate([-np.logspace(-3, 6, 200)[::-1], [0.0],
                            np.logspace(-3, 6, 200)])
        vals = np.asarray(f.eval(s), dtype=float)
        if not np.all(np.diff(vals) > 0.0):
            return False, f"signed_power({beta}): not strictly increasing"
        if abs(float(f.eval(0.0))) != 0.0:
            return False, f"signed_power({beta}): f(0) != 0"
        back = np.asarray([f.inverse(v) for v in vals[::25]], dtype=float)
        ref = s[::25]
        err = np.max(np.abs(back - ref) / np.maximum(np.abs(ref), 1e-30))
        worst = max(worst, float(err))
        if err > INVERSE_TOL:
            return False, f"signed_power({beta}): inverse error {err:.2e}"
        for sgn, cf in ((1.0, f.cf_plus), (-1.0, f.cf_minus)):
            tail = float(f.eval(sgn * 1e8)) / (1e8 ** beta)
            if abs(tail - sgn * cf) > TAIL_RTOL * abs(cf):
                return False, f"signed_power({beta}): tail mismatch {tail}"
    return True, f"3 presets; worst inverse error {worst:.2e}"


def check_weight_contracts() -> Tuple[bool, str]:
    cases = [preset_p_heat(2.0, 1.0, 0.1)[1],
             preset_p_heat(3.0, 1.0, 0.5)[1],
             preset_curvature(1.0)[1],
             preset_curvature(2.0 / 3.0)[1]]
    for g in cases:
        s = np.concatenate([-np.logspace(-2, 8, 300)[::-1], [0.0],
                            np.logspace(-2, 8, 300)])
        vals = np.asarray(g.eval(s), dtype=float)
        if not np.all(vals > 0.0):
            return False, f"{g.kind}: weight not positive"
        for sgn, cg in ((1.0, g.cg_plus), (-1.0, g.cg_minus)):
            tail = float(g.eval(sgn * 1e8)) * 1e8 ** g.alpha
            if abs(tail - cg) > TAIL_RTOL * abs(cg):
                return False, f"{g.kind}: tail limit {tail} vs {cg}"
    return True, f"{len(cases)} preset weights positive with declared tails"


def check_datum_certificates() -> Tuple[bool, str]:
    f, g = preset_curvature(1.0)
    make_problem(1.0, f, g, initial_b1(lambda x: np.cos(x)))
    make_problem(1.0, f, g, initial_b2(
        lambda x: 1.0 / ((1.0 - x) * (1.0 + x)), gamma=1.0))
    # Near +1 the remainder tends to 3 psi_1(2) + 0.5 = 2, near -1 to 1.5.
    make_problem(1.0, f, g, initial_b3(
        lambda x: 2.0 * psi(1.0, 1.0 - x) + 3.0 * psi(1.0, 1.0 + x) + 0.5,
        gamma_plus=1.0, gamma_minus=1.0, d_plus=2.0, d_minus=3.0,
        chat_plus=2.0, chat_minus=1.5))
    try:
        make_problem(1.0, f, g, initial_b2(
            lambda x: np.ones_like(np.asarray(x, dtype=float)), gamma=1.0))
    except SingflowError:
        pass
    else:
        return False, "bounded datum accepted as B2"
    return True, "B1/B2/B3 accepted, bounded-as-B2 rejected"


# ---------------------------------------------------------------------------
# regime


def check_classifier_branches() -> Tuple[bool, str]:
    b2 = initial_b2(lambda x: 1.0 / ((1.0 - x) * (1.0 + x)), gamma=1.0)
    b3_steep = initial_b3(lambda x: psi(2.0, 1.0 - x) + psi(2.0, 1.0 + x),
                          gamma_plus=2.0, gamma_minus=2.0, d_plus=1.0,
                          d_minus=1.0, chat_plus=0.0, chat_minus=0.0)
    b3_flat = initial_b3(lambda x: psi(0.1, 1.0 - x) + psi(0.1, 1.0 + x),
                         gamma_plus=0.1, gamma_minus=0.1, d_plus=1.0,
                         d_minus=1.0, chat_plus=0.0, chat_minus=0.0)
    flat = _zero_datum()
    dipping = initial_b1(lambda x: np.where(
        1.0 - np.abs(np.asarray(x, dtype=float)) < 1e-8, -np.inf, 0.0))

    f_cur, g_cur = preset_curvature(1.0)          # alpha = 2
    f_slow, g_slow = preset_curvature(2.0)        # alpha = 2.5
    f_mid, g_mid = preset_curvature(2.0 / 3.0)    # alpha = 1.5, thr = 1
    f_crit, g_crit = preset_curvature(0.5)        # alpha = 1
    f_heat, g_heat = preset_p_heat(2.0, 1.0, 0.1)      # alpha = 0, beta = 1
    f_slow0, g_slow0 = preset_p_heat(2.0, 0.5, 0.1)    # alpha = 0, beta = 0.5

    expected = [
        (_spec(f_slow, g_slow, u0=b3_steep), EXISTS_UNIQUE),
        (_spec(f_slow, g_slow, u0=b2), EXISTS),
        (_spec(f_slow, g_slow, u0=flat), NEEDS_B2),
        (_spec(f_mid, g_mid, u0=b3_steep), EXISTS_UNIQUE),
        (_spec(f_mid, g_mid, u0=b3_flat), EXISTS),
        (_spec(f_cur, g_cur, u0=flat), EXISTS),
        (_spec(f_crit, g_crit, u0=flat), EXISTS),
        (_spec(f_heat, g_heat, u0=flat), NOT_EXISTS),
        (_spec(f_heat, g_heat, u0=dipping), OUTSIDE_THEORY),
        (_spec(f_slow0, g_slow0, u0=flat), EXISTS),
    ]
    seen = set()
    for spec, want in expected:
        got = classify(spec).verdict
        if got != want:
            return False, (f"alpha={spec.g.alpha:g} {spec.u0.klass}: "
                           f"got {got}, want {want}")
        seen.add(got)
    missing = {EXISTS, EXISTS_UNIQUE, NOT_EXISTS, NEEDS_B2,
               OUTSIDE_THEORY} - seen
    if missing:
        return False, f"branches never produced: {sorted(missing)}"

    wave_got = (classify_wave(_spec(f_slow, g_slow)),
                classify_wave(_spec(f_mid, g_mid)),
                classify_wave(_spec(f_crit, g_crit)))
    wave_want = (WAVE_EXISTS_BOUNDED, WAVE_EXISTS_UNBOUNDED, WAVE_NOT_EXISTS)
    if wave_got != wave_want:
        return False, f"wave trichotomy {wave_got} != {wave_want}"

    fb = signed_power(1.0)
    fb = type(fb)(eval=fb.eval, inverse=fb.inverse, beta=None, cf_plus=None,
                  cf_minus=None, kind="custom")
    try:
        classify(_spec(fb, g_heat, u0=flat))
    except InsufficientDataError:
        pass
    else:
        return False, "alpha <= 1 without beta did not raise"
    return True, "10 classifier branches + wave trichotomy + missing-beta"


def check_classifier_purity() -> Tuple[bool, str]:
    f, g = preset_p_heat(2.0, 1.0, 0.1)
    spec = _spec(f, g)
    first = classify(spec)
    for _ in range(5):
        again = classify(spec)
        if (again.verdict, again.theorem) != (first.verdict, first.theorem):
            return False, "classifier verdict changed between calls"
    return True, f"verdict stable: {first.verdict}"


# ---------------------------------------------------------------------------
# wave


def check_wave_speed_identity() -> Tuple[bool, str]:
    f, g = preset_curvature(1.0)
    spec = _spec(f, g)
    prof = compute_wave(spec)
    lhs = 2.0 * spec.b * prof.f_inv_c
    err = abs(lhs - prof.g_total) / abs(prof.g_total)
    if err > SPEED_IDENTITY_TOL:
        return False, f"2b f^-1(c) vs G(inf): relative gap {err:.2e}"
    return True, f"identity gap {err:.2e}"


def check_wave_inverse_consistency() -> Tuple[bool, str]:
    f, g = preset_curvature(1.0)
    spec = _spec(f, g)
    prof = compute_wave(spec)
    xs = prof.x_grid[(np.abs(prof.x_grid) < spec.b * (1.0 - 2.0 ** -20))]
    slopes = prof.wx(xs)
    lhs = g_antiderivative(g, slopes)
    rhs = (xs + spec.b) * prof.f_inv_c
    err = float(np.max(np.abs(lhs - rhs))) / prof.g_total
    if err > G_COMPOSE_TOL:
        return False, f"G(G^-1) composition error {err:.2e}"
    return True, f"composition error {err:.2e} over {xs.size} points"


def check_wave_residual_refinement() -> Tuple[bool, str]:
    f, g = preset_curvature(1.0)
    spec = _spec(f, g)
    worst = []
    for n in (512, 1024):
        prof = compute_wave(spec, n_grid=n)
        xs = prof.x_grid[np.minimum(spec.b - prof.x_grid,
                                    spec.b + prof.x_grid) > spec.b * 2e-8]
        res = profile_residuals(prof, spec, xs)
        worst.append(float(np.max(res)))
    if worst[1] > max(worst[0], 1e-6):
        return False, f"residual grew under refinement: {worst}"
    return True, f"max residuals {worst[0]:.2e} -> {worst[1]:.2e}"


def check_wave_divergence() -> Tuple[bool, str]:
    edges = []
    for beta2 in (2.0 / 3.0, 1.0):
        f, g = preset_curvature(beta2)
        prof = compute_wave(_spec(f, g))
        tail_r = prof.w_values[-5:]
        tail_l = prof.w_values[:5]
        if (np.any(np.diff(tail_r) <= 0.0)
                or np.any(np.diff(tail_l) >= 0.0)):
            return False, f"alpha={g.alpha:g}: no growth toward the walls"
        edge = min(float(tail_l[0]), float(tail_r[-1]))
        edges.append(edge)
        if edge < 10.0:
            return False, (f"alpha={g.alpha:g}: last-grid value {edge:.3g} "
                           "does not evidence divergence")
    return True, (f"walls reached at {edges[0]:.3g} and {edges[1]:.3g}, "
                  "growing monotonically (alpha 1.5, 2)")


# ---------------------------------------------------------------------------
# barriers


def _family_instances() -> List[Tuple[str, BarrierFunction, ProblemSpec,
                                      str, Tuple[float, float]]]:
    """(label, barrier, spec, side, t_window) per family.

    Parameters are deliberately gentle (small k, small L): the derivative
    check needs feature lengths well above the fixed 1e-5 step, and formula
    correctness does not depend on the parameter size.  The steep acceptance
    parameters are exercised separately through verify_inequality.
    """
    out = []

    f_cur, g_cur = preset_curvature(1.0)
    spec_cur = _spec(f_cur, g_cur)
    out.append(("h_tail", h_tail(1.0, 1.0, 1.0, 1.0, 1.0, 0.5), spec_cur,
                "sub", (0.0, 1.0)))
    out.append(("sub_uk", sub_uk(spec_cur, 5.0), spec_cur, "sub",
                (0.0, 1.0)))

    f_h, g_h = preset_p_heat(2.0, 1.0, 0.1)
    spec_h = _spec(f_h, g_h)
    out.append(("sub_vL", sub_vL(spec_h, 8.0), spec_h, "sub_strict(1)",
                (0.0, 1.0)))

    f_s, g_s = preset_p_heat(2.0, 0.5, 0.1)
    spec_s = _spec(f_s, g_s)
    sup = super_family(spec_s, None, 3.0, 1.0e4)
    out.append(("super_family", sup, spec_s, "super_strict(1)",
                (0.0, 0.9 * sup.params["T"])))

    grid = np.linspace(-1.0, 1.0, 41)
    env = convex_envelope(grid, grid ** 2 + 0.1 * np.abs(grid))
    out.append(("convex_envelope", env, spec_cur, "sub", (0.0, 1.0)))

    prof = compute_wave(spec_cur)
    out.append(("translate_wave", translate_wave(prof, spec_cur), spec_cur,
                "sub", (0.0, 1.0)))
    return out


def _fd_worst(bf: BarrierFunction, spec: ProblemSpec,
              t_window: Tuple[float, float], rng) -> float:
    """Worst scaled deviation between analytic partials and centered
    differences of eval, away from kinks and walls."""
    clear = DERIV_CLEARANCE * max(1.0, spec.b)
    lo = max(bf.domain[0], -spec.b) + clear
    hi = min(bf.domain[1], spec.b) - clear
    t_lo = t_window[0] + 0.05 * (t_window[1] - t_window[0])
    t_hi = t_window[1] - 0.05 * (t_window[1] - t_window[0])
    worst = 0.0
    n_used = 0
    for _ in range(DERIV_MAX_ROUNDS):
        if n_used >= DERIV_POINTS:
            break
        xs = lo + (hi - lo) * rng.random(4 * DERIV_POINTS)
        t = float(t_lo + (t_hi - t_lo) * rng.random())
        keep = np.ones(xs.size, dtype=bool)
        for loc, _, _ in bf.kinks:
            xk = float(loc(t))
            if math.isfinite(xk):
                keep &= np.abs(xs - xk) > clear
        xs = xs[keep][:DERIV_POINTS - n_used]
        if xs.size == 0:
            continue
        n_used += xs.size
        h = DERIV_STEP * np.maximum(1.0, np.abs(xs))
        ht = DERIV_STEP * max(1.0, abs(t))
        v0 = np.asarray(bf.eval(xs, t), dtype=float)
        vp = np.asarray(bf.eval(xs + h, t), dtype=float)
        vm = np.asarray(bf.eval(xs - h, t), dtype=float)
        vscale = float(np.max(np.abs(v0))) if v0.size else 1.0
        fd_dx = (vp - vm) / (2.0 * h)
        fd_dxx = (vp - 2.0 * v0 + vm) / h ** 2
        fd_dt = (np.asarray(bf.eval(xs, t + ht), dtype=float)
                 - np.asarray(bf.eval(xs, t - ht), dtype=float)) / (2.0 * ht)
        for fd, an in zip((fd_dx, fd_dxx, fd_dt), bf.jet(xs, t)):
            an = np.asarray(an, dtype=float)
            scale = np.maximum(1.0, np.maximum(np.abs(an), vscale))
            worst = max(worst, float(np.max(np.abs(fd - an) / scale)))
    return worst


def check_barrier_derivatives() -> Tuple[bool, str]:
    rng = np.random.default_rng(SUITE_SEED)
    report = []
    ok = True
    for label, bf, spec, _side, t_window in _family_instances():
        dev = _fd_worst(bf, spec, t_window, rng)
        report.append(f"{label} {dev:.1e}")
        ok = ok and dev <= DERIV_RTOL
    return ok, "; ".join(report)


def check_barrier_inequalities() -> Tuple[bool, str]:
    parts = []
    ok = True
    for label, bf, spec, side, t_window in _family_instances():
        rep = verify_inequality(bf, spec, side, 2000, t_window=t_window,
                                seed=SUITE_SEED)
        kinks_ok = all(entry["pass"] for entry in rep["kink_checks"])
        ok = ok and rep["pass"] and kinks_ok
        parts.append(f"{label} worst={rep['worst_residual']:.1e}"
                     f" kinks={len(rep['kink_checks'])}")
    return ok, "; ".join(parts)


def check_super_trajectory() -> Tuple[bool, str]:
    f, g = preset_p_heat(2.0, 0.5, 0.1)
    spec = _spec(f, g)
    alpha, beta = g.alpha, f.beta
    bf = super_family(spec, None, 3.0, 1.0e4)
    p = bf.params
    ts = np.linspace(0.0, p["T"], 200)
    ls = np.array([p["L"](t) for t in ts])
    if not np.all(np.diff(ls) > 0.0):
        return False, "L(t) is not strictly increasing"
    closed = ls * (1.0 - beta * (1.0 - alpha)) - beta * (2.0 - alpha)
    if not np.all(closed > 0.0):
        return False, "closed admissibility condition fails on trajectory"
    mu = super_mu(alpha, beta)
    lhs = 3.0 * math.sqrt(p["nu"]) / (2.0 * spec.b)
    rhs = (2.0 / spec.b) * ls[:-1] ** (mu + 1.0) * 1.5 ** (ls[:-1] + 1.0)
    if not np.all(lhs > rhs):
        return False, "junction slope inequality fails before the horizon"
    c_star = max(8.0 * spec.b / 9.0, 16.0 / 9.0, 4.0 / spec.b ** 2)
    at_t = c_star * ls[-1] ** (2.0 * mu + 2.0) * 1.5 ** (2.0 * ls[-1] + 2.0)
    gap = abs(at_t - p["nu"]) / p["nu"]
    if gap > 1e-6:
        return False, f"horizon closure gap {gap:.2e}"
    return True, (f"L: {ls[0]:.3f} -> {ls[-1]:.3f}, slope margin "
                  f"{float(np.min(lhs - rhs)):.3g}, closure gap {gap:.1e}")


def check_uk_limits() -> Tuple[bool, str]:
    f, g = preset_curvature(1.0)
    spec = _spec(f, g)
    b = spec.b
    xs = np.linspace(-0.95 * b, 0.95 * b, 201)
    bf = sub_uk(spec, 1.0e4)
    start = np.asarray(bf.eval(xs, 0.0), dtype=float)
    target = -np.sqrt(b * b - xs * xs)
    err = float(np.max(np.abs(start - target)))
    if err > UK_LIMIT_TOL:
        return False, f"initial slice limit error {err:.2e} at k = 1e4"

    # Sample exactly at the wall.  Any offset, however small, eventually
    # swamps the barrier's inner length scale e^(-E(t)) as k grows, which
    # makes near-wall probes look non-monotone even though the wall trace
    # itself is monotone in k.
    edge = []
    for k in (1.0e2, 1.0e3, 1.0e4):
        bfk = sub_uk(spec, k)
        edge.append(float(bfk.eval(np.array([b]), 1.0)[0]))
    if not (edge[0] < edge[1] < edge[2]):
        return False, f"wall values not increasing in k: {edge}"

    kinks = [float(bf.kinks[0][0](t)) for t in (0.0, 0.25, 0.5, 1.0)]
    if not all(a > b2 for a, b2 in zip(kinks, kinks[1:])):
        return False, f"junction x(k, t) not decreasing in t: {kinks}"
    return True, (f"initial-slice error {err:.1e}; wall values "
                  f"{edge[0]:.3f} < {edge[1]:.3f} < {edge[2]:.3f}")


def check_vl_properties() -> Tuple[bool, str]:
    f, g = preset_p_heat(2.0, 1.0, 0.1)
    spec = _spec(f, g)
    xs = np.linspace(-0.99, 0.99, 101)
    bf = sub_vL(spec, 50.0)
    slice0 = np.asarray(bf.eval(xs, 0.0), dtype=float)
    if float(np.max(np.abs(slice0 - 1.0))) > 0.0:
        return False, "initial slice is not identically 1"

    interior = [float(sub_vL(spec, L).eval(np.array([0.5]), 2.0)[0])
                for L in (50.0, 100.0, 200.0)]
    if not (interior[0] < interior[1] < interior[2]):
        return False, f"interior values not growing in L: {interior}"

    ls = np.array([10.0, 20.0, 40.0])
    cs = np.array([sub_vL(spec, L).params["c_L"] for L in ls])
    slope = float(np.polyfit(np.log(ls), np.log(cs), 1)[0])
    if abs(slope - 1.0) > 0.01:
        return False, f"c_L growth exponent {slope:.4f} != 1"
    return True, (f"slice-1 exact; interior growth "
                  f"{interior[0]:.2e} -> {interior[2]:.2e}; "
                  f"c_L exponent {slope:.4f}")


# ---------------------------------------------------------------------------
# solver


def check_solver_max_principle() -> Tuple[bool, str]:
    f, g = preset_p_heat(2.0, 1.0, 0.1)
    rng = np.random.default_rng(SUITE_SEED)
    bumps = rng.random(200) * 2.0
    spec = _spec(f, g, u0=initial_b1(lambda x: np.interp(
        x, np.linspace(-1.0, 1.0, 200), bumps)))
    rep = solve(spec, n=200, cap=5.0, t_end=0.02)
    top = float(np.max(rep.final.values))
    ok = (np.all(np.isfinite(rep.final.values)) and top <= 5.0 + 1e-9
          and rep.comparison_violations == 0)
    return ok, (f"max value {top:.4f} <= cap, violations "
                f"{rep.comparison_violations}")


def check_solver_comparison() -> Tuple[bool, str]:
    f, g = preset_curvature(1.0)
    spec = _spec(f, g)
    rng = np.random.default_rng(SUITE_SEED + 1)
    n = 120
    lows, highs = [], []
    for _ in range(5):
        base = np.cumsum(rng.standard_normal(n)) * 0.05
        gap = 0.05 + rng.random(n) * 0.1
        lows.append(make_field(1.0, n, base, cap=4.0))
        highs.append(make_field(1.0, n, np.minimum(base + gap, 4.0), cap=4.0))
    lows, highs, excess = march_ordered(spec, lows, highs, 4.0e-3)
    if excess.max() > 0.0:
        return False, f"ordering violated by {excess.max():.3e}"
    worst = min(float(np.min(hi.values - lo.values))
                for lo, hi in zip(lows, highs))
    return True, f"5 ordered pairs stay ordered; min gap {worst:.4f}"


# ---------------------------------------------------------------------------
# residual operator, scaling maps and rate fits


def check_residual_monotonicity() -> Tuple[bool, str]:
    f, g = preset_curvature(1.0)
    rng = np.random.default_rng(SUITE_SEED + 2)
    dx = rng.standard_normal(500) * 3.0
    dt = rng.standard_normal(500)
    factors = np.linspace(0.25, 4.0, 9)
    for sign in (+1.0, -1.0):
        dxx = sign * rng.random(500)
        prev = None
        for factor in factors:
            cur = residual_values(f, g, dt, dx, dxx, factor)
            if prev is not None:
                gap = cur - prev
                if sign > 0 and float(np.max(gap)) > 1e-12:
                    return False, "residual not nonincreasing (dxx >= 0)"
                if sign < 0 and float(np.min(gap)) < -1e-12:
                    return False, "residual not nondecreasing (dxx <= 0)"
            prev = cur
    return True, "monotone in the factor for both curvature signs"


def check_scaling_roundtrip() -> Tuple[bool, str]:
    rng = np.random.default_rng(SUITE_SEED + 3)

    def fn(x, t):
        return math.sin(3.0 * x) + x * x - 0.5 * t + math.exp(-t) * x

    worst = 0.0
    for lam in (0.0, 0.3, 0.7, 0.99):
        once = scale_sub(scale_super(fn, lam), lam)
        other = scale_super(scale_sub(fn, lam), lam)
        for _ in range(200):
            x = float(rng.uniform(-0.9, 0.9))
            t = float(rng.uniform(0.0, 2.0))
            ref = fn(x, t)
            worst = max(worst, abs(once(x, t) - ref), abs(other(x, t) - ref))
    if worst > ROUNDTRIP_TOL:
        return False, f"round-trip deviation {worst:.2e}"
    return True, f"worst round-trip deviation {worst:.2e}"


def check_rate_fit_recovery() -> Tuple[bool, str]:
    b = 1.0
    # Plant the data on the distances the fitter will itself recover from
    # the abscissas.  Dyadic offsets keep b - (b - dist) exact, so the
    # planted model really is in the fitter's search family to the bit.
    dist = 2.0 ** -np.arange(3, 31, dtype=float)
    xs = b - dist
    gamma_fit, d_fit, spread = fit_boundary_rate(xs, 3.0 * dist ** -2.0, b)
    if not (gamma_fit == 2.0 and abs(d_fit - 3.0) < 1e-8
            and spread < PLANTED_SPREAD_TOL):
        return False, (f"planted power: got gamma={gamma_fit}, D={d_fit}, "
                       f"spread={spread:.2e}")
    gamma_log, d_log, spread_log = fit_boundary_rate(
        xs, -np.log(dist) + 7.0, b)
    if not (gamma_log == 0.0 and abs(d_log - 1.0) < 1e-8
            and spread_log < PLANTED_SPREAD_TOL):
        return False, (f"planted log: got gamma={gamma_log}, D={d_log}, "
                       f"spread={spread_log:.2e}")
    return True, (f"power (2, 3) and log (0, 1) recovered, spreads "
                  f"{spread:.1e} / {spread_log:.1e}")


# ---------------------------------------------------------------------------
# driver

CHECKS: Tuple[Tuple[str, Callable[[], Tuple[bool, str]]], ...] = (
    ("nonlinearity_contracts", check_nonlinearity_contracts),
    ("weight_contracts", check_weight_contracts),
    ("datum_certificates", check_datum_certificates),
    ("classifier_branches", check_classifier_branches),
    ("classifier_purity", check_classifier_purity),
    ("wave_speed_identity", check_wave_speed_identity),
    ("wave_inverse_consistency", check_wave_inverse_consistency),
    ("wave_residual_refinement", check_wave_residual_refinement),
    ("wave_divergence", check_wave_divergence),
    ("barrier_derivative_consistency", check_barrier_derivatives),
    ("barrier_inequalities", check_barrier_inequalities),
    ("super_trajectory", check_super_trajectory),
    ("uk_limits", check_uk_limits),
    ("vl_properties", check_vl_properties),
    ("solver_max_principle", check_solver_max_principle),
    ("solver_comparison", check_solver_comparison),
    ("residual_factor_monotonicity", check_residual_monotonicity),
    ("scaling_roundtrip", check_scaling_roundtrip),
    ("rate_fit_recovery", check_rate_fit_recovery),
)


def run_suite() -> Dict:
    """Run every invariant check and return a JSON-ready summary."""
    checks = []
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:   # one broken check must not end the run
            log.error("check %s raised", name, exc_info=True)
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        checks.append({"name": name, "pass": passed, "detail": detail})
        log.info("%-32s %s (%.2fs) %s", name,
                 "pass" if passed else "FAIL", elapsed, detail)
    n_fail = sum(1 for c in checks if not c["pass"])
    return {
        "checks": checks,
        "n_checks": len(checks),
        "n_failed": n_fail,
        "pass": n_fail == 0,
    }
