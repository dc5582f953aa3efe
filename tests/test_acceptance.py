"""End-to-end acceptance checks.

One test per shipping criterion; `pytest -v tests/test_acceptance.py`
prints one pass/fail line for each.  Time budgets are asserted where the
criterion carries one.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from singflow import (
    check_points,
    compute_wave,
    cap_study,
    fit_boundary_rate,
    initial_b1,
    make_field,
    make_problem,
    march_ordered,
    preset_curvature,
    preset_p_heat,
    profile_residuals,
    signed_power,
    solve,
    sub_uk,
    sub_vL,
    super_family,
    verify_inequality,
)
from singflow.cli import main as cli_main


def _flat_problem(b, f, g):
    return make_problem(b, f, g, initial_b1(lambda x: np.zeros_like(x)))


def test_criterion_1_arctan_wave_oracle():
    """Closed-form profile -log cos x on (-pi/2, pi/2): speed 1, W exact."""
    t0 = time.perf_counter()
    f, g = preset_curvature(1.0)
    spec = _flat_problem(np.pi / 2.0, f, g)
    prof = compute_wave(spec)
    xs = check_points(prof)
    err = np.max(np.abs(prof.w(xs) + np.log(np.cos(xs))))
    elapsed = time.perf_counter() - t0
    assert abs(prof.c - 1.0) <= 1e-8
    assert err < 1e-6
    assert elapsed < 1.0


def test_criterion_2_wave_residuals_refine():
    """Quadrature profiles satisfy the ODE to 1e-6 and refine monotonely."""
    t0 = time.perf_counter()
    for beta2 in (0.6, 1.0, 2.0):
        f, g = preset_curvature(beta2)
        spec = _flat_problem(1.0, f, g)
        maxima = []
        for n_grid in (2 ** 10, 2 ** 11):
            prof = compute_wave(spec, n_grid=n_grid)
            res = profile_residuals(prof, spec, check_points(prof))
            maxima.append(float(np.max(res)))
        assert maxima[0] < 1e-6, f"beta2={beta2}: {maxima[0]:.3e}"
        assert maxima[1] <= maxima[0], f"beta2={beta2}: {maxima}"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_boundary_rate_recovery():
    """Wall-rate fitter recovers the power branch and the log branch."""
    t0 = time.perf_counter()
    dist = 2.0 ** -np.arange(3, 21, dtype=float)
    for beta2, want_gamma in ((2.0 / 3.0, 1.0), (1.0, 0.0)):
        f, g = preset_curvature(beta2)
        spec = _flat_problem(1.0, f, g)
        prof = compute_wave(spec)
        x = spec.b - dist
        gamma_fit, _, spread = fit_boundary_rate(x, prof.w(x), spec.b,
                                                 side=1, alpha=g.alpha)
        if want_gamma == 0.0:
            assert gamma_fit == 0.0
        else:
            assert abs(gamma_fit / want_gamma - 1.0) <= 0.02
        assert spread < 0.05
    assert time.perf_counter() - t0 < 5.0


def test_criterion_4_barrier_certificates():
    """All three explicit families verify pointwise at 1e4 samples."""
    t0 = time.perf_counter()
    reports = []

    f, g = preset_p_heat(2.0, 1.0, 0.1)
    spec = _flat_problem(1.0, f, g)
    for L in (50.0, 100.0, 200.0):
        reports.append(verify_inequality(sub_vL(spec, L), spec, "sub",
                                         samples=10000, seed=1))

    for beta2 in (0.5, 1.0):
        f, g = preset_curvature(beta2)
        spec = _flat_problem(1.0, f, g)
        for k in (100.0, 1000.0):
            reports.append(verify_inequality(sub_uk(spec, k), spec, "sub",
                                             samples=10000, seed=2))

    f, g = preset_p_heat(2.0, 0.5, 0.1)
    spec = _flat_problem(1.0, f, g)
    bf = super_family(spec, v0=None, L0=3.0, nu=1e4)
    reports.append(verify_inequality(bf, spec, "super",
                                     samples=10000, seed=3))

    spec = make_problem(1.0, signed_power(1.0), preset_curvature(0.5)[1],
                        initial_b1(lambda x: np.zeros_like(x)))
    bf = super_family(spec, v0=None, L0=1.2, nu=1e4)
    reports.append(verify_inequality(bf, spec, "super",
                                     samples=10000, seed=3))

    for rep in reports:
        assert rep["n_samples"] >= 10000, rep["family"]
        assert rep["pass"], (rep["family"], rep["worst_residual"],
                             rep["worst_point"])
        assert all(kc["pass"] for kc in rep["kink_checks"]), rep["family"]
    assert time.perf_counter() - t0 < 60.0


def test_criterion_5_horizon_grows_with_steepness():
    """The certified horizon is monotone in the arc steepness and grows
    at least fivefold over nu in {1e2, 1e4, 1e6, 1e8}."""
    spec = make_problem(1.0, signed_power(1.0), preset_curvature(0.5)[1],
                        initial_b1(lambda x: np.zeros_like(x)))
    horizons = [super_family(spec, v0=None, L0=1.2, nu=nu).valid_until
                for nu in (1e2, 1e4, 1e6, 1e8)]
    assert all(a < b for a, b in zip(horizons, horizons[1:])), horizons
    assert horizons[-1] / horizons[0] > 5.0, horizons


def test_criterion_6_ordered_pairs_stay_ordered():
    """100 random ordered datum pairs stay ordered under lockstep solves,
    marched as one batch per preset."""
    rng = np.random.default_rng(2026)
    pool = [preset_curvature(0.6), preset_curvature(1.0),
            preset_curvature(2.0), preset_p_heat(2.0, 1.0, 0.1),
            preset_p_heat(3.0, 0.5, 0.5)]
    n, t_end = 200, 0.05
    dx = 2.0 / (n + 1)
    x = -1.0 + dx * np.arange(1, n + 1)
    batches = [([], [], []) for _ in pool]   # draw numbers, lows, highs
    for k in range(100):
        draws, lows, highs = batches[rng.integers(len(pool))]
        amp = rng.uniform(0.1, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        tilt = rng.uniform(-0.5, 0.5)
        lo_vals = amp * np.sin(np.pi * x + phase) + tilt * x
        gap = rng.uniform(0.05, 0.5)
        bump = rng.uniform(0.0, 0.5)
        hi_vals = lo_vals + gap + bump * 0.5 * (1.0 + np.cos(np.pi * x))
        cap = rng.uniform(2.0, 6.0)
        draws.append(k)
        lows.append(make_field(1.0, n, lo_vals, cap=cap))
        highs.append(make_field(1.0, n, hi_vals, cap=cap))
    finals, violations = [b""] * 100, 0
    for (f, g), (draws, lows, highs) in zip(pool, batches):
        lows, highs, excess = march_ordered(_flat_problem(1.0, f, g), lows,
                                            highs, t_end)
        violations += int(np.count_nonzero(excess > 1e-12))
        for k, lo, hi in zip(draws, lows, highs):
            finals[k] = lo.values.tobytes() + hi.values.tobytes()
    assert violations == 0
    # sha256 of the final states in draw order, each low before its high,
    # recorded from per-pair loops of cfl_limit and step calls
    assert hashlib.sha256(b"".join(finals)).hexdigest() == (
        "14f11c00e9b23ae156a131a033413ce3c8ce2ffe55c59f387d554b3a7bd1d890")


def test_criterion_7_cap_dichotomy():
    """Raising the boundary cap saturates where solutions exist and
    diverges where they do not."""
    t0 = time.perf_counter()
    caps = [10.0, 20.0, 40.0, 80.0, 160.0]
    cases = [
        (preset_p_heat(2.0, 0.5, 0.1), "saturating"),
        (preset_curvature(1.0), "saturating"),
        (preset_p_heat(2.0, 1.0, 0.1), "diverging"),
        (preset_p_heat(2.0, 2.0, 0.1), "diverging"),
    ]
    for (f, g), want in cases:
        spec = _flat_problem(1.0, f, g)
        study = cap_study(spec, n=400, caps=caps, probe=(0.0, 0.1))
        assert study.verdict == want, (g.kind, study.verdict, study.rows)
    assert time.perf_counter() - t0 < 300.0


def test_criterion_8_clamped_wave_speed():
    """A clamped traveling profile climbs at the wave speed in the core."""
    f, g = preset_curvature(1.0)
    spec = _flat_problem(1.0, f, g)
    prof = compute_wave(spec)
    cap = 8.0
    clamped = make_problem(1.0, f, g,
                           initial_b1(lambda x: np.minimum(prof.w(x), cap)))
    rep = solve(clamped, n=301, cap=cap, t_end=0.2,
                snapshot_times=np.linspace(0.0, 0.2, 11).tolist())
    mask = np.abs(rep.final.nodes) <= 0.5
    times = np.array([t for t, _ in rep.snapshots])
    base = rep.snapshots[0][1][mask]
    lifts = np.array([np.mean(vals[mask] - base)
                      for _, vals in rep.snapshots])
    speed = float(np.dot(times, lifts) / np.dot(times, times))
    assert abs(speed / prof.c - 1.0) < 0.05, (speed, prof.c)


def test_criterion_9_invariant_suite_cli(tmp_path):
    """The `verify` subcommand runs the invariant suite green."""
    t0 = time.perf_counter()
    code = cli_main(["verify", "--out", str(tmp_path / "verify_out")])
    assert code == 0
    assert time.perf_counter() - t0 < 120.0
