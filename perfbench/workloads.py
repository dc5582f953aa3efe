"""The four benchmark workloads: task lists built from a seed, with oracles.

Each workload is built from ``(seed, workdir, small)``.  Building it is the
workload's set-up: it draws every input from the seed and prepares what a
user would have at hand before the first task (specs, retained weights,
scenario files).  ``tasks`` is the list one pass runs, in order; a task
returns True when its oracle holds.  ``small`` gives the reduced list the
traced run of another workload uses to measure this workload's layers.

Spans around public singflow calls are named after the per-layer metric
they feed (see tracing.py).  Nothing inside singflow is wrapped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from singflow import (check_points, cap_study, cfl_limit, classify,
                      compute_wave, divergence_rate, fit_boundary_rate,
                      initial_b1, make_field, make_problem,
                      power_tail_weight, preset_curvature, preset_p_heat,
                      profile_residuals, signed_power, solve, step, sub_uk,
                      sub_vL, super_family, translate_wave,
                      verify_inequality)
from singflow import cli, suite

@dataclass(frozen=True)
class Task:
    kind: str
    run: Callable[[object], bool]


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _flat_problem(b, f, g):
    return make_problem(b, f, g, initial_b1(_zero))


def _stratified(rng, n, lo, hi):
    """n draws from [lo, hi), one in each of n equal bins, in seeded order.

    Every seed then spans the range alike, so the cost of a run differs
    between seeds by noise, not by which part of the range a seed drew.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


# ---------------------------------------------------------------------------
# cap_ladder

# Classifier verdict -> the cap-study verdict it predicts.
_EXPECTED_VERDICT = {"exists": "saturating", "exists_unique": "saturating",
                     "not_exists": "diverging"}
_CAPS = (10.0, 20.0, 40.0, 80.0, 160.0)
_PROBE = (0.0, 0.1)
_MICRO_SIZES = (100, 400, 4000)
_MICRO_CALLS = 200


@dataclass(frozen=True)
class Ladder:
    label: str
    preset: Callable
    params: tuple
    n: int
    caps: tuple


# p_heat(2, 0.5, 0.1) reads "inconclusive" at n = 200 and "saturating" at
# n = 400; both stay so that a scheme fixing the first shows up.
LADDERS = (
    Ladder("curvature(1)@200", preset_curvature, (1.0,), 200, _CAPS),
    Ladder("p_heat(2,1,0.1)@200", preset_p_heat, (2.0, 1.0, 0.1), 200, _CAPS),
    Ladder("p_heat(2,0.5,0.1)@200", preset_p_heat, (2.0, 0.5, 0.1), 200,
           _CAPS),
    Ladder("p_heat(2,0.5,0.1)@400", preset_p_heat, (2.0, 0.5, 0.1), 400,
           _CAPS),
    Ladder("p_heat(2,2,0.1)@100", preset_p_heat, (2.0, 2.0, 0.1), 100,
           _CAPS[:4]),
)
SMALL_LADDERS = (
    Ladder("curvature(1)@100", preset_curvature, (1.0,), 100, _CAPS[:4]),
)


class CapLadder:
    """classify, then cap_study, on each ladder; order drawn from the seed."""

    name = "cap_ladder"
    min_passes = 1

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        rng = np.random.default_rng(seed)
        ladders = SMALL_LADDERS if small else LADDERS
        self.ladders = [ladders[i] for i in rng.permutation(len(ladders))]
        self.fg = {lad.label: lad.preset(*lad.params) for lad in self.ladders}
        self.attempted = 0
        self.inconclusive = 0
        self.tasks = [Task("ladder", partial(self._ladder, lad))
                      for lad in self.ladders]

    def _ladder(self, lad: Ladder, tr) -> bool:
        f, g = self.fg[lad.label]
        with tr.span("model.make_problem_ms"):
            spec = _flat_problem(1.0, f, g)
        with tr.span("regime.classify_ms"):
            verdict = classify(spec).verdict
        with tr.span("solver.cap_study_s"):
            study = cap_study(spec, lad.n, lad.caps, _PROBE)
        self.attempted += 1
        if study.verdict == "inconclusive":
            self.inconclusive += 1
            return True
        return study.verdict == _EXPECTED_VERDICT.get(verdict)

    def stats(self) -> Dict[str, float]:
        return {"inconclusive_ratio": self.inconclusive / self.attempted}

    def extras(self, tr) -> None:
        """Sequential per-cap solves of every ladder, then step/cfl_limit
        micro-timings on fixed fields."""
        seq_s = 0.0
        steps = node_steps = 0.0
        dt_lo, dt_hi = math.inf, 0.0
        for lad in self.ladders:
            spec = _flat_problem(1.0, *self.fg[lad.label])
            for cap in lad.caps:
                t0 = time.perf_counter()
                rep = solve(spec, lad.n, cap, _PROBE[1])
                t1 = time.perf_counter()
                tr.record("solver.solve", t0, t1)
                seq_s += t1 - t0
                hist = rep.dt_history
                steps += hist["n_steps"]
                node_steps += hist["n_steps"] * lad.n
                dt_lo = min(dt_lo, hist["dt_min"])
                dt_hi = max(dt_hi, hist["dt_max"])
                tr.add("solver.diverged_runs", float(rep.diverged))
        pooled = sum(tr.durations("solver.cap_study_s"))
        tr.put("solver.steps", steps)
        tr.put("solver.solve_s", seq_s)
        tr.put("solver.us_per_step", 1e6 * seq_s / steps)
        tr.put("solver.ns_per_node_step", 1e9 * seq_s / node_steps)
        tr.put("solver.pool_ratio", pooled / seq_s)
        tr.put("solver.dt_min", dt_lo)
        tr.put("solver.dt_max", dt_hi)

        spec = _flat_problem(1.0, *preset_curvature(1.0))
        for n in _MICRO_SIZES:
            field = make_field(1.0, n, lambda x: 0.5 * np.cos(np.pi * x / 2)
                               + 0.2 * x, cap=10.0)
            dt = 0.5 * cfl_limit(field, spec)
            for _ in range(_MICRO_CALLS):
                t0 = time.perf_counter()
                cfl_limit(field, spec)
                t1 = time.perf_counter()
                step(field, spec, dt)
                t2 = time.perf_counter()
                tr.record(f"solver.cfl_limit_us.n{n}", t0, t1)
                tr.record(f"solver.step_us.n{n}", t1, t2)


# ---------------------------------------------------------------------------
# certify

_CERT_TASKS = 120
_CERT_TASKS_SMALL = 6
_CERT_FAMILIES = ("sub_vL", "sub_uk", "super_family")


class Certify:
    """Construct a barrier, then verify_inequality on it.

    Families rotate in a seeded order; one task in ten samples 1e5 points,
    the rest 1e4.  Specs are shared set-up, as a user builds them once.
    """

    name = "certify"
    min_passes = 1

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        rng = np.random.default_rng(seed)
        n_tasks = _CERT_TASKS_SMALL if small else _CERT_TASKS
        vl_spec = _flat_problem(1.0, *preset_p_heat(2.0, 1.0, 0.1))
        uk_specs = {b2: _flat_problem(1.0, *preset_curvature(b2))
                    for b2 in (0.5, 0.75, 1.0)}
        # (spec, L0) pairs of criterion 4; nu from 1e3 keeps L0 = 3 valid.
        super_specs = (
            (_flat_problem(1.0, *preset_p_heat(2.0, 0.5, 0.1)), 3.0),
            (make_problem(1.0, signed_power(1.0), preset_curvature(0.5)[1],
                          initial_b1(_zero)), 1.2),
        )
        families = rng.permutation(np.resize(_CERT_FAMILIES, n_tasks))
        large = set(rng.choice(n_tasks, size=max(1, n_tasks // 10),
                               replace=False).tolist())
        self.tasks = []
        for i, family in enumerate(families.tolist()):
            samples = 100_000 if i in large else 10_000
            vseed = int(rng.integers(2 ** 31))
            if family == "sub_vL":
                spec = vl_spec
                build = partial(sub_vL, spec, float(rng.uniform(50.0, 200.0)))
                side = "sub"
            elif family == "sub_uk":
                spec = uk_specs[float(rng.choice((0.5, 0.75, 1.0)))]
                build = partial(sub_uk, spec, float(10 ** rng.uniform(2, 3)))
                side = "sub"
            else:
                spec, l0 = super_specs[int(rng.integers(2))]
                build = partial(super_family, spec, None, l0,
                                float(10 ** rng.uniform(3, 8)))
                side = "super"
            self.tasks.append(Task(family, partial(
                self._certify, family, spec, build, side, samples, vseed)))

    @staticmethod
    def _certify(family, spec, build, side, samples, vseed, tr) -> bool:
        with tr.span(f"barriers.construct_ms.{family}"):
            bf = build()
        size = "1e5" if samples == 100_000 else "1e4"
        with tr.span(f"barriers.verify_ms.{size}"):
            rep = verify_inequality(bf, spec, side, samples=samples,
                                    seed=vseed)
        kinks_ok = all(kc["pass"] for kc in rep["kink_checks"])
        tr.add("barriers.samples", rep["n_samples"])
        tr.add("barriers.kink_checks", len(rep["kink_checks"]))
        tr.add("barriers.certificates")
        tr.add("barriers.passed", float(rep["pass"]))
        return bool(rep["pass"] and kinks_ok
                    and rep["n_samples"] >= samples)

    def stats(self) -> Dict[str, float]:
        return {}

    def extras(self, tr) -> None:
        tr.put("barriers.pass_ratio", tr.counts["barriers.passed"]
               / tr.counts["barriers.certificates"])


# ---------------------------------------------------------------------------
# wave_profiles

_WAVE_WEIGHTS = 20
_WAVE_WEIGHTS_SMALL = 1
SPEED_IDENTITY_TOL = 1e-10
_TRANSLATE_SAMPLES = 10_000
_RATE_DISTANCES = 2.0 ** -np.arange(3, 21, dtype=float)


@dataclass(frozen=True)
class WeightDraw:
    alpha: float
    b: float
    curvature: bool
    cg_plus: float
    cg_minus: float

    def fg(self):
        if self.curvature:
            return preset_curvature(1.0 / (3.0 - self.alpha))
        return signed_power(1.0), power_tail_weight(self.alpha, self.cg_plus,
                                                    self.cg_minus)


def _speed_identity_ok(prof) -> bool:
    gap = abs(2.0 * prof.b * prof.f_inv_c - prof.g_total) / prof.g_total
    return gap <= SPEED_IDENTITY_TOL


class WaveProfiles:
    """Per seeded weight: cold compute_wave on a fresh weight, warm
    compute_wave at n_grid 2048 on a retained one, residuals of a warm
    n_grid 512 profile, its divergence and boundary-rate fits, and a
    certified translate_wave; plus the arctan oracle once per pass."""

    name = "wave_profiles"
    min_passes = 1

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        rng = np.random.default_rng(seed)
        n_weights = _WAVE_WEIGHTS_SMALL if small else _WAVE_WEIGHTS
        self.tasks = [Task("arctan_oracle", self._arctan)]
        alphas = _stratified(rng, n_weights, 1.2, 2.8)
        widths = _stratified(rng, n_weights, 0.5, 2.0)
        curvature = rng.permutation(np.arange(n_weights) % 2 == 0)
        for alpha, b, curv in zip(alphas, widths, curvature):
            draw = WeightDraw(alpha=float(alpha), b=float(b),
                              curvature=bool(curv),
                              cg_plus=float(rng.uniform(0.5, 2.0)),
                              cg_minus=float(rng.uniform(0.5, 2.0)))
            spec = _flat_problem(draw.b, *draw.fg())
            compute_wave(spec)   # the retained weight's tables are built
            state = {"spec": spec, "seed": int(rng.integers(2 ** 31))}
            self.tasks += [
                Task("wave_cold", partial(self._cold, draw)),
                Task("wave_warm", partial(self._warm, state)),
                Task("wave_residuals", partial(self._residuals, state)),
                Task("wave_rates", partial(self._rates, state)),
                Task("wave_translate", partial(self._translate, state)),
            ]

    @staticmethod
    def _arctan(tr) -> bool:
        spec = _flat_problem(np.pi / 2.0, *preset_curvature(1.0))
        prof = compute_wave(spec)
        xs = check_points(prof)
        err = float(np.max(np.abs(prof.w(xs) + np.log(np.cos(xs)))))
        return abs(prof.c - 1.0) <= 1e-8 and err < 1e-6

    @staticmethod
    def _cold(draw: WeightDraw, tr) -> bool:
        spec = _flat_problem(draw.b, *draw.fg())   # fresh weight: cache miss
        with tr.span("wave.cold_ms"):
            prof = compute_wave(spec)
        return _speed_identity_ok(prof)

    @staticmethod
    def _warm(state, tr) -> bool:
        with tr.span("wave.warm_ms.2048"):
            prof = compute_wave(state["spec"], n_grid=2048)
        return _speed_identity_ok(prof)

    @staticmethod
    def _residuals(state, tr) -> bool:
        spec = state["spec"]
        with tr.span("wave.warm_ms.512"):
            prof = compute_wave(spec)
        with tr.span("wave.residuals_ms"):
            res = profile_residuals(prof, spec, check_points(prof))
        tr.peak("wave.max_residual", float(np.max(res)))
        state["profile"] = prof
        return _speed_identity_ok(prof)

    @staticmethod
    def _rates(state, tr) -> bool:
        spec, prof = state["spec"], state["profile"]
        with tr.span("wave.divergence_rate_ms"):
            divergence_rate(prof, spec.g.alpha)
        alpha = spec.g.alpha
        x = spec.b - spec.b * _RATE_DISTANCES
        with tr.span("verify.fit_boundary_rate_ms"):
            gamma, _, _ = fit_boundary_rate(x, prof.w(x), spec.b, side=1,
                                            alpha=alpha)
        # Unbounded profiles (alpha <= 2) diverge like psi_gamma at the wall.
        return alpha > 2.0 or abs(gamma - (2.0 - alpha) / (alpha - 1.0)) < 1e-9

    @staticmethod
    def _translate(state, tr) -> bool:
        spec = state["spec"]
        with tr.span("wave.translate_verify_ms"):
            bf = translate_wave(state["profile"], spec)
            rep = verify_inequality(bf, spec, "sub",
                                    samples=_TRANSLATE_SAMPLES,
                                    seed=state["seed"])
        return bool(rep["pass"]) and rep["n_samples"] >= _TRANSLATE_SAMPLES

    def stats(self) -> Dict[str, float]:
        return {}

    def extras(self, tr) -> None:
        pass


# ---------------------------------------------------------------------------
# lab_session

def _lab_scenarios(seed: int) -> Dict[str, dict]:
    """One fixed scenario per CLI subcommand, two for classify; the seed
    only reaches the barrier sampler."""
    heat = {"preset": "p_heat", "params": {"p": 2.0, "beta1": 1.0,
                                           "eps": 0.1}}
    curv = {"preset": "curvature", "params": {"beta2": 1.0}}
    psi_b3 = {"class": "B3", "spec": {"kind": "psi", "gamma_plus": 0.5,
                                      "gamma_minus": 0.5, "d_plus": 1.0,
                                      "d_minus": 1.0}}
    return {
        "verify": {"name": "lab-verify"},
        "solve": dict(curv, name="lab-solve-b3", n=2000, cap=1000.0,
                      t_end=5e-5, u0=psi_b3),
        "capstudy": dict(curv, name="lab-capstudy", n=100,
                         caps=[10.0, 20.0, 40.0, 80.0], probe=[0.0, 0.1],
                         expect={"verdict": "saturating"}),
        "barrier": dict(heat, name="lab-barrier-vl", family="vL", L=100.0,
                        seed=seed),
        "wave": dict(curv, name="lab-wave", b=1.5707963267948966,
                     expect={"c": 1.0}),
        "classify": dict(heat, name="lab-classify",
                         expect={"verdict": "not_exists"}),
        # A second classify (B3 boundary certificate) makes seven tasks per
        # pass, so the median task is one subcommand, not a gap between two.
        "classify_b3": dict(curv, name="lab-classify-b3", u0=psi_b3,
                            expect={"verdict": "exists_unique"}),
    }


class LabSession:
    """In-process `singflow.cli.main` on the scenario files above.

    Every artifact's sha256 must equal the one from the first pass of the
    same run, so the session runs at least two passes.
    """

    name = "lab_session"
    min_passes = 2

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        scen_dir = workdir / "scenarios"
        scen_dir.mkdir(parents=True, exist_ok=True)
        self.reference: Dict[str, Dict[str, str]] = {}
        self.mismatch = 0
        self.artifact_bytes = 0
        self.runs = 0
        self.tasks = []
        scenarios = _lab_scenarios(int(rng.integers(2 ** 31)))
        for key in rng.permutation(list(scenarios)):
            key = str(key)
            sub = key.split("_")[0]
            doc = dict(scenarios[key], experiment=sub, output_dir="unused")
            path = scen_dir / f"{key}.json"
            path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            self.tasks.append(Task(f"cli_{key}",
                                   partial(self._run, key, sub, path)))

    def _run(self, key: str, sub: str, path: Path, tr) -> bool:
        self.runs += 1
        out = self.workdir / "out" / f"{key}-{self.runs}"
        with tr.span(f"cli.run_ms.{sub}"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([sub, "--scenario", str(path),
                                 "--out", str(out)])
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())}
        ref = self.reference.get(key)
        if ref is None:
            self.reference[key] = digests
            self.artifact_bytes += sum(p.stat().st_size
                                       for p in out.iterdir())
            bad = 0
        else:
            bad = sum(digests.get(name) != sha for name, sha in ref.items())
            bad += len(set(digests) - set(ref))
        self.mismatch += bad
        shutil.rmtree(out)
        return code == 0 and bad == 0

    def stats(self) -> Dict[str, float]:
        return {"cli.artifact_mismatch": float(self.mismatch),
                "cli.artifact_bytes": float(self.artifact_bytes)}

    def extras(self, tr) -> None:
        """Every suite check, timed from outside."""
        for name, fn in suite.CHECKS:
            with tr.span(f"suite.check_ms.{name}"):
                try:
                    passed, _ = fn()
                except Exception:   # a raising check counts as failed
                    passed = False
            tr.add("suite.failed", float(not passed))


WORKLOADS = {cls.name: cls for cls in (CapLadder, Certify, WaveProfiles,
                                       LabSession)}
