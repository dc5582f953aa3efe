"""Command line front end: scenario files, experiment dispatch, reports.

Subcommands mirror the experiment vocabulary: ``classify``, ``wave``,
``barrier``, ``solve``, ``capstudy`` and ``verify``.  Each accepts either
``--scenario <file>`` (a JSON document) or inline flags; results land in an
output directory as CSV curves (RFC 4180, header row, '.' decimal), a JSON
report and a reproducibility manifest.  Exit status is 0 on pass, 2 when a
verification step or a declared expectation fails, and 1 on any error;
scenario schema violations are reported with file and line.

Reruns of the same scenario file write bit-identical artifacts: seeds are
fixed, reductions are deterministic, and no timestamps or timings are
recorded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import platform
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from . import __version__
from .barriers import (BarrierFunction, h_tail, sub_uk, sub_vL, super_family,
                       verify_inequality)
from .errors import ScenarioError, SingflowError
from .model import (ProblemSpec, initial_b1, initial_b2, initial_b3,
                    make_problem, preset_curvature, preset_p_heat, psi,
                    signed_power)
from .regime import classify
from .solver import cap_study, solve
from .suite import run_suite
from .wave import (check_points, compute_wave, divergence_rate,
                   profile_residuals)

log = logging.getLogger(__name__)

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2

EXPERIMENTS = ("classify", "wave", "barrier", "solve", "capstudy", "verify")
PRESETS = ("p_heat", "curvature")
PRESET_PARAMS = {"p_heat": ("p", "beta1", "eps"), "curvature": ("beta2",)}
OPTIONAL_PARAMS = ("f_beta",)
U0_KINDS = ("constant", "poly", "psi", "wave")
FAMILIES = ("uk", "vL", "super", "h")

DEFAULT_B = 1.0
DEFAULT_N_GRID = 512
DEFAULT_SAMPLES = 20000
PROFILE_POINTS = 401
PROFILE_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------


def _key_line(raw: str, key: str) -> int:
    """Line number of the first occurrence of a JSON key, 1 if absent."""
    pattern = re.compile(r'"%s"\s*:' % re.escape(key))
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if pattern.search(line):
            return lineno
    return 1


def _schema_error(path: str, raw: str, key: str, msg: str) -> ScenarioError:
    return ScenarioError(f"{path}:{_key_line(raw, key)}: {msg}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(doc, key, path, raw, positive=False):
    value = doc[key]
    if not _is_number(value):
        raise _schema_error(path, raw, key, f"'{key}' must be a number")
    if positive and value <= 0:
        raise _schema_error(path, raw, key, f"'{key}' must be positive")
    return float(value)


def _require(doc, key, path, raw):
    if key not in doc:
        raise _schema_error(path, raw, key,
                            f"missing required field '{key}'")
    return doc[key]


_COMMON_KEYS = ("name", "preset", "params", "experiment", "output_dir",
                "b", "u0", "seed", "expect")
_EXTRA_KEYS = {
    "classify": (),
    "wave": ("n_grid", "w0"),
    "barrier": ("family", "k", "L", "L0", "nu", "gamma_plus", "gamma_minus",
                "d_plus", "d_minus", "b0", "samples", "side", "verify",
                "t_window"),
    "solve": ("n", "cap", "cap_minus", "t_end", "snapshot_times"),
    "capstudy": ("n", "caps", "t_end", "probe", "probes"),
    "verify": (),
}


def _validate_u0(doc, path, raw) -> Dict:
    u0 = doc.get("u0")
    if u0 is None:
        return {"class": "B1", "spec": {"kind": "constant", "value": 0.0}}
    if not isinstance(u0, dict):
        raise _schema_error(path, raw, "u0", "'u0' must be an object")
    klass = u0.get("class")
    if klass not in ("B1", "B2", "B3"):
        raise _schema_error(path, raw, "class",
                            "u0.class must be one of B1, B2, B3")
    spec = u0.get("spec")
    if not isinstance(spec, dict) or spec.get("kind") not in U0_KINDS:
        raise _schema_error(
            path, raw, "spec",
            f"u0.spec must be an object with kind in {U0_KINDS}")
    kind = spec["kind"]
    if kind == "constant":
        if not _is_number(spec.get("value")):
            raise _schema_error(path, raw, "value",
                                "constant datum needs a numeric 'value'")
        if klass != "B1":
            raise _schema_error(path, raw, "class",
                                "a constant datum is bounded; use class B1")
        out = {"kind": "constant", "value": float(spec["value"])}
    elif kind == "poly":
        coeffs = spec.get("coeffs")
        if (not isinstance(coeffs, list) or not coeffs
                or not all(_is_number(c) for c in coeffs)):
            raise _schema_error(path, raw, "coeffs",
                                "poly datum needs a numeric 'coeffs' list")
        if klass != "B1":
            raise _schema_error(path, raw, "class",
                                "a polynomial datum is bounded; use class B1")
        out = {"kind": "poly", "coeffs": [float(c) for c in coeffs]}
    elif kind == "psi":
        out = {"kind": "psi"}
        for key in ("gamma_plus", "gamma_minus", "d_plus", "d_minus"):
            if not _is_number(spec.get(key)):
                raise _schema_error(path, raw, "spec",
                                    f"psi datum needs numeric '{key}'")
            out[key] = float(spec[key])
        out["offset"] = (float(spec["offset"])
                         if _is_number(spec.get("offset")) else 0.0)
        if klass == "B1":
            raise _schema_error(path, raw, "class",
                                "a psi datum diverges; use class B2 or B3")
        if klass == "B2" and out["gamma_plus"] != out["gamma_minus"]:
            raise _schema_error(
                path, raw, "gamma_minus",
                "class B2 needs one shared rate; set gamma_plus = "
                "gamma_minus or use class B3")
    else:
        if klass != "B1":
            raise _schema_error(path, raw, "class",
                                "a clamped wave datum is bounded; "
                                "use class B1")
        if not _is_number(spec.get("clamp")):
            raise _schema_error(path, raw, "clamp",
                                "wave datum needs a numeric 'clamp' level")
        out = {"kind": "wave", "clamp": float(spec["clamp"])}
    return {"class": klass, "spec": out}


def _validate_params(doc, preset, path, raw) -> Dict[str, float]:
    params = _require(doc, "params", path, raw)
    if not isinstance(params, dict):
        raise _schema_error(path, raw, "params", "'params' must be an object")
    known = PRESET_PARAMS[preset] + OPTIONAL_PARAMS
    for key, value in params.items():
        if key not in known:
            raise _schema_error(path, raw, key,
                                f"unknown parameter '{key}' for preset "
                                f"'{preset}' (known: {', '.join(known)})")
        if not _is_number(value):
            raise _schema_error(path, raw, key,
                                f"parameter '{key}' must be a number")
    missing = [k for k in PRESET_PARAMS[preset] if k not in params]
    if missing:
        raise _schema_error(path, raw, "params",
                            f"preset '{preset}' needs parameters "
                            f"{', '.join(missing)}")
    return {k: float(v) for k, v in params.items()}


def _validate_probes(doc, path, raw) -> List[Tuple[float, float]]:
    entries = doc.get("probes")
    if entries is None and "probe" in doc:
        entries = [doc["probe"]]
    if entries is None:
        raise _schema_error(path, raw, "experiment",
                            "capstudy needs 'probe' or 'probes'")
    if not isinstance(entries, list) or not entries:
        raise _schema_error(path, raw, "probes",
                            "'probes' must be a non-empty list")
    probes: List[Tuple[float, float]] = []
    for entry in entries:
        if isinstance(entry, list) and len(entry) == 2 \
                and all(_is_number(v) for v in entry):
            probes.append((float(entry[0]), float(entry[1])))
        elif _is_number(entry):
            # Bare positions share the scenario's t_end as probe time.
            if not _is_number(doc.get("t_end")):
                raise _schema_error(
                    path, raw, "probes",
                    "bare probe positions need a numeric 't_end'")
            probes.append((float(entry), float(doc["t_end"])))
        else:
            raise _schema_error(path, raw, "probes",
                                "each probe must be [x, t] or a number")
    return probes


def validate_scenario(doc, raw: str = "", path: str = "<inline>") -> Dict:
    """Check a scenario document and return it normalized with defaults.

    Raises
    ------
    ScenarioError
        On any schema violation, with a file:line anchor in the message.
    """
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}:1: scenario must be a JSON object")

    experiment = _require(doc, "experiment", path, raw)
    if experiment not in EXPERIMENTS:
        raise _schema_error(path, raw, "experiment",
                            f"unknown experiment '{experiment}' "
                            f"(one of {', '.join(EXPERIMENTS)})")
    allowed = set(_COMMON_KEYS) | set(_EXTRA_KEYS[experiment])
    for key in doc:
        if key not in allowed:
            raise _schema_error(path, raw, key,
                                f"unknown field '{key}' for experiment "
                                f"'{experiment}'")

    name = _require(doc, "name", path, raw)
    if not isinstance(name, str) or not name:
        raise _schema_error(path, raw, "name",
                            "'name' must be a non-empty string")
    output_dir = _require(doc, "output_dir", path, raw)
    if not isinstance(output_dir, str) or not output_dir:
        raise _schema_error(path, raw, "output_dir",
                            "'output_dir' must be a non-empty string")

    scn: Dict = {"name": name, "experiment": experiment,
                 "output_dir": output_dir}
    scn["seed"] = 0
    if "seed" in doc:
        if not isinstance(doc["seed"], int) or isinstance(doc["seed"], bool):
            raise _schema_error(path, raw, "seed", "'seed' must be an integer")
        scn["seed"] = doc["seed"]
    expect = doc.get("expect", {})
    if not isinstance(expect, dict):
        raise _schema_error(path, raw, "expect", "'expect' must be an object")
    scn["expect"] = expect

    if experiment != "verify":
        preset = _require(doc, "preset", path, raw)
        if preset not in PRESETS:
            raise _schema_error(path, raw, "preset",
                                f"unknown preset '{preset}' "
                                f"(one of {', '.join(PRESETS)})")
        scn["preset"] = preset
        scn["params"] = _validate_params(doc, preset, path, raw)
        scn["b"] = (_number(doc, "b", path, raw, positive=True)
                    if "b" in doc else DEFAULT_B)
        scn["u0"] = _validate_u0(doc, path, raw)

    if experiment == "wave":
        scn["n_grid"] = DEFAULT_N_GRID
        if "n_grid" in doc:
            if not isinstance(doc["n_grid"], int) or doc["n_grid"] < 8:
                raise _schema_error(path, raw, "n_grid",
                                    "'n_grid' must be an integer >= 8")
            scn["n_grid"] = doc["n_grid"]
        scn["w0"] = _number(doc, "w0", path, raw) if "w0" in doc else 0.0
    elif experiment == "barrier":
        family = _require(doc, "family", path, raw)
        if family not in FAMILIES:
            raise _schema_error(path, raw, "family",
                                f"unknown family '{family}' "
                                f"(one of {', '.join(FAMILIES)})")
        scn["family"] = family
        needed = {"uk": ("k",), "vL": ("L",), "super": ("L0", "nu"),
                  "h": ("gamma_plus", "gamma_minus", "d_plus", "d_minus",
                        "b0")}[family]
        for key in needed:
            if key not in doc:
                raise _schema_error(path, raw, "family",
                                    f"family '{family}' needs '{key}'")
            scn[key] = _number(doc, key, path, raw)
        scn["samples"] = DEFAULT_SAMPLES
        if "samples" in doc:
            if not isinstance(doc["samples"], int) or doc["samples"] < 1000:
                raise _schema_error(path, raw, "samples",
                                    "'samples' must be an integer >= 1000")
            scn["samples"] = doc["samples"]
        scn["verify"] = doc.get("verify", True)
        if not isinstance(scn["verify"], bool):
            raise _schema_error(path, raw, "verify",
                                "'verify' must be a boolean")
        scn["side"] = doc.get("side")
        if scn["side"] is not None and not isinstance(scn["side"], str):
            raise _schema_error(path, raw, "side", "'side' must be a string")
        scn["t_window"] = None
        if "t_window" in doc:
            win = doc["t_window"]
            if (not isinstance(win, list) or len(win) != 2
                    or not all(_is_number(v) for v in win)):
                raise _schema_error(path, raw, "t_window",
                                    "'t_window' must be [t_lo, t_hi]")
            scn["t_window"] = [float(win[0]), float(win[1])]
    elif experiment == "solve":
        if not isinstance(doc.get("n"), int) or doc["n"] < 3:
            raise _schema_error(path, raw, "n",
                                "'n' must be an integer >= 3")
        scn["n"] = doc["n"]
        scn["cap"] = _number(doc, "cap", path, raw)
        scn["t_end"] = _number(doc, "t_end", path, raw, positive=True)
        scn["cap_minus"] = (_number(doc, "cap_minus", path, raw)
                            if "cap_minus" in doc else None)
        times = doc.get("snapshot_times", [])
        if not isinstance(times, list) or not all(_is_number(t)
                                                  for t in times):
            raise _schema_error(path, raw, "snapshot_times",
                                "'snapshot_times' must be a list of numbers")
        scn["snapshot_times"] = [float(t) for t in times]
    elif experiment == "capstudy":
        if not isinstance(doc.get("n"), int) or doc["n"] < 3:
            raise _schema_error(path, raw, "n",
                                "'n' must be an integer >= 3")
        scn["n"] = doc["n"]
        caps = doc.get("caps")
        if (not isinstance(caps, list) or len(caps) < 2
                or not all(_is_number(c) for c in caps)):
            raise _schema_error(path, raw, "caps",
                                "'caps' must be a list of at least 2 numbers")
        scn["caps"] = [float(c) for c in caps]
        scn["probes"] = _validate_probes(doc, path, raw)
    return scn


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


def _build_fg(scn):
    params = scn["params"]
    if scn["preset"] == "p_heat":
        f, g = preset_p_heat(params["p"], params["beta1"], params["eps"])
    else:
        f, g = preset_curvature(params["beta2"])
    if "f_beta" in params:
        f = signed_power(params["f_beta"])
    return f, g


def _build_problem(scn) -> ProblemSpec:
    """Assemble the ProblemSpec named by a validated scenario."""
    f, g = _build_fg(scn)
    b = scn["b"]
    klass = scn["u0"]["class"]
    spec_doc = scn["u0"]["spec"]
    kind = spec_doc["kind"]

    if kind == "constant":
        value = spec_doc["value"]

        def values(x, _c=value):
            return np.full_like(np.asarray(x, dtype=float), _c)
    elif kind == "poly":
        poly = np.polynomial.Polynomial(spec_doc["coeffs"])

        def values(x, _p=poly):
            return _p(np.asarray(x, dtype=float))
    elif kind == "psi":
        gp, gm = spec_doc["gamma_plus"], spec_doc["gamma_minus"]
        dp, dm = spec_doc["d_plus"], spec_doc["d_minus"]
        offset = spec_doc["offset"]

        def values(x):
            xs = np.asarray(x, dtype=float)
            return dp * psi(gp, b - xs) + dm * psi(gm, b + xs) + offset
    else:
        clamp = spec_doc["clamp"]
        flat = initial_b1(
            lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        profile = compute_wave(make_problem(b, f, g, flat))

        def values(x, _w=profile.w, _c=clamp):
            return np.minimum(np.asarray(_w(np.asarray(x, dtype=float)),
                                         dtype=float), _c)

    if klass == "B1":
        u0 = initial_b1(values)
    elif klass == "B2":
        u0 = initial_b2(values, spec_doc["gamma_plus"])
    else:
        gp, gm = spec_doc["gamma_plus"], spec_doc["gamma_minus"]
        dp, dm = spec_doc["d_plus"], spec_doc["d_minus"]
        offset = spec_doc["offset"]
        # The far wall's tail is finite here, so it joins the offset in the
        # remainder limit.
        u0 = initial_b3(values, gp, gm, dp, dm,
                        chat_plus=offset + dm * psi(gm, 2.0 * b),
                        chat_minus=offset + dp * psi(gp, 2.0 * b))
    return make_problem(b, f, g, u0)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _jsonable(obj):
    """Recursively convert to standard JSON types; non-finite floats become
    their repr strings so the documents stay portable."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else repr(value)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def _write_json(path: Path, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _param_scalars(params) -> Dict:
    if params is None:
        return {}
    if dataclasses.is_dataclass(params):
        items = [(field.name, getattr(params, field.name))
                 for field in dataclasses.fields(params)]
    elif isinstance(params, dict):
        items = list(params.items())
    else:
        return {}
    return {k: v for k, v in items
            if isinstance(v, (int, float, str)) and not callable(v)}


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _run_classify(scn, out: Path):
    spec = _build_problem(scn)
    verdict = classify(spec)
    report = {
        "experiment": "classify",
        "name": scn["name"],
        "verdict": verdict.verdict,
        "theorem": verdict.theorem,
        "notes": verdict.notes,
        "alpha": spec.g.alpha,
        "beta": spec.f.beta,
        "u0_class": spec.u0.klass,
    }
    passed = True
    expected = scn["expect"].get("verdict")
    if expected is not None:
        report["expected_verdict"] = expected
        passed = verdict.verdict == expected
    _write_csv(out / "classify.csv",
               ["alpha", "beta", "u0_class", "verdict"],
               [[spec.g.alpha, spec.f.beta, spec.u0.klass, verdict.verdict]])
    return report, passed, ["classify.csv"]


def _run_wave(scn, out: Path):
    spec = _build_problem(scn)
    profile = compute_wave(spec, n_grid=scn["n_grid"], w0=scn["w0"])
    xs = check_points(profile)
    residuals = profile_residuals(profile, spec, xs)
    _write_csv(out / "wave_profile.csv", ["x", "W", "Wx", "residual"],
               zip(xs, profile.w(xs), profile.wx(xs), residuals))

    alpha = spec.g.alpha
    d_plus = d_minus = gamma = None
    if alpha <= 2.0:
        d_plus, d_minus = divergence_rate(profile, alpha)
        gamma = max((2.0 - alpha) / (alpha - 1.0), 0.0)
    report = {
        "experiment": "wave",
        "name": scn["name"],
        "c": profile.c,
        "f_inv_c": profile.f_inv_c,
        "D_plus": d_plus,
        "D_minus": d_minus,
        "gamma": gamma,
        "g_total": profile.g_total,
        "b": profile.b,
        "n_grid": scn["n_grid"],
        "max_residual": float(np.max(residuals)),
    }
    passed = True
    expect = scn["expect"]
    if "c" in expect:
        tol = float(expect.get("c_tol", 1e-8))
        report["expected_c"] = expect["c"]
        passed = passed and abs(profile.c - float(expect["c"])) <= tol
    if "max_residual" in expect:
        passed = passed and report["max_residual"] <= float(
            expect["max_residual"])
    return report, passed, ["wave_profile.csv"]


def _build_barrier(scn, spec: ProblemSpec) -> Tuple[BarrierFunction, str]:
    family = scn["family"]
    if family == "uk":
        return sub_uk(spec, scn["k"]), "sub"
    if family == "vL":
        return sub_vL(spec, scn["L"]), "sub"
    if family == "super":
        return super_family(spec, None, scn["L0"], scn["nu"]), "super"
    return h_tail(spec.b, scn["gamma_plus"], scn["gamma_minus"],
                  scn["d_plus"], scn["d_minus"], scn["b0"]), "sub"


def _run_barrier(scn, out: Path):
    spec = _build_problem(scn)
    bf, default_side = _build_barrier(scn, spec)
    side = scn["side"] or default_side

    # Slice curves at a few deterministic times inside the horizon.
    horizon = bf.valid_until
    t_hi = min(horizon * (1.0 - 1e-3), 1.0) if math.isfinite(horizon) else 1.0
    times = sorted({0.0, 0.5 * t_hi, t_hi})
    x_lo = max(-spec.b, bf.domain[0]) + PROFILE_MARGIN * spec.b
    x_hi = min(spec.b, bf.domain[1]) - PROFILE_MARGIN * spec.b
    grid = np.linspace(x_lo, x_hi, PROFILE_POINTS)
    rows = []
    with np.errstate(over="ignore"):
        for t in times:
            vals = np.asarray(bf.eval(grid, t), dtype=float)
            slopes = np.asarray(bf.dx(grid, t), dtype=float)
            rows.extend(zip([t] * grid.size, grid, vals, slopes))
    _write_csv(out / "barrier_profile.csv", ["t", "x", "value", "slope"],
               rows)

    report = {
        "experiment": "barrier",
        "name": scn["name"],
        "family": bf.family,
        "params": _param_scalars(bf.params),
        "valid_until": bf.valid_until,
        "side": side,
    }
    passed = True
    if scn["verify"]:
        window = tuple(scn["t_window"]) if scn["t_window"] else None
        check = verify_inequality(bf, spec, side, samples=scn["samples"],
                                  t_window=window, seed=scn["seed"])
        report.update({k: v for k, v in check.items() if k != "family"})
        passed = bool(check["pass"])
    return report, passed, ["barrier_profile.csv"]


def _run_solve(scn, out: Path):
    spec = _build_problem(scn)
    result = solve(spec, scn["n"], scn["cap"], scn["t_end"],
                   cap_minus=scn["cap_minus"],
                   snapshot_times=scn["snapshot_times"] or None)
    files = []
    nodes = result.final.nodes
    snapshots = []
    for index, (t, values) in enumerate(result.snapshots):
        fname = f"snapshot_{index:02d}.csv"
        _write_csv(out / fname, ["x", "u"], zip(nodes, values))
        files.append(fname)
        snapshots.append({"t": t, "file": fname})
    _write_csv(out / "final_state.csv", ["x", "u"],
               zip(nodes, result.final.values))
    files.append("final_state.csv")

    report = {
        "experiment": "solve",
        "name": scn["name"],
        "n": scn["n"],
        "cap": scn["cap"],
        "cap_minus": scn["cap_minus"],
        "t_end": scn["t_end"],
        "final_time": result.final.time,
        "diverged": result.diverged,
        "blowup_time": result.blowup_time,
        "comparison_violations": result.comparison_violations,
        "dt_history": result.dt_history,
        "rate_fit": result.rate_fit,
        "snapshots": snapshots,
    }
    passed = True
    if "diverged" in scn["expect"]:
        passed = bool(scn["expect"]["diverged"]) == result.diverged
    return report, passed, files


def _run_capstudy(scn, out: Path):
    spec = _build_problem(scn)
    studies = []
    rows = []
    for x, t in scn["probes"]:
        study = cap_study(spec, scn["n"], scn["caps"], (x, t))
        studies.append({"probe": [x, t], "verdict": study.verdict,
                        "rows": [dict(r) for r in study.rows]})
        for row in study.rows:
            rows.append([x, t, row["cap"], row["value"], row["diff"],
                         int(row["monotone"]), int(row["diverged"])])
    _write_csv(out / "capstudy.csv",
               ["probe_x", "probe_t", "cap", "value", "diff", "monotone",
                "diverged"], rows)
    report = {
        "experiment": "capstudy",
        "name": scn["name"],
        "n": scn["n"],
        "caps": scn["caps"],
        "studies": studies,
    }
    passed = True
    expected = scn["expect"].get("verdict")
    if expected is not None:
        report["expected_verdict"] = expected
        passed = all(s["verdict"] == expected for s in studies)
    return report, passed, ["capstudy.csv"]


def _run_verify(scn, out: Path):
    summary = run_suite()
    checks = [{"name": c["name"], "pass": c["pass"], "detail": c["detail"]}
              for c in summary["checks"]]
    report = {
        "experiment": "verify",
        "name": scn["name"],
        "checks": checks,
        "n_checks": summary["n_checks"],
        "n_failed": summary["n_failed"],
    }
    _write_csv(out / "suite_checks.csv", ["name", "pass", "detail"],
               [[c["name"], int(c["pass"]), c["detail"]] for c in checks])
    return report, bool(summary["pass"]), ["suite_checks.csv"]


_RUNNERS = {
    "classify": _run_classify,
    "wave": _run_wave,
    "barrier": _run_barrier,
    "solve": _run_solve,
    "capstudy": _run_capstudy,
    "verify": _run_verify,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _manifest(scn: Dict, report: Dict, files: List[str]) -> Dict:
    return {
        "scenario": scn,
        "package": {"name": "singflow", "version": __version__},
        "dependencies": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "seed": scn.get("seed", 0),
        "constant_estimates": report.get("constant_estimates", {}),
        "outputs": sorted(files),
    }


def _execute(scn: Dict, out_override: Optional[str] = None) -> int:
    out = Path(out_override) if out_override else Path(scn["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    report, passed, files = _RUNNERS[scn["experiment"]](scn, out)
    report["pass"] = passed
    _write_json(out / "report.json", report)
    _write_json(out / "manifest.json",
                _manifest(scn, report, files + ["report.json",
                                                "manifest.json"]))
    print(f"{scn['experiment']} '{scn['name']}': "
          f"{'pass' if passed else 'FAIL'} -> {out}")
    return EXIT_PASS if passed else EXIT_FAIL


def run(scenario_file, out_dir: Optional[str] = None) -> int:
    """Execute one scenario file; returns the process exit status.

    0 on pass, 2 when verification or a declared expectation fails, 1 on
    errors (unreadable file, malformed JSON, schema violations, parameter
    or regime errors raised while running).
    """
    path = str(scenario_file)
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"{path}: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}",
              file=sys.stderr)
        return EXIT_ERROR
    try:
        scn = validate_scenario(doc, raw, path)
        return _execute(scn, out_dir)
    except SingflowError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, experiment: str) -> None:
    parser.add_argument("--scenario", metavar="FILE",
                        help="JSON scenario document")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the scenario)")
    parser.add_argument("--name", help="label for reports (inline mode)")
    parser.add_argument("--seed", type=int, help="sampling seed")
    if experiment != "verify":
        parser.add_argument("--preset", choices=PRESETS)
        parser.add_argument("--param", action="append", default=[],
                            metavar="KEY=VALUE",
                            help="preset parameter, repeatable")
        parser.add_argument("--b", type=float, help="domain half-width")
        parser.add_argument("--u0", metavar="JSON",
                            help="initial datum document, e.g. "
                                 '\'{"class": "B1", "spec": {"kind": '
                                 '"constant", "value": 0}}\'')


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singflow",
        description="Numerical laboratory for a singular quasilinear "
                    "diffusion problem with infinite boundary data.")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (repeatable)")
    sub = parser.add_subparsers(dest="experiment", required=True)

    p = sub.add_parser("classify", help="regime classification")
    _add_common(p, "classify")

    p = sub.add_parser("wave", help="traveling-wave profile by quadrature")
    _add_common(p, "wave")
    p.add_argument("--n-grid", type=int, dest="n_grid")
    p.add_argument("--w0", type=float)

    p = sub.add_parser("barrier", help="explicit barrier families")
    _add_common(p, "barrier")
    p.add_argument("--family", choices=FAMILIES)
    for flag in ("--k", "--L", "--L0", "--nu", "--gamma-plus",
                 "--gamma-minus", "--d-plus", "--d-minus", "--b0"):
        p.add_argument(flag, type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--side", help="sub | super | sub_strict(d) | "
                                  "super_strict(d)")
    p.add_argument("--no-verify", action="store_true",
                   help="emit slice curves without the inequality check")

    p = sub.add_parser("solve", help="monotone explicit finite differences")
    _add_common(p, "solve")
    p.add_argument("--n", type=int)
    p.add_argument("--cap", type=float)
    p.add_argument("--cap-minus", type=float, dest="cap_minus")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--snapshots", metavar="T1,T2,...",
                   help="comma separated snapshot times")

    p = sub.add_parser("capstudy", help="existence probe along a cap ladder")
    _add_common(p, "capstudy")
    p.add_argument("--n", type=int)
    p.add_argument("--caps", metavar="C1,C2,...",
                   help="comma separated increasing caps")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--probe", action="append", metavar="X,T",
                   help="probe point, repeatable")

    p = sub.add_parser("verify", help="run the invariant suite")
    _add_common(p, "verify")
    return parser


def _parse_kv(pairs: List[str]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ScenarioError(
                f"<args>:1: --param needs KEY=VALUE, got '{pair}'")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise ScenarioError(
                f"<args>:1: --param {key}: '{value}' is not a number")
    return out


def _parse_floats(text: str, flag: str) -> List[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ScenarioError(f"<args>:1: {flag}: '{text}' is not a "
                            "comma separated number list")


def _inline_scenario(args) -> Dict:
    experiment = args.experiment
    doc: Dict = {
        "name": args.name or experiment,
        "experiment": experiment,
        "output_dir": args.out or "singflow_out",
    }
    if args.seed is not None:
        doc["seed"] = args.seed
    if experiment != "verify":
        if args.preset is None:
            raise ScenarioError("<args>:1: inline mode needs --preset "
                                "(or use --scenario)")
        doc["preset"] = args.preset
        doc["params"] = _parse_kv(args.param)
        if args.b is not None:
            doc["b"] = args.b
        if args.u0 is not None:
            try:
                doc["u0"] = json.loads(args.u0)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"<args>:1: --u0: malformed JSON: "
                                    f"{exc.msg}")
    if experiment == "wave":
        if args.n_grid is not None:
            doc["n_grid"] = args.n_grid
        if args.w0 is not None:
            doc["w0"] = args.w0
    elif experiment == "barrier":
        if args.family is None:
            raise ScenarioError("<args>:1: inline barrier mode needs "
                                "--family")
        doc["family"] = args.family
        for key in ("k", "L", "L0", "nu", "gamma_plus", "gamma_minus",
                    "d_plus", "d_minus", "b0"):
            value = getattr(args, key)
            if value is not None:
                doc[key] = value
        if args.samples is not None:
            doc["samples"] = args.samples
        if args.side is not None:
            doc["side"] = args.side
        if args.no_verify:
            doc["verify"] = False
    elif experiment == "solve":
        for key in ("n", "cap", "cap_minus", "t_end"):
            value = getattr(args, key)
            if value is not None:
                doc[key] = value
        if args.snapshots:
            doc["snapshot_times"] = _parse_floats(args.snapshots,
                                                  "--snapshots")
    elif experiment == "capstudy":
        if args.n is not None:
            doc["n"] = args.n
        if args.caps:
            doc["caps"] = _parse_floats(args.caps, "--caps")
        if args.t_end is not None:
            doc["t_end"] = args.t_end
        if args.probe:
            doc["probes"] = [_parse_floats(pair, "--probe")
                             for pair in args.probe]
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=max(logging.DEBUG,
                  logging.WARNING - 10 * args.verbose),
        format="%(levelname)s %(name)s: %(message)s")

    if args.scenario is not None:
        path = args.scenario
        try:
            raw = Path(path).read_text(encoding="utf-8")
            doc = json.loads(raw)
        except OSError as exc:
            print(f"{path}: cannot read scenario: {exc}", file=sys.stderr)
            return EXIT_ERROR
        except json.JSONDecodeError as exc:
            print(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}",
                  file=sys.stderr)
            return EXIT_ERROR
        try:
            scn = validate_scenario(doc, raw, path)
            if scn["experiment"] != args.experiment:
                raise _schema_error(
                    path, raw, "experiment",
                    f"scenario runs '{scn['experiment']}' but the "
                    f"'{args.experiment}' subcommand was invoked")
            return _execute(scn, args.out)
        except SingflowError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_ERROR

    try:
        scn = validate_scenario(_inline_scenario(args))
        return _execute(scn, args.out)
    except SingflowError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
