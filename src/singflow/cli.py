"""Command line front end: scenario files, experiment dispatch, reports.

Subcommands mirror the experiment vocabulary: ``classify``, ``wave``,
``barrier``, ``solve``, ``capstudy`` and ``verify``.  Each accepts either
``--scenario <file>`` (a JSON document) or inline flags, never both; results
land in an output directory as CSV curves (RFC 4180, header row, '.'
decimal), a JSON report and a reproducibility manifest.  Exit status is 0 on
pass, 2 when a verification step or a declared expectation fails, and 1 on
any error; scenario schema violations are reported with file and line.

`SCHEMA` lists each experiment's fields as rows ``(key, kind, default,
flag)``.  The rows alone decide which keys a scenario may hold, how each
field is checked and normalized, which flags a subcommand has, and how the
inline document is built from those flags.

Reruns of the same scenario file write bit-identical artifacts: seeds are
fixed, reductions are deterministic, and no timestamps or timings are
recorded.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import logging
import math
import platform
import re
import sys
from pathlib import Path
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

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

PRESETS = ("p_heat", "curvature")
PRESET_PARAMS = {"p_heat": ("p", "beta1", "eps"), "curvature": ("beta2",)}
OPTIONAL_PARAMS = ("f_beta",)
U0_KINDS = ("constant", "poly", "psi", "wave")

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
    """A finite number; bools, nan, inf and ints past the float range fail
    (``json`` reads NaN and Infinity, ``float`` reads nan and inf)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _floats(values) -> List[float]:
    return [float(v) for v in values]


def _validate_u0(doc, key, path, raw) -> Dict:
    u0 = doc[key]
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
        if not coeffs or not _is_numbers(coeffs):
            raise _schema_error(path, raw, "coeffs",
                                "poly datum needs a numeric 'coeffs' list")
        if klass != "B1":
            raise _schema_error(path, raw, "class",
                                "a polynomial datum is bounded; use class B1")
        out = {"kind": "poly", "coeffs": _floats(coeffs)}
    elif kind == "psi":
        out = {"kind": "psi"}
        for name in ("gamma_plus", "gamma_minus", "d_plus", "d_minus"):
            if not _is_number(spec.get(name)):
                raise _schema_error(path, raw, "spec",
                                    f"psi datum needs numeric '{name}'")
            out[name] = float(spec[name])
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


def _validate_params(doc, key, path, raw) -> Dict[str, float]:
    params, preset = doc[key], doc["preset"]
    if not isinstance(params, dict):
        raise _schema_error(path, raw, "params", "'params' must be an object")
    known = PRESET_PARAMS[preset] + OPTIONAL_PARAMS
    for name, value in params.items():
        if name not in known:
            raise _schema_error(path, raw, name,
                                f"unknown parameter '{name}' for preset "
                                f"'{preset}' (known: {', '.join(known)})")
        if not _is_number(value):
            raise _schema_error(path, raw, name,
                                f"parameter '{name}' must be a finite number")
    missing = [k for k in PRESET_PARAMS[preset] if k not in params]
    if missing:
        raise _schema_error(path, raw, "params",
                            f"preset '{preset}' needs parameters "
                            f"{', '.join(missing)}")
    return {k: float(v) for k, v in params.items()}


def _validate_probes(doc, key, path, raw) -> List[Tuple[float, float]]:
    probe, entries = doc.get("probe"), doc.get("probes")
    if probe is not None and entries is not None:
        raise _schema_error(path, raw, "probe",
                            "give 'probe' or 'probes', not both")
    if probe is not None:
        entries = [probe]
    if entries is None:
        raise _schema_error(path, raw, "experiment",
                            "capstudy needs 'probe' or 'probes' "
                            "(flag --probe)")
    if not isinstance(entries, list) or not entries:
        raise _schema_error(path, raw, "probes",
                            "'probes' must be a non-empty list")
    probes: List[Tuple[float, float]] = []
    for entry in entries:
        if isinstance(entry, list) and len(entry) == 2 \
                and _is_numbers(entry):
            probes.append((float(entry[0]), float(entry[1])))
        elif _is_number(entry):
            # Bare positions share the scenario's t_end as probe time.
            if not _is_number(doc.get("t_end")):
                raise _schema_error(
                    path, raw, "probes",
                    "bare probe positions need a finite 't_end' "
                    "(flag --t-end)")
            probes.append((float(entry), float(doc["t_end"])))
        else:
            raise _schema_error(path, raw, "probes",
                                "each probe must be [x, t] or a number")
    return probes


def _parse_floats(flag: str, text: str) -> List[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ScenarioError(f"<args>:1: {flag}: '{text}' is not a "
                            "comma separated number list")


def _parse_probes(flag: str, texts: List[str]) -> List:
    """``X,T`` gives a probe pair, a lone ``X`` a bare position."""
    values = [_parse_floats(flag, text) for text in texts]
    return [v[0] if len(v) == 1 else v for v in values]


def _parse_kv(flag: str, pairs: List[str]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ScenarioError(
                f"<args>:1: {flag} needs KEY=VALUE, got '{pair}'")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise ScenarioError(
                f"<args>:1: {flag} {key}: '{value}' is not a number")
    return out


def _parse_json(flag: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"<args>:1: {flag}: malformed JSON: {exc.msg}")


class _Kind(NamedTuple):
    """How one scenario field is checked and how its flag is read."""

    check: Callable  # (doc, key, path, raw) -> normalized value
    what: str  # completes "'key' must be ..." and the flag's help
    arg: Dict  # argparse keywords of the field's flag
    from_flag: Optional[Callable] = None  # (flag, parsed) -> field value
    whole_doc: bool = False  # check runs even when the key is absent


def _simple(test, what, norm=None, arg=None, from_flag=None) -> _Kind:
    """A kind that tests the field's value alone."""
    def check(doc, key, path, raw):
        if not test(doc[key]):
            raise _schema_error(path, raw, key, f"'{key}' must be {what}")
        return norm(doc[key]) if norm else doc[key]
    return _Kind(check, what, arg or {}, from_flag)


def _integer(low: Optional[int] = None) -> _Kind:
    return _simple(
        lambda v: (isinstance(v, int) and not isinstance(v, bool)
                   and (low is None or v >= low)),
        "an integer" if low is None else f"an integer >= {low}",
        arg={"type": int})


def _choice(options: Tuple[str, ...]) -> _Kind:
    def check(doc, key, path, raw):
        if doc[key] not in options:
            raise _schema_error(path, raw, key,
                                f"unknown {key} '{doc[key]}' "
                                f"(one of {', '.join(options)})")
        return doc[key]
    return _Kind(check, "one of " + ", ".join(options), {"choices": options})


_TEXT = _simple(lambda v: isinstance(v, str) and v != "",
                "a non-empty string")
_NUMBER = _simple(_is_number, "a finite number", float, {"type": float})
_POSITIVE = _simple(lambda v: _is_number(v) and v > 0,
                    "a positive finite number", float, {"type": float})
_PROBES = _Kind(_validate_probes, "[x, t] as X,T, or a bare X probed at "
                "t_end; repeatable", {"action": "append", "metavar": "X[,T]"},
                _parse_probes, whole_doc=True)

# Markers for the default column.  A BY_FAMILY field is required when the
# barrier family lists it in FAMILY_KEYS and refused otherwise; an AUXILIARY
# field is read by another field's check and never stored in the normalized
# scenario.
REQUIRED = "required"
BY_FAMILY = "by family"
AUXILIARY = "auxiliary"

_DEFAULT_U0 = {"class": "B1", "spec": {"kind": "constant", "value": 0.0}}
_COMMON = (
    ("name", _TEXT, REQUIRED, "--name"),
    ("output_dir", _TEXT, REQUIRED, None),
    ("seed", _integer(), 0, "--seed"),
    ("expect", _simple(lambda v: isinstance(v, dict), "an object"), {}, None),
)
_PROBLEM = _COMMON + (
    ("preset", _choice(PRESETS), REQUIRED, "--preset"),
    ("params", _Kind(_validate_params, "a preset parameter; repeatable",
                     {"action": "append", "metavar": "KEY=VALUE"},
                     _parse_kv), REQUIRED, "--param"),
    ("b", _POSITIVE, DEFAULT_B, "--b"),
    ("u0", _Kind(_validate_u0, "an initial datum document",
                 {"metavar": "JSON"}, _parse_json), _DEFAULT_U0, "--u0"),
)
FAMILY_KEYS = {"uk": ("k",), "vL": ("L",), "super": ("L0", "nu"),
               "h": ("gamma_plus", "gamma_minus", "d_plus", "d_minus", "b0")}

# Each experiment's fields as rows (key, kind, default, flag).  The default
# is the value an absent field takes, or one of the markers above; a field
# whose flag is None is set in scenario files only.  A field given as null
# counts as absent.
SCHEMA = {
    "classify": _PROBLEM,
    "wave": _PROBLEM + (
        ("n_grid", _integer(64), DEFAULT_N_GRID, "--n-grid"),
        ("w0", _NUMBER, 0.0, "--w0"),
    ),
    "barrier": _PROBLEM + (
        ("family", _choice(tuple(FAMILY_KEYS)), REQUIRED, "--family"),
    ) + tuple((key, _NUMBER, BY_FAMILY, "--" + key.replace("_", "-"))
              for keys in FAMILY_KEYS.values() for key in keys) + (
        ("samples", _integer(1000), DEFAULT_SAMPLES, "--samples"),
        ("side", _simple(lambda v: isinstance(v, str),
                         "sub, super, sub_strict(d) or super_strict(d)"),
         None, "--side"),
        ("verify", _simple(lambda v: isinstance(v, bool), "a boolean",
                           arg={"action": "store_const", "const": False}),
         True, "--no-verify"),
        ("t_window", _simple(lambda v: _is_numbers(v) and len(v) == 2,
                             "[t_lo, t_hi]", _floats), None, None),
    ),
    "solve": _PROBLEM + (
        ("n", _integer(3), REQUIRED, "--n"),
        ("cap", _NUMBER, REQUIRED, "--cap"),
        ("cap_minus", _NUMBER, None, "--cap-minus"),
        ("t_end", _POSITIVE, REQUIRED, "--t-end"),
        ("snapshot_times", _simple(_is_numbers, "a list of numbers", _floats,
                                   {"metavar": "T1,T2,..."}, _parse_floats),
         [], "--snapshots"),
    ),
    "capstudy": _PROBLEM + (
        ("n", _integer(3), REQUIRED, "--n"),
        ("caps", _simple(lambda v: _is_numbers(v) and len(v) >= 2,
                         "a list of at least 2 numbers", _floats,
                         {"metavar": "C1,C2,..."}, _parse_floats),
         REQUIRED, "--caps"),
        ("t_end", _NUMBER, AUXILIARY, "--t-end"),
        ("probe", _PROBES, AUXILIARY, None),
        ("probes", _PROBES, REQUIRED, "--probe"),
    ),
    "verify": _COMMON,
}
EXPERIMENTS = tuple(SCHEMA)


def validate_scenario(doc, raw: str = "", path: str = "<inline>") -> Dict:
    """Check a scenario document against `SCHEMA` and return it normalized
    with defaults.

    Raises
    ------
    ScenarioError
        On any schema violation, with a file:line anchor in the message.
    """
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}:1: scenario must be a JSON object")
    experiment = doc.get("experiment")
    if experiment is None:
        raise _schema_error(path, raw, "experiment",
                            "missing required field 'experiment'")
    if experiment not in EXPERIMENTS:
        raise _schema_error(path, raw, "experiment",
                            f"unknown experiment '{experiment}' "
                            f"(one of {', '.join(EXPERIMENTS)})")
    rows = SCHEMA[experiment]
    allowed = {"experiment"} | {row[0] for row in rows}
    for key in doc:
        if key not in allowed:
            raise _schema_error(path, raw, key,
                                f"unknown field '{key}' for experiment "
                                f"'{experiment}'")

    scn: Dict = {"experiment": experiment}
    for key, kind, default, flag in rows:
        given = doc.get(key) is not None
        if default is BY_FAMILY:
            if key not in FAMILY_KEYS[scn["family"]]:
                if given:
                    raise _schema_error(path, raw, key,
                                        f"family '{scn['family']}' does "
                                        f"not take '{key}'")
                continue
            default = REQUIRED
        if default is AUXILIARY:
            continue
        if given or kind.whole_doc:
            scn[key] = kind.check(doc, key, path, raw)
        elif default is REQUIRED:
            hint = f" (flag {flag})" if flag else ""
            raise _schema_error(path, raw, key,
                                f"missing required field '{key}'{hint}")
        else:
            scn[key] = copy.deepcopy(default)
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


def _load(path: str, experiment: Optional[str] = None) -> Dict:
    """Read, parse and validate one scenario file.  With ``experiment``,
    the file must also run that subcommand."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}")
    scn = validate_scenario(doc, raw, path)
    if experiment is not None and scn["experiment"] != experiment:
        raise _schema_error(path, raw, "experiment",
                            f"scenario runs '{scn['experiment']}' but the "
                            f"'{experiment}' subcommand was invoked")
    return scn


def run(scenario_file, out_dir: Optional[str] = None) -> int:
    """Execute one scenario file; returns the process exit status.

    0 on pass, 2 when verification or a declared expectation fails, 1 on
    errors (unreadable file, malformed JSON, schema violations, parameter
    or regime errors raised while running).
    """
    try:
        return _execute(_load(str(scenario_file)), out_dir)
    except SingflowError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_SUBCOMMAND_HELP = {
    "classify": "regime classification",
    "wave": "traveling-wave profile by quadrature",
    "barrier": "explicit barrier families",
    "solve": "monotone explicit finite differences",
    "capstudy": "existence probe along a cap ladder",
    "verify": "run the invariant suite",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singflow",
        description="Numerical laboratory for a singular quasilinear "
                    "diffusion problem with infinite boundary data.")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (repeatable)")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, rows in SCHEMA.items():
        p = sub.add_parser(experiment, help=_SUBCOMMAND_HELP[experiment])
        p.add_argument("--scenario", metavar="FILE",
                       help="JSON scenario document (no field flags then)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides the scenario)")
        for key, kind, default, flag in rows:
            if flag:
                p.add_argument(flag, dest=key, **kind.arg,
                               help=_flag_help(key, kind, default))
    return parser


def _flag_help(key: str, kind: _Kind, default) -> str:
    if default is BY_FAMILY:
        family = next(f for f, keys in FAMILY_KEYS.items() if key in keys)
        return f"'{key}': {kind.what} (family {family})"
    if default is None or default is REQUIRED or default is AUXILIARY:
        return f"'{key}': {kind.what}"
    return f"'{key}': {kind.what} (default {default})"


def _inline_scenario(args) -> Dict:
    """The scenario document spelled out by the field flags in ``args``."""
    doc = {"name": args.experiment, "experiment": args.experiment,
           "output_dir": args.out or "singflow_out"}
    for key, kind, _, flag in SCHEMA[args.experiment]:
        value = getattr(args, key) if flag else None
        if value is not None:
            doc[key] = kind.from_flag(flag, value) if kind.from_flag else value
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=max(logging.DEBUG,
                  logging.WARNING - 10 * args.verbose),
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.scenario is None:
            scn = validate_scenario(_inline_scenario(args))
        else:
            flags = [flag for key, _, _, flag in SCHEMA[args.experiment]
                     if flag and getattr(args, key) is not None]
            if flags:
                raise ScenarioError(f"<args>:1: --scenario takes no field "
                                    f"flags; got {', '.join(flags)}")
            scn = _load(args.scenario, args.experiment)
        return _execute(scn, args.out)
    except SingflowError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
