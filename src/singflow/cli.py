"""Command line front end: scenario files, experiment dispatch, reports.

Subcommands mirror the experiment vocabulary: ``classify``, ``wave``,
``barrier``, ``solve``, ``capstudy`` and ``verify``.  Each accepts either
``--scenario <file>`` (a JSON document) or inline flags, never both; results
land in an output directory as CSV curves (RFC 4180, header row, '.'
decimal), a JSON report and a reproducibility manifest, all written once
the run has returned, so a run that raises writes nothing.  Exit status is
0 on pass, 2 when a verification step or a declared expectation fails, and
1 on any error; scenario schema violations, a barrier ``side`` that
`parse_side` refuses among them, are reported with file and line.
Every check raises the offending key with its message, and
`validate_scenario` alone finds the key's line: the first that holds it at
or below the line of the top-level field being checked, else the first
anywhere, else line 1.  An unknown key of a nested object (``u0``, its
``spec``, ``params``, ``expect``) is refused with the list of known keys.

`SCHEMA` lists each experiment's fields as rows ``(key, kind, default,
flag)``.  The rows alone decide which keys a scenario may hold, how each
field is checked and normalized, which flags a subcommand has, and how the
inline document is built from those flags.  Five more tables declare the
scenario vocabulary, one row per name, and validation, flag help and
problem assembly all read them: `PRESETS` (constructor and parameter names)
at the top of the module, `U0_KINDS` (allowed classes, fields and value
function of each datum kind), `FAMILIES` (keys, default side and
constructor of each barrier family) and `EXPECT` (the ``expect`` keys of
each experiment) just before `SCHEMA`, and `_RUNNERS` (runner and help
text of each experiment) after the runners.

Reruns of the same scenario file write bit-identical artifacts: seeds are
fixed, reductions are deterministic, and no timestamps or timings are
recorded.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
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

from . import __version__
from .barriers import (SIDE_FORMS, h_tail, parse_side, scalar_params, sub_uk,
                       sub_vL, super_family, verify_inequality)
from .errors import ParameterError, ScenarioError, SingflowError
from .model import (ProblemSpec, initial_b1, initial_b2, initial_b3,
                    make_problem, preset_curvature, preset_p_heat, psi,
                    signed_power)
from .regime import classify, uniqueness_threshold
from .solver import cap_studies, solve
from .suite import run_suite
from .wave import check_points, compute_wave, profile_residuals

log = logging.getLogger(__name__)

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2

# Each preset's constructor and its parameter names in argument order; the
# optional `f_beta` of any preset replaces f by `signed_power(f_beta)`.
PRESETS = {
    "p_heat": (preset_p_heat, ("p", "beta1", "eps")),
    "curvature": (preset_curvature, ("beta2",)),
}

DEFAULT_B = 1.0
DEFAULT_N_GRID = 512
DEFAULT_SAMPLES = 20000
PROFILE_POINTS = 401
PROFILE_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------


class _Violation(Exception):
    """A schema violation, raised by a check as (offending key, message);
    `validate_scenario` turns the key into file:line."""


def _key_line(raw: str, key: str, field: Optional[str] = None) -> int:
    """Line number of the first occurrence of a JSON key at or below the
    first line of key ``field``, else anywhere; 1 if absent."""
    pattern = re.compile(r'"%s"\s*:' % re.escape(key))
    found = [lineno for lineno, line in enumerate(raw.splitlines(), start=1)
             if pattern.search(line)]
    start = _key_line(raw, field) if field else 1
    return next((n for n in found if n >= start), found[0] if found else 1)


def _is_number(value) -> bool:
    """A finite number; bools, nan, inf and ints past the float range fail
    (``json`` reads NaN and Infinity, ``float`` reads nan and inf)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _floats(values) -> List[float]:
    return [float(v) for v in values]


def _check_rows(doc, key, rows, owner, needs="") -> Dict:
    """Check the object doc[key] against rows (name, kind, default): only
    the rows' names may appear, given values go through their kind's check
    and absent ones take the default (REQUIRED raises, None skips)."""
    obj = doc[key]
    if not isinstance(obj, dict):
        raise _Violation(key, f"'{key}' must be an object")
    known = [name for name, _, _ in rows]
    for name in obj:
        if name not in known:
            raise _Violation(name, f"unknown field '{name}' for {owner} "
                             f"(known: {', '.join(known) or 'none'})")
    out = {}
    for name, kind, default in rows:
        if obj.get(name) is not None:
            out[name] = kind.check(obj, name)
        elif default is REQUIRED:
            raise _Violation(key, f"{needs} needs '{name}', {kind.what}")
        elif default is not None:
            out[name] = default
    return out


def _validate_u0(doc, key) -> Dict:
    u0 = _check_rows(doc, key, (("class", _ANY, None), ("spec", _ANY, None)),
                     "u0")
    klass = u0.get("class")
    if klass not in ("B1", "B2", "B3"):
        raise _Violation("class", "u0.class must be one of B1, B2, B3")
    spec = u0.get("spec")
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in U0_KINDS:
        raise _Violation(
            "spec",
            f"u0.spec must be an object with kind in {', '.join(U0_KINDS)}")
    datum = U0_KINDS[kind]
    out = _check_rows(u0, "spec", (("kind", _TEXT, REQUIRED),) + datum.fields,
                      f"datum kind '{kind}'", f"{kind} datum")
    if klass not in datum.classes:
        raise _Violation("class", f"{datum.nature}; use class "
                         f"{' or '.join(datum.classes)}")
    if klass == "B2" and out["gamma_plus"] != out["gamma_minus"]:
        raise _Violation(
            "gamma_minus",
            "class B2 needs one shared rate; set gamma_plus = "
            "gamma_minus or use class B3")
    return {"class": klass, "spec": out}


def _validate_expect(doc, key) -> Dict:
    experiment = doc["experiment"]
    return _check_rows(doc, key, EXPECT[experiment],
                       f"expect of experiment '{experiment}'")


def _validate_params(doc, key) -> Dict[str, float]:
    owner = f"preset '{doc['preset']}'"
    rows = [(name, _NUMBER, REQUIRED) for name in PRESETS[doc["preset"]][1]]
    rows.append(("f_beta", _NUMBER, None))
    return _check_rows(doc, key, rows, owner, owner)


def _validate_probes(doc, key) -> List[Tuple[float, float]]:
    probe, entries = doc.get("probe"), doc.get("probes")
    if probe is not None and entries is not None:
        raise _Violation("probe", "give 'probe' or 'probes', not both")
    if probe is not None:
        entries = [probe]
    if entries is None:
        raise _Violation("experiment",
                         "capstudy needs 'probe' or 'probes' (flag --probe)")
    if not isinstance(entries, list) or not entries:
        raise _Violation("probes", "'probes' must be a non-empty list")
    probes: List[Tuple[float, float]] = []
    for entry in entries:
        if isinstance(entry, list) and len(entry) == 2 \
                and _is_numbers(entry):
            probes.append((float(entry[0]), float(entry[1])))
        elif _is_number(entry):
            # Bare positions share the scenario's t_end as probe time.
            if not _is_number(doc.get("t_end")):
                raise _Violation("probes",
                                 "bare probe positions need a finite "
                                 "'t_end' (flag --t-end)")
            probes.append((float(entry), float(doc["t_end"])))
        else:
            raise _Violation("probes", "each probe must be [x, t] or a number")
    if doc.get("t_end") is not None and all(isinstance(entry, list)
                                            for entry in entries):
        raise _Violation("t_end",
                         "'t_end' is read only by bare probe positions; "
                         "paired probes [x, t] carry their own times")
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

    check: Callable  # (doc, key) -> normalized value; raises _Violation
    what: str  # completes "'key' must be ..." and the flag's help
    arg: Dict  # argparse keywords of the field's flag
    from_flag: Optional[Callable] = None  # (flag, parsed) -> field value
    whole_doc: bool = False  # check runs even when the key is absent


def _simple(test, what, norm=None, arg=None, from_flag=None) -> _Kind:
    """A kind that tests the field's value alone."""
    def check(doc, key):
        if not test(doc[key]):
            raise _Violation(key, f"'{key}' must be {what}")
        return norm(doc[key]) if norm else doc[key]
    return _Kind(check, what, arg or {}, from_flag)


def _integer(low: int) -> _Kind:
    return _simple(
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low,
        f"an integer >= {low}", arg={"type": int})


def _choice(options: Tuple[str, ...]) -> _Kind:
    def check(doc, key):
        if doc[key] not in options:
            raise _Violation(key, f"unknown {key} '{doc[key]}' "
                             f"(one of {', '.join(options)})")
        return doc[key]
    return _Kind(check, "one of " + ", ".join(options), {"choices": options})


_ANY = _simple(lambda v: True, "any value")
_TEXT = _simple(lambda v: isinstance(v, str) and v != "",
                "a non-empty string")
_NUMBER = _simple(_is_number, "a finite number", float, {"type": float})
_POSITIVE = _simple(lambda v: _is_number(v) and v > 0,
                    "a positive finite number", float, {"type": float})
_PROBES = _Kind(_validate_probes, "[x, t] as X,T, or a bare X probed at "
                "t_end; repeatable", {"action": "append", "metavar": "X[,T]"},
                _parse_probes, whole_doc=True)

# Markers for the default column.  A BY_FAMILY field is required when the
# barrier family lists it in FAMILIES and refused otherwise; an AUXILIARY
# field is read by another field's check and never stored in the normalized
# scenario.
REQUIRED = "required"
BY_FAMILY = "by family"
AUXILIARY = "auxiliary"


class _Datum(NamedTuple):
    """One initial-datum kind of `U0_KINDS`."""

    classes: Tuple[str, ...]  # the classes it may declare
    nature: str  # why other classes are refused
    fields: Tuple  # rows (name, kind, default) of its spec
    values: Callable  # (normalized spec, b, f, g) -> values on (-b, b)


def _constant(d, b, f, g):
    return lambda x: np.full_like(np.asarray(x, dtype=float), d["value"])


def _poly(d, b, f, g):
    poly = np.polynomial.Polynomial(d["coeffs"])
    return lambda x: poly(np.asarray(x, dtype=float))


_PSI_FIELDS = ("gamma_plus", "gamma_minus", "d_plus", "d_minus")


def _psi(d, b, f, g):
    gp, gm, dp, dm = (d[name] for name in _PSI_FIELDS)

    def values(x):
        xs = np.asarray(x, dtype=float)
        return dp * psi(gp, b - xs) + dm * psi(gm, b + xs) + d["offset"]
    return values


def _clamped_wave(d, b, f, g):
    flat = initial_b1(lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    w = compute_wave(make_problem(b, f, g, flat)).w
    return lambda x: np.minimum(
        np.asarray(w(np.asarray(x, dtype=float)), dtype=float), d["clamp"])


U0_KINDS = {
    "constant": _Datum(("B1",), "a constant datum is bounded",
                       (("value", _NUMBER, REQUIRED),), _constant),
    "poly": _Datum(("B1",), "a polynomial datum is bounded",
                   (("coeffs", _simple(lambda v: _is_numbers(v) and v != [],
                                       "a non-empty list of numbers", _floats),
                     REQUIRED),), _poly),
    "psi": _Datum(("B2", "B3"), "a psi datum diverges",
                  tuple((name, _NUMBER, REQUIRED) for name in _PSI_FIELDS)
                  + (("offset", _NUMBER, 0.0),), _psi),
    "wave": _Datum(("B1",), "a clamped wave datum is bounded",
                   (("clamp", _NUMBER, REQUIRED),), _clamped_wave),
}


class _Family(NamedTuple):
    """One barrier family of `FAMILIES`."""

    keys: Tuple[str, ...]  # its scenario fields, in constructor order
    side: str  # the side verified unless the scenario names one
    build: Callable  # (spec, *values of keys) -> BarrierFunction


FAMILIES = {
    "uk": _Family(("k",), "sub", sub_uk),
    "vL": _Family(("L",), "sub", sub_vL),
    "super": _Family(("L0", "nu"), "super",
                     lambda spec, l0, nu: super_family(spec, None, l0, nu)),
    "h": _Family(("gamma_plus", "gamma_minus", "d_plus", "d_minus", "b0"),
                 "sub", lambda spec, *tail: h_tail(spec.b, *tail)),
}

# Each experiment's `expect` keys, the ones its runner reads, as rows
# (name, kind, default) checked like a datum spec; values stay as given.
_FINITE = _simple(_is_number, "a finite number")
_VERDICT = (("verdict", _TEXT, None),)
_TOLERANCE = _simple(lambda v: _is_number(v) and v >= 0,
                     "a finite number >= 0")


def _check_side(doc, key):
    """A side that `parse_side` reads; kept as given."""
    try:
        parse_side(doc[key])
    except ParameterError as exc:
        raise _Violation(key, str(exc)) from None
    return doc[key]


def _check_c_tol(doc, key):
    """A speed tolerance, refused without the speed it applies to."""
    tol = _TOLERANCE.check(doc, key)
    if doc.get("c") is None:
        raise _Violation(key, f"'{key}' needs 'c'")
    return tol


EXPECT = {
    "classify": _VERDICT,
    "wave": (("c", _FINITE, None),
             ("c_tol", _Kind(_check_c_tol, _TOLERANCE.what, {}), None),
             ("max_residual", _FINITE, None)),
    "barrier": (),
    "solve": (("diverged", _simple(lambda v: isinstance(v, bool),
                                   "a boolean"), None),),
    "capstudy": _VERDICT,
    "verify": (),
}

_DEFAULT_U0 = {"class": "B1", "spec": {"kind": "constant", "value": 0.0}}
_COMMON = (
    ("name", _TEXT, REQUIRED, "--name"),
    ("output_dir", _TEXT, REQUIRED, None),
    ("seed", _integer(0), 0, "--seed"),
    ("expect", _Kind(_validate_expect, "an object", {}), {}, None),
)
_PROBLEM = _COMMON + (
    ("preset", _choice(tuple(PRESETS)), REQUIRED, "--preset"),
    ("params", _Kind(_validate_params, "a preset parameter; repeatable",
                     {"action": "append", "metavar": "KEY=VALUE"},
                     _parse_kv), REQUIRED, "--param"),
    ("b", _POSITIVE, DEFAULT_B, "--b"),
    ("u0", _Kind(_validate_u0, "an initial datum document",
                 {"metavar": "JSON"}, _parse_json), _DEFAULT_U0, "--u0"),
)

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
        ("family", _choice(tuple(FAMILIES)), REQUIRED, "--family"),
    ) + tuple((key, _NUMBER, BY_FAMILY, "--" + key.replace("_", "-"))
              for family in FAMILIES.values() for key in family.keys) + (
        ("samples", _integer(1000), DEFAULT_SAMPLES, "--samples"),
        ("side", _Kind(_check_side, SIDE_FORMS, {}), None, "--side"),
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
    # Nested keys share names with top-level ones ("gamma_plus" of barrier
    # h and of a psi datum), so a check's keys are sought below its field.
    field = None  # the top-level field whose check is running
    try:
        experiment = doc.get("experiment")
        if experiment is None:
            raise _Violation("experiment",
                             "missing required field 'experiment'")
        if experiment not in EXPERIMENTS:
            raise _Violation("experiment",
                             f"unknown experiment '{experiment}' "
                             f"(one of {', '.join(EXPERIMENTS)})")
        rows = SCHEMA[experiment]
        allowed = {"experiment"} | {row[0] for row in rows}
        for key in doc:
            if key not in allowed:
                raise _Violation(key, f"unknown field '{key}' for "
                                 f"experiment '{experiment}'")

        scn: Dict = {"experiment": experiment}
        for key, kind, default, flag in rows:
            given = doc.get(key) is not None
            if default is BY_FAMILY:
                if key not in FAMILIES[scn["family"]].keys:
                    if given:
                        raise _Violation(key, f"family '{scn['family']}' "
                                         f"does not take '{key}'")
                    continue
                default = REQUIRED
            if default is AUXILIARY:
                continue
            if given or kind.whole_doc:
                field = key
                scn[key] = kind.check(doc, key)
                field = None
            elif default is REQUIRED:
                hint = f" (flag {flag})" if flag else ""
                raise _Violation(key,
                                 f"missing required field '{key}'{hint}")
            else:
                scn[key] = copy.deepcopy(default)
    except _Violation as exc:
        key, msg = exc.args
        line = _key_line(raw, key, field)
        raise ScenarioError(f"{path}:{line}: {msg}") from None
    return scn


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


def _build_problem(scn) -> ProblemSpec:
    """Assemble the ProblemSpec named by a validated scenario."""
    make, names = PRESETS[scn["preset"]]
    params = scn["params"]
    f, g = make(*(params[name] for name in names))
    if "f_beta" in params:
        f = signed_power(params["f_beta"])
    b, klass, d = scn["b"], scn["u0"]["class"], scn["u0"]["spec"]
    values = U0_KINDS[d["kind"]].values(d, b, f, g)
    if klass == "B1":
        u0 = initial_b1(values)
    elif klass == "B2":
        u0 = initial_b2(values, d["gamma_plus"])
    else:
        gp, gm, dp, dm = (d[name] for name in _PSI_FIELDS)
        # The far wall's tail is finite here, so it joins the offset in the
        # remainder limit.
        u0 = initial_b3(values, gp, gm, dp, dm,
                        chat_plus=d["offset"] + dm * psi(gm, 2.0 * b),
                        chat_minus=d["offset"] + dp * psi(gp, 2.0 * b))
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


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """A CSV with a header row.  Cells are Python scalars (numpy data goes
    through ``tolist``), so csv writes each float as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _columns(*columns) -> List:
    """The rows of numeric columns, one per index."""
    return list(zip(*(np.asarray(col, dtype=float).tolist()
                      for col in columns), strict=True))


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _judge_verdicts(scn, report: Dict, verdicts: List[str]) -> bool:
    """Record the expected verdict, if any; True if every verdict is it."""
    expected = scn["expect"].get("verdict")
    if expected is None:
        return True
    report["expected_verdict"] = expected
    return all(verdict == expected for verdict in verdicts)


def _run_classify(scn, spec: ProblemSpec):
    verdict = classify(spec)
    report = {
        "verdict": verdict.verdict,
        "theorem": verdict.theorem,
        "notes": verdict.notes,
        "alpha": spec.g.alpha,
        "beta": spec.f.beta,
        "u0_class": spec.u0.klass,
    }
    passed = _judge_verdicts(scn, report, [verdict.verdict])
    return report, passed, {"classify.csv": (
        ["alpha", "beta", "u0_class", "verdict"],
        [[spec.g.alpha, spec.f.beta, spec.u0.klass, verdict.verdict]])}


def _run_wave(scn, spec: ProblemSpec):
    profile = compute_wave(spec, n_grid=scn["n_grid"], w0=scn["w0"])
    xs = check_points(profile)
    residuals = profile_residuals(profile, spec, xs)
    # compute_wave fits D_plus and D_minus exactly when 1 < alpha <= 2.
    report = {
        "c": profile.c,
        "f_inv_c": profile.f_inv_c,
        "D_plus": profile.d_plus,
        "D_minus": profile.d_minus,
        "gamma": (None if profile.d_plus is None
                  else uniqueness_threshold(spec.g.alpha)),
        "g_total": profile.g_total,
        "b": profile.b,
        "n_grid": scn["n_grid"],
        "max_residual": float(np.max(residuals)),
    }
    passed = True
    expect = scn["expect"]
    if "c" in expect:
        report["expected_c"] = expect["c"]
        passed = abs(profile.c - expect["c"]) <= expect.get("c_tol", 1e-8)
    if "max_residual" in expect:
        passed = passed and report["max_residual"] <= expect["max_residual"]
    return report, passed, {"wave_profile.csv": (
        ["x", "W", "Wx", "residual"],
        _columns(xs, profile.w(xs), profile.wx(xs), residuals))}


def _run_barrier(scn, spec: ProblemSpec):
    family = FAMILIES[scn["family"]]
    bf = family.build(spec, *(scn[key] for key in family.keys))
    side = scn["side"] or family.side

    # Slice curves at a few deterministic times inside the horizon.
    times = np.array(sorted({0.0, 0.5 * bf.t_cap, bf.t_cap}))
    x_lo = max(-spec.b, bf.domain[0]) + PROFILE_MARGIN * spec.b
    x_hi = min(spec.b, bf.domain[1]) - PROFILE_MARGIN * spec.b
    grid = np.linspace(x_lo, x_hi, PROFILE_POINTS)
    with np.errstate(over="ignore"):
        vals = bf.eval(grid, times[:, None])
        slopes = bf.jet(grid, times[:, None])[0]
    tables = {"barrier_profile.csv": (
        ["t", "x", "value", "slope"],
        _columns(np.repeat(times, grid.size), np.tile(grid, times.size),
                 np.ravel(vals), np.ravel(slopes)))}

    report = {
        "family": bf.family,
        "params": scalar_params(bf.params),
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
    return report, passed, tables


def _run_solve(scn, spec: ProblemSpec):
    result = solve(spec, scn["n"], scn["cap"], scn["t_end"],
                   cap_minus=scn["cap_minus"],
                   snapshot_times=scn["snapshot_times"] or None)
    nodes = result.final.nodes
    tables, snapshots = {}, []
    for index, (t, values) in enumerate(result.snapshots):
        fname = f"snapshot_{index:02d}.csv"
        tables[fname] = (["x", "u"], _columns(nodes, values))
        snapshots.append({"t": t, "file": fname})
    tables["final_state.csv"] = (["x", "u"],
                                 _columns(nodes, result.final.values))

    report = {
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
        passed = scn["expect"]["diverged"] == result.diverged
    return report, passed, tables


def _run_capstudy(scn, spec: ProblemSpec):
    studies = []
    rows = []
    for study in cap_studies(spec, scn["n"], scn["caps"], scn["probes"]):
        x, t = study.probe
        studies.append({"probe": [x, t], "verdict": study.verdict,
                        "rows": [dict(r) for r in study.rows]})
        for row in study.rows:
            rows.append([x, t, row["cap"], row["value"], row["diff"],
                         int(row["monotone"]), int(row["diverged"])])
    report = {
        "n": scn["n"],
        "caps": scn["caps"],
        "studies": studies,
    }
    passed = _judge_verdicts(scn, report, [s["verdict"] for s in studies])
    return report, passed, {"capstudy.csv": (
        ["probe_x", "probe_t", "cap", "value", "diff", "monotone",
         "diverged"], rows)}


def _run_verify(scn, _spec):
    report = run_suite()
    return report, report["pass"], {"suite_checks.csv": (
        ["name", "pass", "detail"],
        [[c["name"], int(c["pass"]), c["detail"]] for c in report["checks"]])}


# Each experiment's runner and its subcommand help.  A runner takes the
# validated scenario and its ProblemSpec (None without a preset) and returns
# (report, passed, tables), tables mapping CSV file names to (header, rows).
_RUNNERS = {
    "classify": (_run_classify, "regime classification"),
    "wave": (_run_wave, "traveling-wave profile by quadrature"),
    "barrier": (_run_barrier, "explicit barrier families"),
    "solve": (_run_solve, "explicit finite differences"),
    "capstudy": (_run_capstudy, "existence probe along a cap ladder"),
    "verify": (_run_verify, "run the invariant suite"),
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
        },
        "seed": scn.get("seed", 0),
        "constant_estimates": report.get("constant_estimates", {}),
        "outputs": sorted(files),
    }


def _execute(scn: Dict, out_override: Optional[str] = None) -> int:
    spec = _build_problem(scn) if "preset" in scn else None
    report, passed, tables = _RUNNERS[scn["experiment"]][0](scn, spec)
    report.update({"experiment": scn["experiment"], "name": scn["name"],
                   "pass": passed})
    out = Path(out_override or scn["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    _write_json(out / "report.json", report)
    _write_json(out / "manifest.json",
                _manifest(scn, report, [*tables, "report.json",
                                        "manifest.json"]))
    print(f"{scn['experiment']} '{scn['name']}': "
          f"{'pass' if passed else 'FAIL'} -> {out}")
    return EXIT_PASS if passed else EXIT_FAIL


def _load(path: str, experiment: str) -> Dict:
    """Read, parse and validate one scenario file, which must run the
    ``experiment`` subcommand."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}")
    scn = validate_scenario(doc, raw, path)
    if scn["experiment"] != experiment:
        raise ScenarioError(f"{path}:{_key_line(raw, 'experiment')}: "
                            f"scenario runs '{scn['experiment']}' but the "
                            f"'{experiment}' subcommand was invoked")
    return scn


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other error: 2 means a check failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built from `SCHEMA` once per process."""
    parser = _Parser(
        prog="singflow",
        description="Numerical laboratory for a singular quasilinear "
                    "diffusion problem with infinite boundary data.")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (repeatable)")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, rows in SCHEMA.items():
        p = sub.add_parser(experiment, help=_RUNNERS[experiment][1])
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
        family = next(name for name, family in FAMILIES.items()
                      if key in family.keys)
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


def _glue_dash_values(argv: Sequence[str]) -> List[str]:
    """Write ``--flag VALUE`` as ``--flag=VALUE`` when VALUE starts with a
    minus sign, which argparse would read as an option unless it is a plain
    number (``--probe -0.5,0.01``, ``--cap -inf``); the schema judges it."""
    takes_value = {flag for rows in SCHEMA.values()
                   for _, kind, _, flag in rows
                   if flag and kind.arg.get("action") != "store_const"}
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in takes_value and arg.startswith("-"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(
        _glue_dash_values(sys.argv[1:] if argv is None else argv))
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
