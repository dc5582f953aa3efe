"""Command line front end: schema anchoring, exit codes, artifacts."""

from __future__ import annotations

import ast
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import singflow
from singflow import ScenarioError, cli, solver
from singflow.cli import main, validate_scenario


def _scenario(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def _classify_doc(out_dir, expect=None):
    doc = {
        "name": "heat-check",
        "preset": "p_heat",
        "params": {"p": 2.0, "beta1": 1.0, "eps": 0.1},
        "experiment": "classify",
        "output_dir": str(out_dir),
    }
    if expect is not None:
        doc["expect"] = expect
    return doc


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def test_validate_rejects_missing_fields():
    with pytest.raises(ScenarioError, match="missing required field"):
        validate_scenario({"experiment": "classify"})


def test_validate_rejects_unknown_experiment():
    with pytest.raises(ScenarioError, match="unknown experiment"):
        validate_scenario({"name": "x", "experiment": "plot",
                           "output_dir": "o"})


def test_validate_rejects_unknown_keys_with_line_anchor():
    raw = ('{\n  "name": "x",\n  "experiment": "verify",\n'
           '  "output_dir": "o",\n  "typo_field": 1\n}')
    with pytest.raises(ScenarioError, match=r"scn\.json:5: unknown field"):
        validate_scenario(json.loads(raw), raw, "scn.json")


def test_validate_rejects_incomplete_preset_params():
    doc = {"name": "x", "experiment": "classify", "output_dir": "o",
           "preset": "p_heat", "params": {"p": 2.0}}
    with pytest.raises(ScenarioError,
                       match="preset 'p_heat' needs 'beta1', a finite number"):
        validate_scenario(doc)


def test_validate_rejects_bounded_datum_declared_divergent():
    doc = {"name": "x", "experiment": "classify", "output_dir": "o",
           "preset": "curvature", "params": {"beta2": 1.0},
           "u0": {"class": "B2",
                  "spec": {"kind": "constant", "value": 1.0}}}
    with pytest.raises(ScenarioError, match="use class B1"):
        validate_scenario(doc)


_PSI_SPEC = {"kind": "psi", "gamma_plus": 0.5, "gamma_minus": 0.5,
             "d_plus": 1.0, "d_minus": 1.0}


# (u0, key whose line anchors the message, phrase of the message)
DATUM_REJECTIONS = {
    "constant-missing": ({"class": "B1", "spec": {"kind": "constant"}},
                         "spec", "constant datum needs 'value'"),
    "poly-missing": ({"class": "B1", "spec": {"kind": "poly"}},
                     "spec", "poly datum needs 'coeffs'"),
    "psi-missing": ({"class": "B2", "spec": dict(_PSI_SPEC, d_minus=None)},
                    "spec", "psi datum needs 'd_minus'"),
    "wave-missing": ({"class": "B1", "spec": {"kind": "wave"}},
                     "spec", "wave datum needs 'clamp'"),
    "constant-not-number": ({"class": "B1", "spec": {"kind": "constant",
                                                     "value": "high"}},
                            "value", "'value' must be a finite number"),
    "poly-empty": ({"class": "B1", "spec": {"kind": "poly", "coeffs": []}},
                   "coeffs", "'coeffs' must be a non-empty list of numbers"),
    "psi-not-number": ({"class": "B3", "spec": dict(_PSI_SPEC, d_plus=True)},
                       "d_plus", "'d_plus' must be a finite number"),
    "wave-not-number": ({"class": "B1", "spec": {"kind": "wave",
                                                 "clamp": [1.0]}},
                        "clamp", "'clamp' must be a finite number"),
    "constant-class": ({"class": "B2", "spec": {"kind": "constant",
                                                "value": 1.0}},
                       "class", "a constant datum is bounded; use class B1"),
    "poly-class": ({"class": "B3", "spec": {"kind": "poly", "coeffs": [1.0]}},
                   "class", "a polynomial datum is bounded; use class B1"),
    "psi-class": ({"class": "B1", "spec": _PSI_SPEC},
                  "class", "a psi datum diverges; use class B2 or B3"),
    "wave-class": ({"class": "B2", "spec": {"kind": "wave", "clamp": 1.0}},
                   "class", "a clamped wave datum is bounded; use class B1"),
    "psi-b2-rates": ({"class": "B2", "spec": dict(_PSI_SPEC,
                                                  gamma_minus=1.0)},
                     "gamma_minus", "class B2 needs one shared rate"),
    "unknown-kind": ({"class": "B1", "spec": {"kind": "spline"}},
                     "spec", "kind in constant, poly, psi, wave"),
    "spec-not-object": ({"class": "B1", "spec": [0.0]},
                        "spec", "kind in constant, poly, psi, wave"),
    "unknown-class": ({"class": "B4", "spec": {"kind": "constant",
                                               "value": 1.0}},
                      "class", "u0.class must be one of B1, B2, B3"),
    "not-object": ("flat", "u0", "'u0' must be an object"),
    "unknown-spec-field": ({"class": "B3", "spec": dict(_PSI_SPEC,
                                                        ofset=2.0)},
                           "ofset", "unknown field 'ofset' for datum kind "
                           "'psi'"),
    "unknown-u0-field": ({"class": "B1", "spec": {"kind": "constant",
                                                  "value": 1.0},
                          "extra": 1.0},
                         "extra", "unknown field 'extra' for u0"),
}


@pytest.mark.parametrize("case", sorted(DATUM_REJECTIONS))
def test_validate_rejects_bad_datum_at_its_line(case):
    u0, anchor, phrase = DATUM_REJECTIONS[case]
    doc = dict(_CURV, name="x", experiment="classify", output_dir="o", u0=u0)
    raw = json.dumps(doc, indent=2)
    line = 1 + next(i for i, text in enumerate(raw.splitlines())
                    if f'"{anchor}":' in text)
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(doc, raw, "scn.json")
    assert str(exc.value).startswith(f"scn.json:{line}: ")
    assert phrase in str(exc.value)


def test_datum_errors_anchor_below_the_u0_key():
    """A barrier h scenario has top-level gamma_plus and gamma_minus; a bad
    datum field of the same name is reported at the datum's line."""
    doc = dict(_CURV, name="x", experiment="barrier", output_dir="o",
               family="h", gamma_plus=1.0, gamma_minus=0.5, d_plus=2.0,
               d_minus=1.0, b0=0.6,
               u0={"class": "B3", "spec": dict(_PSI_SPEC, gamma_plus="x")})
    raw = json.dumps(doc, indent=2)
    lines = [i + 1 for i, text in enumerate(raw.splitlines())
             if '"gamma_plus":' in text]
    assert len(lines) == 2
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(doc, raw, "scn.json")
    assert str(exc.value).startswith(f"scn.json:{lines[1]}: ")
    assert "'gamma_plus' must be a finite number" in str(exc.value)


def _lines_of(raw, key):
    return [i + 1 for i, text in enumerate(raw.splitlines())
            if f'"{key}":' in text]


def test_expect_errors_anchor_below_the_expect_key():
    """A solve scenario's top-level n comes first; an unknown expect key n
    is reported at the expect line."""
    raw = json.dumps(_with_expect("solve", {"n": 1}), indent=2)
    lines = _lines_of(raw, "n")
    assert len(lines) == 2
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(json.loads(raw), raw, "scn.json")
    assert str(exc.value).startswith(f"scn.json:{lines[1]}: unknown field "
                                     "'n' for expect of experiment 'solve'")


def test_probe_errors_find_keys_above_probes():
    doc = dict(_CURV, name="x", experiment="capstudy", output_dir="o", n=50,
               caps=[2.0, 4.0], probe=[0.0, 0.01], probes=[[0.0, 0.01]])
    raw = json.dumps(doc, indent=2)
    (line,) = _lines_of(raw, "probe")
    assert line < _lines_of(raw, "probes")[0]
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(doc, raw, "scn.json")
    assert str(exc.value) == (f"scn.json:{line}: give 'probe' or 'probes', "
                              "not both")


def test_top_level_errors_after_a_nested_check_search_the_whole_file():
    """The u0 check ran before the family check, yet a top-level key that
    the family does not take is reported at its own line, not at the datum
    field of the same name below it."""
    doc = dict(_CURV, name="x", experiment="barrier", output_dir="o",
               gamma_plus=1.0, family="uk", k=100.0,
               u0={"class": "B3", "spec": dict(_PSI_SPEC, gamma_minus=1.0)})
    raw = json.dumps(doc, indent=2)
    lines = _lines_of(raw, "gamma_plus")
    assert len(lines) == 2 and lines[0] < _lines_of(raw, "u0")[0]
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(doc, raw, "scn.json")
    assert str(exc.value) == (f"scn.json:{lines[0]}: family 'uk' does not "
                              "take 'gamma_plus'")


def _readers(source: str, name: str):
    """(function, line) of each function that takes or reads ``name`` in
    its own body; a nested function counts on its own."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = (node.name, node.lineno)
        if (isinstance(node, ast.arg) and node.arg == name
                or isinstance(node, ast.Name) and node.id == name):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)
    visit(ast.parse(source), ("<module>", 0))
    return sorted(found)


def test_only_the_locator_reads_the_raw_text():
    """Checks raise the offending key; validate_scenario alone turns it
    into a line (and _load for the subcommand check)."""
    readers = _readers(Path(cli.__file__).read_text(), "raw")
    assert {name for name, _ in readers} <= {"validate_scenario", "_load",
                                             "_key_line"}


def test_only_execute_writes_and_no_runner_takes_a_directory():
    """Runners return their tables; _execute alone writes files, after the
    runner has returned."""
    source = Path(cli.__file__).read_text()
    for writer in ("_write_csv", "_write_json"):
        assert {name for name, _ in _readers(source, writer)} == {"_execute"}
    runners = {node.name: node.args for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_run_")}
    assert set(runners) == {run.__name__ for run, _ in cli._RUNNERS.values()}
    for name, args in runners.items():
        assert (len(args.args), args.vararg, args.kwonlyargs,
                args.kwarg) == (2, None, [], None), name


def test_the_raw_check_sees_a_nested_reader():
    source = ("def outer(doc):\n    def check(raw):\n        return 1\n"
              "    return check\n\ndef other(doc):\n    return raw\n")
    assert _readers(source, "raw") == [("check", 2), ("other", 6)]


def test_integer_datum_fields_normalize_to_floats():
    """manifest.json records the normalized scenario, so 1 and 1.0 differ."""
    cases = [
        ({"kind": "constant", "value": 1}, {"value": 1.0}),
        ({"kind": "poly", "coeffs": [1, 0, -1]}, {"coeffs": [1.0, 0.0, -1.0]}),
        ({"kind": "psi", "gamma_plus": 0, "gamma_minus": 1, "d_plus": 2,
          "d_minus": 1, "offset": 3},
         {"gamma_plus": 0.0, "gamma_minus": 1.0, "d_plus": 2.0,
          "d_minus": 1.0, "offset": 3.0}),
        ({"kind": "psi", "gamma_plus": 1, "gamma_minus": 1, "d_plus": 2,
          "d_minus": 1},
         {"gamma_plus": 1.0, "gamma_minus": 1.0, "d_plus": 2.0,
          "d_minus": 1.0, "offset": 0.0}),
        ({"kind": "wave", "clamp": 2}, {"clamp": 2.0}),
    ]
    for spec, fields in cases:
        klass = "B1" if spec["kind"] != "psi" else (
            "B2" if spec["gamma_plus"] == spec["gamma_minus"] else "B3")
        scn = validate_scenario(dict(_CURV, name="x", experiment="classify",
                                     output_dir="o",
                                     u0={"class": klass, "spec": spec}))
        expected = {"class": klass, "spec": dict(fields, kind=spec["kind"])}
        assert (json.dumps(scn["u0"], sort_keys=True)
                == json.dumps(expected, sort_keys=True)), spec


def test_validate_normalizes_probe_forms():
    base = {"name": "x", "experiment": "capstudy", "output_dir": "o",
            "preset": "curvature", "params": {"beta2": 1.0},
            "n": 100, "caps": [2.0, 4.0]}
    pairs = validate_scenario({**base, "probes": [[0.0, 0.1], [0.5, 0.2]]})
    assert pairs["probes"] == [(0.0, 0.1), (0.5, 0.2)]
    shared = validate_scenario({**base, "t_end": 0.1, "probes": [0.0, 0.5]})
    assert shared["probes"] == [(0.0, 0.1), (0.5, 0.1)]
    single = validate_scenario({**base, "probe": [0.25, 0.3]})
    assert single["probes"] == [(0.25, 0.3)]


# The fields each experiment needs beside a curvature problem (verify
# takes none).
_NEEDS = {
    "classify": {},
    "wave": {},
    "barrier": {"family": "uk", "k": 100.0},
    "solve": {"n": 60, "cap": 4.0, "t_end": 0.01},
    "capstudy": {"n": 60, "caps": [2.0, 4.0], "probes": [[0.0, 0.01]]},
    "verify": None,
}


def _with_expect(experiment, expect):
    """A valid scenario of the experiment with the given expect."""
    doc = {"name": "x", "experiment": experiment, "output_dir": "o"}
    if _NEEDS[experiment] is not None:
        doc.update(_CURV, **_NEEDS[experiment])
    doc["expect"] = expect
    return doc


# (experiment, expect, key whose line anchors the message, phrase)
EXPECT_REJECTIONS = {
    "classify-typo": ("classify", {"verdit": "exists"}, "verdit",
                      "unknown field 'verdit' for expect of experiment "
                      "'classify'"),
    "capstudy-empty": ("capstudy", {"verdict": ""}, "verdict",
                       "'verdict' must be a non-empty string"),
    "wave-tol-text": ("wave", {"c": 1.0, "c_tol": "tight"}, "c_tol",
                      "'c_tol' must be a finite number >= 0"),
    "wave-tol-negative": ("wave", {"c": 1.0, "c_tol": -1e-8}, "c_tol",
                          "'c_tol' must be a finite number >= 0"),
    "wave-tol-without-c": ("wave", {"c_tol": 1e-3}, "c_tol",
                           "'c_tol' needs 'c'"),
    "wave-c-nan": ("wave", {"c": math.nan}, "c", "'c' must be a finite "
                   "number"),
    "wave-residual-inf": ("wave", {"max_residual": math.inf},
                          "max_residual", "'max_residual' must be a finite "
                          "number"),
    "solve-text-bool": ("solve", {"diverged": "false"}, "diverged",
                        "'diverged' must be a boolean"),
    "solve-verdict": ("solve", {"verdict": "exists"}, "verdict",
                      "unknown field 'verdict' for expect of experiment "
                      "'solve'"),
    "barrier-any": ("barrier", {"pass": True}, "pass",
                    "unknown field 'pass' for expect of experiment "
                    "'barrier'"),
    "verify-any": ("verify", {"n_failed": 0}, "n_failed",
                   "unknown field 'n_failed' for expect of experiment "
                   "'verify'"),
    "not-object": ("classify", ["exists"], "expect",
                   "'expect' must be an object"),
}


@pytest.mark.parametrize("case", sorted(EXPECT_REJECTIONS))
def test_validate_rejects_bad_expect_at_its_line(case):
    experiment, expect, anchor, phrase = EXPECT_REJECTIONS[case]
    doc = _with_expect(experiment, expect)
    raw = json.dumps(doc, indent=2)
    line = 1 + next(i for i, text in enumerate(raw.splitlines())
                    if f'"{anchor}":' in text)
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(json.loads(raw), raw, "scn.json")
    assert str(exc.value).startswith(f"scn.json:{line}: ")
    assert phrase in str(exc.value)


def test_expect_values_pass_through_and_null_counts_as_absent():
    """manifest.json records expect as given: 1 stays 1, not 1.0."""
    cases = [
        ("classify", {"verdict": "exists"}),
        ("capstudy", {"verdict": "saturating"}),
        ("wave", {"c": 1, "c_tol": 0, "max_residual": 2}),
        ("solve", {"diverged": False}),
        ("barrier", {}),
        ("verify", {}),
    ]
    for experiment, expect in cases:
        scn = validate_scenario(_with_expect(experiment, expect))
        assert (json.dumps(scn["expect"], sort_keys=True)
                == json.dumps(expect, sort_keys=True)), experiment
    scn = validate_scenario(_with_expect("wave", {"c": None,
                                                  "max_residual": 1e-3}))
    assert scn["expect"] == {"max_residual": 1e-3}


def test_bad_expect_exits_1_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    doc = dict(_with_expect("wave", {"c": 1.0, "c_tol": "tight"}),
               output_dir=str(out))
    assert main(["wave", "--scenario", str(_scenario(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert "'c_tol' must be a finite number >= 0" in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_classify_scenario_passes(tmp_path):
    out = tmp_path / "out"
    path = _scenario(tmp_path, _classify_doc(out))
    assert main(["classify", "--scenario", str(path)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "not_exists"
    assert report["pass"] is True


def test_expectation_mismatch_exits_2(tmp_path):
    out = tmp_path / "out"
    path = _scenario(tmp_path, _classify_doc(out,
                                             expect={"verdict": "exists"}))
    assert main(["classify", "--scenario", str(path)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False


def test_malformed_json_exits_1_with_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "name": "x",,\n}')
    assert main(["classify", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:2:" in err and "malformed JSON" in err


def test_schema_violation_exits_1_with_line(tmp_path, capsys):
    doc = _classify_doc(tmp_path / "out")
    doc["params"]["zeta"] = 1.0
    path = _scenario(tmp_path, doc)
    assert main(["classify", "--scenario", str(path)]) == 1
    assert ("unknown field 'zeta' for preset 'p_heat' "
            "(known: p, beta1, eps, f_beta)" in capsys.readouterr().err)


def test_subcommand_scenario_mismatch_exits_1(tmp_path, capsys):
    path = _scenario(tmp_path, _classify_doc(tmp_path / "out"))
    assert main(["wave", "--scenario", str(path)]) == 1
    assert "subcommand" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def test_wave_artifacts(tmp_path):
    out = tmp_path / "wave_out"
    doc = {
        "name": "arctan",
        "preset": "curvature",
        "params": {"beta2": 1.0},
        "experiment": "wave",
        "output_dir": str(out),
        "b": 1.5707963267948966,
        "expect": {"c": 1.0, "c_tol": 1e-8},
    }
    assert main(["wave", "--scenario", str(_scenario(tmp_path, doc))]) == 0
    with open(out / "wave_profile.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "W", "Wx", "residual"]
    assert len(rows) > 100
    report = json.loads((out / "report.json").read_text())
    assert abs(report["c"] - 1.0) < 1e-8
    assert report["g_total"] == pytest.approx(3.14159265, rel=1e-6)
    assert report["D_plus"] == pytest.approx(1.0, rel=0.02)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_wave_near_alpha_one_exits_1_without_traceback(tmp_path, capsys):
    """curvature(0.5025) has alpha = 1.005, where the model wall slope
    overflows a float: the run fails typed, with a message and exit 1."""
    assert main(["wave", "--preset", "curvature", "--param", "beta2=0.5025",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "divergence-rate fit" in err or "boundary-layer points" in err
    assert "Traceback" not in err


def test_barrier_with_a_bad_margin_exits_1_without_traceback(tmp_path,
                                                             capsys,
                                                             monkeypatch):
    """The side is read by the verifier's own grammar when the scenario
    loads: the refusal names the side's line, and no barrier is built and
    no output directory made."""
    monkeypatch.setattr(cli, "sub_vL", _no_run)
    out = tmp_path / "out"
    assert main(["barrier", "--preset", "p_heat", "--param", "p=2",
                 "--param", "beta1=1", "--param", "eps=0.1", "--family",
                 "vL", "--L", "50", "--samples", "1000", "--side",
                 "sub_strict(abc)", "--out", str(out)]) == 1
    message = "sub_strict needs a finite nonnegative margin, got 'abc'\n"
    assert capsys.readouterr().err == "<inline>:1: " + message
    doc = dict(_HEAT, name="s", experiment="barrier", family="vL", L=50.0,
               samples=1000, side="sub_strict(abc)", output_dir=str(out))
    path = _scenario(tmp_path, doc)
    assert main(["barrier", "--scenario", str(path)]) == 1
    line = _lines_of(path.read_text(), "side")[0]
    assert capsys.readouterr().err == f"{path}:{line}: " + message
    assert not out.exists()


def test_a_run_that_raises_writes_nothing(tmp_path, capsys):
    """A wave on p_heat (alpha = 0) is refused only once it runs; the
    output directory is made after the runner returns, so none is left."""
    out = tmp_path / "out"
    assert main(["wave", "--preset", "p_heat", "--param", "p=2", "--param",
                 "beta1=1", "--param", "eps=0.1", "--out", str(out)]) == 1
    assert "the weight integral diverges" in capsys.readouterr().err
    assert not out.exists()


def test_barrier_artifacts_and_determinism(tmp_path):
    doc = {
        "name": "uk",
        "preset": "curvature",
        "params": {"beta2": 1.0},
        "experiment": "barrier",
        "output_dir": str(tmp_path / "a"),
        "family": "uk",
        "k": 100.0,
        "samples": 2000,
        "seed": 7,
    }
    path = _scenario(tmp_path, doc)
    assert main(["barrier", "--scenario", str(path)]) == 0
    assert main(["barrier", "--scenario", str(path),
                 "--out", str(tmp_path / "b")]) == 0
    for fname in ("report.json", "barrier_profile.csv", "manifest.json"):
        assert ((tmp_path / "a" / fname).read_bytes()
                == (tmp_path / "b" / fname).read_bytes()), fname
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["family"] == "subsolution_uk"
    assert report["n_samples"] >= 2000
    assert report["kink_checks"] and report["pass"]


def test_solve_artifacts(tmp_path):
    out = tmp_path / "solve_out"
    doc = {
        "name": "small-run",
        "preset": "curvature",
        "params": {"beta2": 1.0},
        "experiment": "solve",
        "output_dir": str(out),
        "u0": {"class": "B1", "spec": {"kind": "poly",
                                       "coeffs": [0.5, 0.0, -0.5]}},
        "n": 60,
        "cap": 4.0,
        "t_end": 0.01,
        "snapshot_times": [0.0, 0.01],
        "expect": {"diverged": False},
    }
    assert main(["solve", "--scenario", str(_scenario(tmp_path, doc))]) == 0
    with open(out / "snapshot_00.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "u"] and len(rows) == 61
    report = json.loads((out / "report.json").read_text())
    assert report["diverged"] is False
    assert [s["t"] for s in report["snapshots"]] == [0.0, 0.01]


def test_inline_capstudy(tmp_path):
    out = tmp_path / "caps_out"
    code = main(["capstudy", "--preset", "curvature", "--param", "beta2=1",
                 "--n", "100", "--caps", "2,4,6,8", "--probe", "0,0.05",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["studies"][0]["verdict"] == "saturating"


def test_inline_needs_preset(capsys):
    assert main(["classify"]) == 1
    assert "--preset" in capsys.readouterr().err


def _python(*args):
    """Run the interpreter on args in a child process that imports the
    package under test, whether or not it is installed."""
    src = str(Path(singflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_console_script_entry_point(tmp_path):
    proc = _python("-m", "singflow.cli", "classify", "--preset", "curvature",
                   "--param", "beta2=1", "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    assert "classify" in proc.stdout


_SUITE_WORK = """
import json
from singflow import suite, wave
counts = {"compute_wave": 0, "wave_tables": 0, "super_family": 0,
          "family_sets": 0}

def counted(name, fn):
    def call(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return call

suite.compute_wave = counted("compute_wave", suite.compute_wave)
suite.super_family = counted("super_family", suite.super_family)
suite.convex_envelope = counted("family_sets", suite.convex_envelope)
table = wave._TailCorrectedG
table._build_tables = counted("wave_tables", table._build_tables)
first = suite.run_suite()
work = dict(counts)
print(json.dumps({"work": work, "pass": first["pass"],
                  "rerun_equal": suite.run_suite() == first}))
"""


def test_verify_builds_each_fixture_once():
    """One run_suite in a fresh interpreter computes three waves
    (curvature(1) at n_grid 512 and 1024, curvature(2/3)) on two wave
    tables, and builds the barrier family set, super_family included, once;
    a second run reports the same."""
    proc = _python("-c", _SUITE_WORK)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["work"] == {"compute_wave": 3, "wave_tables": 2,
                           "super_family": 1, "family_sets": 1}
    assert out["pass"] and out["rerun_equal"]


_BARRIER_SESSION = """
import sys
import numpy as np
from singflow import (custom_nonlinearity, initial_b1, make_problem,
                      preset_curvature, preset_p_heat, run_suite, sub_uk,
                      sub_vL, super_family, verify_inequality)
flat = initial_b1(lambda x: np.zeros_like(np.asarray(x, dtype=float)))
curv = make_problem(1.0, *preset_curvature(1.0), flat)
heat = make_problem(1.0, *preset_p_heat(2.0, 1.0, 0.1), flat)
sup = make_problem(1.0, *preset_p_heat(2.0, 0.5, 0.1), flat)
for bf, spec, side in ((sub_uk(curv, 300.0), curv, "sub"),
                       (sub_vL(heat, 100.0), heat, "sub"),
                       (super_family(sup, None, 3.0, 1e4), sup, "super")):
    verify_inequality(bf, spec, side, samples=2000, seed=1)
custom_nonlinearity(lambda s: np.asarray(s) + np.asarray(s) ** 3).inverse(2.0)
run_suite()
print(sorted(m for m in ("scipy.optimize", "scipy.integrate")
             if m in sys.modules))
"""


def test_import_leaves_scipy_solvers_unloaded():
    """scipy.optimize and scipy.integrate cost a process about 45 MB; the
    package ships its own root finder and integrates the super-solution's
    exponent by Gauss-Legendre quadrature, so neither importing it nor
    building, verifying and inverting anything loads them.  The runtime
    needs no scipy at all: importing the package and its CLI loads no
    scipy module."""
    for code in ("import sys, singflow, singflow.cli; print(sorted(m for m "
                 "in sys.modules if m.split('.')[0] == 'scipy'))",
                 _BARRIER_SESSION):
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# the schema table: inline flags, file keys and artifacts agree
# ---------------------------------------------------------------------------

_CURV = {"preset": "curvature", "params": {"beta2": 1.0}}
_HEAT = {"preset": "p_heat", "params": {"p": 2.0, "beta1": 1.0, "eps": 0.1}}
_POLY = {"class": "B1", "spec": {"kind": "poly", "coeffs": [0.5, 0.0, -0.5]}}
_PSI_B3 = {"class": "B3", "spec": {"kind": "psi", "gamma_plus": 0.5,
                                   "gamma_minus": 0.5, "d_plus": 1.0,
                                   "d_minus": 1.0}}
_SOLVE = {"experiment": "solve", "n": 40, "cap": 4.0, "t_end": 0.005}

# sha256 over the names and bytes of report.json and the CSVs (manifest.json
# records library versions), recorded before the CLI was driven by one
# schema table; the barrier_uk, barrier_vL, barrier_super and verify digests
# were re-recorded when the verifier moved from one seeded stream per
# stratum to one stream for the times and bins and one for the kink redraws;
# the wave_arctan, wave_poly_datum and solve_wave_datum digests were
# re-recorded when G^{-1} started Newton from a per-panel Chebyshev
# interpolant, which moved W and W_x at rounding level and kept every
# verdict; the barrier_super and verify digests were re-recorded when
# super_family's L(t) and T came from the exponent's time map instead of
# RK45, which moved T, the kink times and margins by at most 3e-9 relative
# and the suite's closure gap from 1.2e-14 to 3.6e-16, and kept every
# verdict; the barrier_uk, barrier_super and verify digests were
# re-recorded when sub_uk's y_k and super_family's terminal exponent became
# Newton roots to float resolution instead of bisect and brentq at loose
# tolerances, which moved y_k by 2.9e-12 relative, uk margins by 3.7e-12,
# super times and margins by 1.3e-14 and the suite's closure gap (measured
# in the power form, the root now solved in log form) from 3.6e-16 to
# 1.5e-15, and kept every verdict.
PINNED_ARTIFACTS = {
    "classify_b3": (
        dict(_CURV, experiment="classify", u0=_PSI_B3),
        "bb299d8bd0f5dc422c4614dbd01fc101bd6eb6ab22881ec22d8d18418911cd66"),
    "wave_arctan": (
        dict(_CURV, experiment="wave", b=1.5707963267948966, n_grid=256,
             w0=0.5),
        "9c47239fc299f035a899efa62afe241b14c692f823ee378e7c9249c0436b739a"),
    "barrier_uk": (
        dict(_CURV, experiment="barrier", family="uk", k=100.0, samples=2000,
             seed=7),
        "17c0973dee0315933de6fd088a681fa454c87b671010a1b92f22d8b6ae02908e"),
    "barrier_vL": (
        dict(_HEAT, experiment="barrier", family="vL", L=100.0, samples=2000,
             seed=5),
        "8ddc8a22c83755efa1f2d63f27fc9dfdbe69579129246f706bbed2e21183a3b4"),
    "barrier_super": (
        dict(_HEAT, experiment="barrier", family="super",
             params={"p": 2.0, "beta1": 0.5, "eps": 0.1}, L0=3.0, nu=1e4,
             samples=2000, seed=3),
        "33bda7dddef74c79f2a31bd6cfbeb7434dbb8f4d436218582f585f42b5216944"),
    "barrier_h": (
        dict(_CURV, experiment="barrier", family="h", gamma_plus=1.0,
             gamma_minus=0.5, d_plus=2.0, d_minus=1.0, b0=0.6, verify=False),
        "28a0eff5e871aadd47176cac04404aca819cc2fa0f866dc79efab5dd104c66d5"),
    "solve": (
        dict(_CURV, experiment="solve", u0=_POLY, n=60, cap=4.0,
             cap_minus=-2.0, t_end=0.01, snapshot_times=[0.0, 0.01]),
        "39e6843a51671dce246a3b9f58ff60d99e448a9f187b230e248e95ee57de7748"),
    "capstudy_pairs": (
        dict(_CURV, experiment="capstudy", n=100, caps=[2.0, 4.0, 8.0],
             probes=[[0.0, 0.05], [0.5, 0.02]]),
        "ad33dca094e4040bb314de2cbb7e89223175193eff1ba8d1eb64c861ee2ab8ee"),
    "capstudy_bare": (
        dict(_CURV, experiment="capstudy", n=100, caps=[2.0, 4.0, 8.0],
             t_end=0.05, probes=[0.0, 0.5]),
        "66e9215ab6c979bafcbe147a7149f4a17f4f82af845d2c357fbf1960e7260d35"),
    "verify": (
        {"experiment": "verify"},
        "b8bfe58bf75562174f9b722120dbedb2efcfcb11ac49eb01da01c1b22a834a97"),
    # One case per datum kind and class and one preset override, recorded
    # before the presets, datum kinds and barrier families became tables.
    "solve_constant": (
        dict(_CURV, **_SOLVE, u0={"class": "B1", "spec": {
            "kind": "constant", "value": 0.7}}),
        "a7f672126aa84a8ad56428b415e85d06965e462f20bc2fa7a614687bcb112fb0"),
    "solve_wave_datum": (
        dict(_CURV, **_SOLVE, u0={"class": "B1", "spec": {
            "kind": "wave", "clamp": 1.5}}),
        "f1590d9de2fa94b133633312100e96b3ab99b6d176e0ecbea11311cec36beeda"),
    "solve_psi_b2": (
        dict(_CURV, **_SOLVE, u0={"class": "B2", "spec": {
            "kind": "psi", "gamma_plus": 0.5, "gamma_minus": 0.5,
            "d_plus": 0.2, "d_minus": 0.3}}),
        "69405fb39b975987af6aec667a17ead0d2a62e654adcab71ea145be650e0bdb4"),
    "solve_psi_b3_log": (
        dict(_CURV, **_SOLVE, u0={"class": "B3", "spec": {
            "kind": "psi", "gamma_plus": 0.0, "gamma_minus": 0.5,
            "d_plus": 1.0, "d_minus": 0.2, "offset": 0.3}}),
        "84d7415e0f716e48a9c2615e3d1585c5f542818dedd0da18b3029fcedf5c2435"),
    "solve_f_beta": (
        dict(_HEAT, **_SOLVE, params={"p": 2.0, "beta1": 1.0, "eps": 0.1,
                                      "f_beta": 2.0}, u0=_POLY),
        "024eae408cef4e1e8bf930a6c7262bc8fa18fd20c8a9e95f9294d37b22468c5e"),
    "wave_poly_datum": (
        dict(_CURV, experiment="wave", n_grid=128, u0=_POLY),
        "fc0e870dca7687d0827accc261efd185ee94ab5a8c481098df5cb79442e0dcd3"),
}


def _artifact_digest(tmp_path, name, doc):
    out = tmp_path / name
    path = _scenario(tmp_path, dict(doc, name=name, output_dir=str(out)))
    assert main([doc["experiment"], "--scenario", str(path)]) == 0
    h = hashlib.sha256()
    for item in sorted(out.iterdir()):
        if item.name != "manifest.json":
            h.update(item.name.encode() + b"\0" + item.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_artifacts_match_pinned_digests(tmp_path, name):
    doc, digest = PINNED_ARTIFACTS[name]
    assert _artifact_digest(tmp_path, name, doc) == digest


_PROBLEM_ARGV = ["--name", "n", "--seed", "3", "--preset", "curvature",
                 "--param", "beta2=1", "--b", "1.5", "--u0",
                 json.dumps(_POLY)]
_PROBLEM_DOC = dict(_CURV, name="n", seed=3, b=1.5, u0=_POLY)

# (argv, equivalent document fields); together the cases of an experiment
# use every flag its schema rows define.
PARITY = [
    (["classify", *_PROBLEM_ARGV], _PROBLEM_DOC),
    (["wave", *_PROBLEM_ARGV, "--n-grid", "64", "--w0", "0.5"],
     dict(_PROBLEM_DOC, n_grid=64, w0=0.5)),
    (["barrier", *_PROBLEM_ARGV, "--family", "uk", "--k", "100",
      "--samples", "2000", "--side", "sub", "--no-verify"],
     dict(_PROBLEM_DOC, family="uk", k=100.0, samples=2000, side="sub",
          verify=False)),
    (["barrier", *_PROBLEM_ARGV, "--family", "vL", "--L", "50"],
     dict(_PROBLEM_DOC, family="vL", L=50.0)),
    (["barrier", *_PROBLEM_ARGV, "--family", "super", "--L0", "3",
      "--nu", "1e4"], dict(_PROBLEM_DOC, family="super", L0=3.0, nu=1e4)),
    (["barrier", *_PROBLEM_ARGV, "--family", "h", "--gamma-plus", "1",
      "--gamma-minus", "0.5", "--d-plus", "2", "--d-minus", "1",
      "--b0", "0.6"],
     dict(_PROBLEM_DOC, family="h", gamma_plus=1.0, gamma_minus=0.5,
          d_plus=2.0, d_minus=1.0, b0=0.6)),
    (["solve", *_PROBLEM_ARGV, "--n", "60", "--cap", "4", "--cap-minus",
      "-2", "--t-end", "0.01", "--snapshots", "0,0.005,0.01"],
     dict(_PROBLEM_DOC, n=60, cap=4.0, cap_minus=-2.0, t_end=0.01,
          snapshot_times=[0.0, 0.005, 0.01])),
    (["capstudy", *_PROBLEM_ARGV, "--n", "100", "--caps", "2,4,8",
      "--t-end", "0.05", "--probe", "0,0.02", "--probe", "0.5"],
     dict(_PROBLEM_DOC, n=100, caps=[2.0, 4.0, 8.0], t_end=0.05,
          probes=[[0.0, 0.02], 0.5])),
    (["verify", "--name", "n", "--seed", "3"], {"name": "n", "seed": 3}),
]


def _inline(argv):
    return validate_scenario(
        cli._inline_scenario(cli._build_parser().parse_args(argv)))


@pytest.mark.parametrize("argv,fields", PARITY,
                         ids=[" ".join(a[:1] + a[-2:]) for a, _ in PARITY])
def test_flags_validate_like_the_document(argv, fields):
    doc = dict(fields, experiment=argv[0], output_dir="o")
    assert _inline([*argv, "--out", "o"]) == validate_scenario(doc)


def test_parity_cases_use_every_flag():
    for experiment, rows in cli.SCHEMA.items():
        used = {a for argv, _ in PARITY if argv[0] == experiment
                for a in argv}
        assert {flag for *_, flag in rows if flag} <= used, experiment


def _readme_tables():
    """(caption, header, rows) of each table in README.md, the caption
    being the last text line above it; cells are stripped strings."""
    tables, caption, rows = [], "", []
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    for line in [*lines, ""]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
            continue
        if rows:
            tables.append((caption, rows[0], rows[2:]))
            rows = []
        if line.strip():
            caption = line
    return tables


def _ticked(cell):
    return set(re.findall(r"`([^`]+)`", cell))


def test_readme_schema_tables_match_the_schema():
    """README's field and expect tables list, per experiment, the keys of
    SCHEMA and EXPECT."""
    fields = {experiment: set() for experiment in cli.SCHEMA}
    expect = {experiment: set() for experiment in cli.EXPECT}
    seen = []
    for caption, header, rows in _readme_tables():
        seen.append(header)
        for row in rows:
            if header == ["key", "flag", "value"]:
                for experiment in fields:
                    if not ("except `verify`" in caption
                            and experiment == "verify"):
                        fields[experiment] |= _ticked(row[0])
            elif header == ["experiment", "key", "flag", "value"]:
                for experiment in _ticked(row[0]):
                    fields[experiment] |= _ticked(row[1])
            elif header == ["experiment", "key", "value"]:
                for experiment in _ticked(row[0]):
                    expect[experiment] |= _ticked(row[1])
    assert seen.count(["key", "flag", "value"]) == 2
    assert seen.count(["experiment", "key", "flag", "value"]) == 1
    assert seen.count(["experiment", "key", "value"]) == 1
    assert fields == {experiment: {row[0] for row in rows}
                      for experiment, rows in cli.SCHEMA.items()}
    assert expect == {experiment: {row[0] for row in rows}
                      for experiment, rows in cli.EXPECT.items()}


@pytest.mark.parametrize("sub", cli.EXPERIMENTS)
def test_subcommand_help_exits_0(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    assert "--scenario" in capsys.readouterr().out


def test_inline_bare_probe_takes_t_end():
    scn = _inline(["capstudy", "--preset", "curvature", "--param", "beta2=1",
                   "--n", "100", "--caps", "2,4", "--probe", "0",
                   "--t-end", "0.1", "--probe", "0.5,0.2"])
    assert scn["probes"] == [(0.0, 0.1), (0.5, 0.2)]


@pytest.mark.parametrize("missing", ["cap", "t_end"])
def test_missing_required_number_exits_1(tmp_path, capsys, missing):
    doc = dict(_CURV, name="s", experiment="solve", n=50, cap=4.0,
               t_end=0.01, output_dir=str(tmp_path / "f"))
    del doc[missing]
    path = _scenario(tmp_path, doc)
    assert main(["solve", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:1: missing required field '{missing}'" in err

    flags = {"cap": ["--cap", "4"], "t_end": ["--t-end", "0.01"]}
    del flags[missing]
    argv = ["solve", "--preset", "curvature", "--param", "beta2=1", "--n",
            "50", *sum(flags.values(), []), "--out", str(tmp_path / "i")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"<inline>:1: missing required field '{missing}'" in err


def _no_run(*args, **kwargs):
    raise AssertionError("the solver ran on an invalid scenario")


@pytest.mark.parametrize("field,value,flags", [
    ("params", {"beta2": float("nan")}, ["--param", "beta2=nan"]),
    ("b", float("inf"), ["--b", "inf"]),
    ("t_end", float("nan"), ["--t-end", "nan"]),
    ("t_end", float("inf"), ["--t-end", "inf"]),
    ("cap", float("-inf"), ["--cap=-inf"]),
    ("caps", [2.0, float("nan")], ["--caps", "2,nan"]),
])
def test_non_finite_numbers_exit_1_before_running(tmp_path, capsys,
                                                  monkeypatch, field, value,
                                                  flags):
    monkeypatch.setattr(cli, "solve", _no_run)
    monkeypatch.setattr(cli, "cap_studies", _no_run)
    experiment = "capstudy" if field == "caps" else "solve"
    base = {"solve": {"cap": 4.0, "t_end": 0.01},
            "capstudy": {"caps": [2.0, 4.0], "probe": [0.0, 0.01]}}
    doc = dict(_CURV, name="nf", experiment=experiment, n=50,
               output_dir=str(tmp_path / "f"), **base[experiment])
    doc[field] = value
    path = _scenario(tmp_path, doc)  # json writes NaN and Infinity
    anchor = "beta2" if field == "params" else field
    line = 1 + next(i for i, text in enumerate(path.read_text().splitlines())
                    if f'"{anchor}":' in text)
    assert main([experiment, "--scenario", str(path)]) == 1
    assert f"{path}:{line}: " in capsys.readouterr().err

    # Later flags override earlier ones, so the bad value wins.
    base_argv = {"solve": ["--cap", "4", "--t-end", "0.01"],
                 "capstudy": ["--caps", "2,4", "--probe", "0,0.01"]}
    argv = [experiment, "--preset", "curvature", "--param", "beta2=1",
            "--n", "50", *base_argv[experiment], *flags,
            "--out", str(tmp_path / "i")]
    assert main(argv) == 1
    assert "<inline>:1: " in capsys.readouterr().err


def test_negative_seed_exits_1_before_running(tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.setattr(cli, "verify_inequality", _no_run)
    doc = dict(_CURV, name="s", experiment="barrier", family="uk", k=100.0,
               samples=2000, seed=-1, output_dir=str(tmp_path / "s"))
    path = _scenario(tmp_path, doc)
    line = 1 + next(i for i, text in enumerate(path.read_text().splitlines())
                    if '"seed":' in text)
    assert main(["barrier", "--scenario", str(path)]) == 1
    assert (f"{path}:{line}: 'seed' must be an integer >= 0"
            in capsys.readouterr().err)
    assert main(["barrier", "--preset", "curvature", "--param", "beta2=1",
                 "--family", "uk", "--k", "100", "--seed=-1",
                 "--out", str(tmp_path / "i")]) == 1
    assert ("<inline>:1: 'seed' must be an integer >= 0"
            in capsys.readouterr().err)
    assert not (tmp_path / "s").exists() and not (tmp_path / "i").exists()


@pytest.mark.parametrize("field,value", [("preset", "curvature"),
                                         ("params", "junk"), ("b", 2.0),
                                         ("u0", {"class": "B1"})])
def test_verify_scenario_refuses_problem_fields(tmp_path, capsys, field,
                                                value):
    doc = {"name": "v", "experiment": "verify", field: value,
           "output_dir": str(tmp_path / "o")}
    assert main(["verify", "--scenario", str(_scenario(tmp_path, doc))]) == 1
    assert (f"unknown field '{field}' for experiment 'verify'"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_scenario_refuses_field_flags(tmp_path, capsys):
    path = _scenario(tmp_path, _classify_doc(tmp_path / "out"))
    assert main(["classify", "--scenario", str(path), "--b", "2"]) == 1
    assert "--b" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["-v", "classify", "--scenario", str(path),
                 "--out", str(tmp_path / "other")]) == 0
    assert (tmp_path / "other" / "report.json").exists()


def test_barrier_refuses_keys_of_other_families():
    doc = dict(_CURV, name="x", experiment="barrier", output_dir="o",
               family="uk", k=100.0, L=50.0)
    with pytest.raises(ScenarioError, match="family 'uk' does not take 'L'"):
        validate_scenario(doc)


# ---------------------------------------------------------------------------
# usage errors, dash-leading values, capstudy t_end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["solve", "--preset", "curvature", "--param", "beta2=1", "--n", "abc"],
    ["classify", "--preset", "bogus"],
    ["barrier", "--family", "x"],
    ["classify", "--no-such-flag"],
])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_console_usage_error_exits_1():
    proc = _python("-m", "singflow.cli", "solve", "--n", "abc")
    assert proc.returncode == 1
    assert "invalid int value: 'abc'" in proc.stderr


def _validated_inline(monkeypatch, argv):
    """The scenario main() would run for argv, or its exit status."""
    seen = []
    monkeypatch.setattr(cli, "_execute",
                        lambda scn, out=None: seen.append(scn) or 0)
    code = main(argv)
    return seen[0] if seen else code


_CAPSTUDY_ARGV = ["capstudy", "--preset", "curvature", "--param", "beta2=1",
                  "--n", "50"]


@pytest.mark.parametrize("flags,key,value", [
    (["--caps", "2,4", "--probe", "-0.5,0.01"], "probes", [(-0.5, 0.01)]),
    (["--caps", "-0,2", "--probe", "0,0.01"], "caps", [-0.0, 2.0]),
    (["--caps", "2,4", "--probe", "-0.5", "--t-end", "0.01"], "probes",
     [(-0.5, 0.01)]),
])
def test_dash_leading_values_are_values(monkeypatch, flags, key, value):
    scn = _validated_inline(monkeypatch, [*_CAPSTUDY_ARGV, *flags])
    assert scn[key] == value


def test_snapshot_past_t_end_exits_1(tmp_path, capsys):
    assert main(["solve", "--preset", "curvature", "--param", "beta2=1",
                 "--n", "10", "--cap", "2", "--t-end", "0.01", "--snapshots",
                 "0.005,0.02", "--out", str(tmp_path)]) == 1
    assert "snapshot times must lie in [0, t_end" in capsys.readouterr().err


# Rules of make_field, solve and cap_studies that the schema reads at load
# time: (experiment, scenario fields, the same as flags, the key whose line
# the refusal names, message).
_SOLVER_RULES = {
    "caps-decreasing": (
        "capstudy", {"caps": [4.0, 2.0], "probes": [[0.0, 0.01]]},
        ["--caps", "4,2", "--probe", "0,0.01"], "caps",
        "caps must be strictly increasing"),
    "caps-negative": (
        "capstudy", {"caps": [-1.0, 2.0], "probes": [[0.0, 0.01]]},
        ["--caps=-1,2", "--probe", "0,0.01"], "caps",
        "cap must be finite and nonnegative, got -1.0"),
    "probe-outside": (
        "capstudy", {"caps": [2.0, 4.0], "probes": [[3.0, 0.01]]},
        ["--caps", "2,4", "--probe", "3,0.01"], "probes",
        "probe must be interior with a positive finite time"),
    "probe-at-time-0": (
        "capstudy", {"caps": [2.0, 4.0], "probe": [0.0, 0.0]},
        ["--caps", "2,4", "--probe", "0,0"], "probe",
        "probe must be interior with a positive finite time"),
    "cap-negative": (
        "solve", {"cap": -1.0, "t_end": 0.01},
        ["--cap=-1", "--t-end", "0.01"], "cap",
        "cap must be finite and nonnegative, got -1.0"),
    "snapshot-past-t_end": (
        "solve", {"cap": 1.0, "t_end": 0.01, "snapshot_times": [0.02]},
        ["--cap", "1", "--t-end", "0.01", "--snapshots", "0.02"],
        "snapshot_times", "snapshot times must lie in [0, t_end = 0.01]"),
}


@pytest.mark.parametrize("case", sorted(_SOLVER_RULES))
def test_solver_rules_are_refused_at_load_time(tmp_path, capsys,
                                               monkeypatch, case):
    """The schema checks caps, probes, a cap and snapshot times with the
    solver's own rules: the refusal names its line, nothing runs and no
    output directory is made."""
    experiment, fields, flags, anchor, message = _SOLVER_RULES[case]
    monkeypatch.setattr(cli, "solve", _no_run)
    monkeypatch.setattr(cli, "cap_studies", _no_run)
    out = tmp_path / "out"
    assert main([experiment, "--preset", "curvature", "--param", "beta2=1",
                 "--n", "50", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"<inline>:1: {message}\n"
    path = _scenario(tmp_path, dict(_CURV, name="r", experiment=experiment,
                                    n=50, output_dir=str(out), **fields))
    assert main([experiment, "--scenario", str(path)]) == 1
    (line,) = _lines_of(path.read_text(), anchor)
    assert capsys.readouterr().err == f"{path}:{line}: {message}\n"
    assert not out.exists()


def test_dash_leading_solve_values(monkeypatch, capsys):
    base = ["solve", "--preset", "curvature", "--param", "beta2=1", "--n",
            "50", "--t-end", "0.01"]
    scn = _validated_inline(monkeypatch, [*base, "--cap", "3",
                                          "--cap-minus", "-5e-1"])
    assert (scn["cap"], scn["cap_minus"]) == (3.0, -0.5)
    # A negative or non-finite value reaches the schema, which refuses it.
    for flags, message in (
            (["--cap", "-inf"], "'cap' must be a finite number"),
            (["--cap", "-3"], "cap must be finite and nonnegative"),
            (["--cap", "3", "--snapshots", "-0.5,0.01"],
             "snapshot times must lie in [0, t_end = 0.01]")):
        assert _validated_inline(monkeypatch, [*base, *flags]) == 1
        assert f"<inline>:1: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("t_end", [0.1, "abc"])
def test_capstudy_t_end_with_paired_probes_is_refused(tmp_path, capsys,
                                                       t_end):
    doc = dict(_CURV, name="c", experiment="capstudy", n=50,
               caps=[2.0, 4.0], probes=[[0.0, 0.01]], t_end=t_end,
               output_dir=str(tmp_path / "o"))
    path = _scenario(tmp_path, doc)
    line = 1 + next(i for i, text in enumerate(path.read_text().splitlines())
                    if '"t_end":' in text)
    assert main(["capstudy", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:{line}: 't_end' is read only by bare probe" in err
    assert not (tmp_path / "o").exists()

    argv = [*_CAPSTUDY_ARGV, "--caps", "2,4", "--probe", "0,0.01",
            "--t-end", "0.1", "--out", str(tmp_path / "i")]
    assert main(argv) == 1
    assert "<inline>:1: 't_end' is read only" in capsys.readouterr().err


@pytest.mark.parametrize("probes,marches", [
    ([0.0, 0.5, -0.3], [0.05]),
    ([[0.0, 0.02], 0.5, [0.5, 0.02], -0.3], [0.02, 0.05]),
])
def test_capstudy_marches_once_per_probe_time(tmp_path, monkeypatch, probes,
                                              marches):
    march, times = solver._march, []

    def counting(spec, fields, t_end, snapshot_times=None):
        times.append(t_end)
        return march(spec, fields, t_end, snapshot_times)

    monkeypatch.setattr(solver, "_march", counting)
    doc = dict(_CURV, experiment="capstudy", name="m", n=40,
               caps=[2.0, 4.0, 8.0], t_end=0.05, probes=probes,
               output_dir=str(tmp_path / "o"))
    assert main(["capstudy", "--scenario", str(_scenario(tmp_path, doc))]) == 0
    assert times == marches
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert len(report["studies"]) == len(probes)


def test_march_counts_reach_the_log_and_no_artifact(tmp_path, caplog):
    """-vv logs each march's step and block counts; the artifacts of the
    run are byte for byte those of a quiet run."""
    argv = [*_CAPSTUDY_ARGV, "--caps", "2,4,8", "--probe", "0,0.05",
            "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    quiet = {path.name: path.read_bytes()
             for path in (tmp_path / "o").iterdir()}
    for path in (tmp_path / "o").iterdir():
        path.unlink()
    with caplog.at_level("DEBUG", logger="singflow.solver"):
        assert main(["-vv", *argv]) == 0
    assert [rec.getMessage() for rec in caplog.records
            if rec.levelname == "DEBUG"] == [
        "march of 3 rows: 131 steps, 128 committed in blocks, 3 replayed, "
        "0 kernel calls on failed blocks"]
    assert {path.name: path.read_bytes()
            for path in (tmp_path / "o").iterdir()} == quiet
