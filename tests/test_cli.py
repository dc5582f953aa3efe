"""Command line front end: schema anchoring, exit codes, artifacts."""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import pytest

from singflow import ScenarioError
from singflow.cli import main, run, validate_scenario


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
    with pytest.raises(ScenarioError, match="needs parameters"):
        validate_scenario(doc)


def test_validate_rejects_bounded_datum_declared_divergent():
    doc = {"name": "x", "experiment": "classify", "output_dir": "o",
           "preset": "curvature", "params": {"beta2": 1.0},
           "u0": {"class": "B2",
                  "spec": {"kind": "constant", "value": 1.0}}}
    with pytest.raises(ScenarioError, match="use class B1"):
        validate_scenario(doc)


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
    assert "unknown parameter 'zeta'" in capsys.readouterr().err


def test_subcommand_scenario_mismatch_exits_1(tmp_path, capsys):
    path = _scenario(tmp_path, _classify_doc(tmp_path / "out"))
    assert main(["wave", "--scenario", str(path)]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_run_api_uses_file_experiment(tmp_path):
    out = tmp_path / "out"
    path = _scenario(tmp_path, _classify_doc(out))
    assert run(path) == 0
    assert (out / "manifest.json").exists()


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


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "singflow.cli", "classify", "--preset",
         "curvature", "--param", "beta2=1", "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "classify" in proc.stdout


def test_import_leaves_scipy_solvers_unloaded():
    """scipy.optimize and scipy.integrate are most of the import cost; only
    the code that calls them imports them."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, singflow, singflow.cli; print(sorted(m for m in "
         "('scipy.optimize', 'scipy.integrate') if m in sys.modules))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
