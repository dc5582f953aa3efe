"""Command line front end: schema anchoring, exit codes, artifacts."""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys

import pytest

from singflow import ScenarioError, cli
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


# ---------------------------------------------------------------------------
# the schema table: inline flags, file keys and artifacts agree
# ---------------------------------------------------------------------------

_CURV = {"preset": "curvature", "params": {"beta2": 1.0}}
_HEAT = {"preset": "p_heat", "params": {"p": 2.0, "beta1": 1.0, "eps": 0.1}}
_POLY = {"class": "B1", "spec": {"kind": "poly", "coeffs": [0.5, 0.0, -0.5]}}
_PSI_B3 = {"class": "B3", "spec": {"kind": "psi", "gamma_plus": 0.5,
                                   "gamma_minus": 0.5, "d_plus": 1.0,
                                   "d_minus": 1.0}}

# sha256 over the names and bytes of report.json and the CSVs (manifest.json
# records library versions), recorded before the CLI was driven by one
# schema table.
PINNED_ARTIFACTS = {
    "classify_b3": (
        dict(_CURV, experiment="classify", u0=_PSI_B3),
        "bb299d8bd0f5dc422c4614dbd01fc101bd6eb6ab22881ec22d8d18418911cd66"),
    "wave_arctan": (
        dict(_CURV, experiment="wave", b=1.5707963267948966, n_grid=256,
             w0=0.5),
        "dbc1c8b6ffe9cb3b174bece4ab9160bbf70d0c47fa262c85ba320e8983615047"),
    "barrier_uk": (
        dict(_CURV, experiment="barrier", family="uk", k=100.0, samples=2000,
             seed=7),
        "6401284113fce8c9263baf59336d7bb4d850ac63f71bc854e124b6f4b56439d3"),
    "barrier_vL": (
        dict(_HEAT, experiment="barrier", family="vL", L=100.0, samples=2000,
             seed=5),
        "aa18915078048b07f001357e775c69976e18e8178c0836471523c74710f035c8"),
    "barrier_super": (
        dict(_HEAT, experiment="barrier", family="super",
             params={"p": 2.0, "beta1": 0.5, "eps": 0.1}, L0=3.0, nu=1e4,
             samples=2000, seed=3),
        "de0ad3acf1904ce4167f2f0634bfe91f5348e2696b1e03b2a1f927c738356369"),
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
    monkeypatch.setattr(cli, "cap_study", _no_run)
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
