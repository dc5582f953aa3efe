"""Self-test of the benchmark: every workload at its smallest size.

    python3 perfbench/selftest.py

Runs run.py with ``--seconds 1`` (one pass; two for lab_session) on every
workload, untraced and traced, and checks that the result line has exactly
the contract keys and exactly the metrics BENCHMARK.json declares, each
with its unit; that the report line carries every end-to-end metric of the
workload with its unit, gated or not; that every oracle held
(``fail_ratio`` = 0); that cap_ladder reads ``inconclusive_ratio`` = 1/5 at
the seed; and that run.py refuses to run, printing no result, in a
directory holding only BENCHMARK.json and the benchmark.  Takes about five
minutes on 2 vCPUs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# End-to-end metrics every run reports, with those only some workloads have.
E2E_NAMES = ("setup_s", "wall_s", "cpu_s", "task_p50_s", "fail_ratio",
             "peak_rss_mb")
E2E_EXTRA = {"cap_ladder": {"inconclusive_ratio"},
             "certify": {"task_p90_s"}, "wave_profiles": {"task_p90_s"}}


def run(cwd, workload, trace):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc


def check_workload(bench, workload, trace, errors):
    before = len(errors)
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                      f"{sorted(set(got.items()) ^ set(want.items()))}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']} {report['failures']}")
    e2e = report["end_to_end"]
    names = set(E2E_NAMES) | {m["name"] for m in bench["end_to_end"]}
    names |= E2E_EXTRA.get(workload, set())
    unitless = sorted(n for n in names if not e2e.get(n, {}).get("unit"))
    if unitless:
        errors.append(f"{where}: report lacks end-to-end metrics {unitless}")
    value = {n: m["value"] for n, m in e2e.items()}
    if value.get("fail_ratio") != 0.0:
        errors.append(f"{where}: fail_ratio {value.get('fail_ratio')}")
    if report.get("SINGFLOW_THREADS") != "unset":
        errors.append(f"{where}: SINGFLOW_THREADS not recorded as unset")
    if workload == "cap_ladder" and value.get("inconclusive_ratio") != 0.2:
        errors.append(f"{where}: inconclusive_ratio "
                      f"{value.get('inconclusive_ratio')}, expected 0.2")
    print(f"{where}:", "ok" if len(errors) == before else "FAIL", flush=True)


def check_bare_directory(bench, errors):
    """Only BENCHMARK.json and the benchmark's paths: must fail, no result."""
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("bare directory: run.py did not refuse to run")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list = []
    check_bare_directory(bench, errors)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_workload(bench, workload, trace, errors)
    for line in errors:
        print("FAIL", line)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
