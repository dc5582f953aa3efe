"""singflow benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process with SINGFLOW_THREADS removed from its environment, so the
program's default pool path is what gets measured.  Set-up cost is the
median over that worker and extra fresh processes that only set up.

The last stdout line is the result object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which hold exactly the metrics BENCHMARK.json
declares (``end_to_end`` with ``--trace 0``, ``per_layer`` with
``--trace 1``).  The line before it is a report: machine and library
versions, the pass count, the set-up samples, the first failures if any,
and under ``end_to_end`` every end-to-end metric of the run with its unit,
the gated ones and those that are not: ``wall_s``, ``setup_wall_s``,
``fail_ratio``, ``inconclusive_ratio`` (cap_ladder), ``task_p50_s`` and
``task_p90_s`` (runs with at least 100 tasks).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 175.0
# Every end-to-end metric a run measures, gated in BENCHMARK.json or not.
# task_p90_s needs at least 100 tasks in the run; inconclusive_ratio exists
# on cap_ladder only.
E2E_UNITS = {"setup_s": "s", "setup_wall_s": "s", "wall_s": "s",
             "cpu_s": "s", "task_p50_s": "s", "task_p90_s": "s",
             "fail_ratio": "1", "inconclusive_ratio": "1",
             "peak_rss_mb": "MB"}


def machine() -> dict:
    """nproc, CPU model, cache sizes and library versions of this run."""
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        info["cpu_model"] = platform.processor() or "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            info[f"L{level}_per_instance"] = size
    return info


def spawn(args, env, extra, deadline):
    """Run the worker to completion, killing it at ``deadline``
    (time.monotonic()); returns its JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at",
           repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "singflow" / "__init__.py").is_file():
        print(f"no singflow sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = {k: v for k, v in os.environ.items() if k != "SINGFLOW_THREADS"}
    setups = [spawn(args, env, ["--setup-only"], deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(args, env, [], deadline)
    setups.append(res)

    e2e = dict(res["e2e"], **res["stats"])
    for key in ("setup_s", "setup_wall_s"):
        e2e[key] = statistics.median(s[key] for s in setups)
    e2e["peak_rss_mb"] = res["peak_rss_mb"]
    if args.trace:
        values, declared = res["layers"], bench["per_layer"]
    else:
        values, declared = e2e, bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"worker did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": dict(machine(), **res["versions"]),
              "SINGFLOW_THREADS": "unset", "passes": res["passes"],
              "setup_samples_s": [s["setup_s"] for s in setups],
              "end_to_end": {k: {"value": e2e[k], "unit": unit}
                             for k, unit in E2E_UNITS.items() if k in e2e},
              "failures": res["failures"]}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": res["failed"] == 0 and finite,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
