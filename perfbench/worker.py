"""One workload in one fresh process; started by run.py, not by hand.

Imports singflow from the checkout's ``src``, builds the workload from the
seed (the set-up), then runs whole passes of its task list in a closed
loop with one client.  Prints one JSON object on stdout.

With ``--trace 1`` the budget is split: untraced passes first, then one
traced pass, the workload's traced extras, and the reduced task lists of
the other workloads, so that every layer is measured on every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_singflow():
    sys.path.insert(0, str(ROOT / "src"))
    import singflow
    if Path(singflow.__file__).resolve().parent != ROOT / "src" / "singflow":
        raise SystemExit(f"singflow imported from {singflow.__file__}, "
                         f"not from {ROOT / 'src'}")


def run_passes(tasks, budget_s, min_passes, tracer, failures):
    """Whole passes until the next one would end past ``budget_s``.

    Returns (pass walls, pass CPU times, task latencies, attempted, failed).
    """
    walls, cpus, latencies = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        for task in tasks:
            t0 = time.perf_counter()
            with tracer.span(f"task.{task.kind}"):
                try:
                    ok = task.run(tracer)
                    if not ok:
                        failures.append(f"oracle failed: {task.kind}")
                except Exception:   # a raising task fails; the run goes on
                    ok = False
                    failures.append(traceback.format_exc(limit=3))
            latencies.append(time.perf_counter() - t0)
            attempted += 1
            failed += not ok
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        elapsed = time.perf_counter() - start
        if (len(walls) >= min_passes
                and elapsed + statistics.median(walls) > budget_s):
            return walls, cpus, latencies, attempted, failed


def end_to_end(walls, cpus, latencies, attempted, failed):
    latencies = sorted(latencies)
    out = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "task_p50_s": statistics.median(latencies),
        "fail_ratio": failed / attempted,
    }
    # A 90th percentile needs at least ten samples beyond it.
    if len(latencies) >= 100:
        out["task_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if "SINGFLOW_THREADS" in os.environ:
        raise SystemExit("SINGFLOW_THREADS must be unset in the worker")
    _import_singflow()
    import numpy as np
    import scipy
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        # CPU seconds since the interpreter started, which other guests'
        # steal time does not inflate, and the wall time since the spawn.
        setup = {"setup_s": time.process_time(),
                 "setup_wall_s": time.monotonic() - args.spawned_at}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        failures: list = []
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, cpus, lat, attempted, failed = run_passes(
            wl.tasks, budget, wl.min_passes, NullTracer(), failures)
        result = {**setup, "passes": len(walls),
                  "e2e": end_to_end(walls, cpus, lat, attempted, failed),
                  "stats": wl.stats()}
        if args.trace:
            tracer = Tracer()
            _, traced, _, t_att, t_fail = run_passes(
                wl.tasks, 0.0, 1, tracer, failures)
            attempted += t_att
            failed += t_fail
            wl.extras(tracer)
            layers = {}
            for name, cls in WORKLOADS.items():
                if name == args.workload:
                    continue
                probe = cls(args.seed, workdir, small=True)
                *_, p_att, p_fail = run_passes(probe.tasks, 0.0, 1, tracer,
                                               failures)
                attempted += p_att
                failed += p_fail
                probe.extras(tracer)
                layers.update(probe.stats())
            layers.update(wl.stats())
            layers.update(tracer.metrics())
            layers["trace.overhead_ratio"] = traced[0] / statistics.median(
                cpus)
            result["layers"] = layers
            tracer.write(scratch / f"trace-{args.workload}-seed{args.seed}"
                         ".jsonl")
        result["attempted"] = attempted
        result["failed"] = failed
        result["failures"] = failures[:10]
        result["versions"] = {"numpy": np.__version__,
                              "scipy": scipy.__version__}
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
