"""Benchmark worker: imports aggrestab from the checkout and runs workload passes.

Usage: python3 perfbench/worker.py <checkout root>

Protocol, one JSON object per line on stdout: a ready message once aggrestab is
imported and a warm-up LAPACK call has returned, then one result per job read
from stdin. The line `exit` on stdin ends the worker instead. Everything else
the worker or the library prints goes to stderr.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from probes import PROBES, REFERENCE_S
from tracing import Tracer, layer_stats
from workloads import check


def cpu_steal():
    """(steal, total) jiffies summed over all CPUs, from /proc/stat; None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal guest guest_nice; guest
    # time is already counted in user and nice
    return fields[7], sum(fields[:8])


def steal_frac(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_pass(cli, tasks, probe, reference_s, tracer):
    """Run every task once through cli.main; time each call and check its outputs.

    The speed probe runs before the first task and after each one; a task's
    scaled time uses the mean of the two probes around it.
    """
    steal0 = cpu_steal()
    first_span = len(tracer.spans) if tracer else 0
    records = []
    probe_s = [_seconds(probe)]
    with tracer.installed() if tracer else nullcontext():
        for task in tasks:
            argv = [task["command"], "--config", task["config_path"], "--out", task["out"]]
            error = None
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a task failure is counted, not fatal
                code, error = None, repr(exc)
            records.append({"task": task["name"], "seconds": time.perf_counter() - start,
                            "exit": code, "error": error})
            probe_s.append(_seconds(probe))
    steal = steal_frac(steal0, cpu_steal())
    for i, (task, record) in enumerate(zip(tasks, records)):
        record["probe_s"] = 0.5 * (probe_s[i] + probe_s[i + 1])
        record["scaled_s"] = record["seconds"] * reference_s / record["probe_s"]
        problems, refs = check(task) if record["error"] is None else ([record["error"]], {})
        if record["exit"] != task["exit"]:
            problems.insert(0, f"exit code {record['exit']}, expected {task['exit']}")
        record["problems"], record["ref_errs"] = problems, refs
        record["csv_bytes"] = sum(p.stat().st_size for p in Path(task["out"]).glob("*.csv"))
    result = {"wall_s": sum(r["scaled_s"] for r in records),
              "raw_wall_s": sum(r["seconds"] for r in records),
              "traced": tracer is not None, "steal_frac": steal, "tasks": records}
    if tracer:
        result["layers"] = layer_stats(tracer.spans, first_span)
    return result


def run_job(cli, job):
    """Run passes until the next one would end after job['seconds'].

    With tracing, passes alternate untraced and traced, so one run gives the
    per-layer numbers and the tracing overhead.
    """
    tracer = Tracer() if job["trace"] else None
    probe = PROBES[job["workload"]]()
    probe()  # first call pays one-off allocation and library set-up
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(cli, job["tasks"], probe, REFERENCE_S[job["workload"]],
                               tracer if traced else None))
        passes[-1]["elapsed_s"] = time.perf_counter() - pass_start
        typical = statistics.median(p["elapsed_s"] for p in passes)
        need_more = tracer is not None and len(passes) < 2
        if not need_more and time.perf_counter() - start + typical > job["seconds"]:
            break
    if tracer:
        with open(job["spans_path"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "n", "extra"],
                       "spans": tracer.spans}, fh)
    return {"passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> int:
    root = Path(sys.argv[1]).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy

    import aggrestab
    import aggrestab.cli as cli

    if Path(aggrestab.__file__).resolve().parent.parent != src:
        print(f"worker: imported aggrestab from {aggrestab.__file__}, not {src}", file=sys.stderr)
        return 1
    a = np.random.default_rng(0).standard_normal((64, 64))
    np.linalg.eigh(a + a.T)

    proto, sys.stdout = sys.stdout, sys.stderr
    print(json.dumps({"ready": True}), file=proto, flush=True)
    line = sys.stdin.readline()
    if not line or line.strip() == "exit":
        return 0
    result = run_job(cli, json.loads(line))
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result["env"] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "aggrestab": aggrestab.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
