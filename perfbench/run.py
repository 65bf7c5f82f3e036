"""aggrestab benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {dynamics,stability,kernel_survey} \
        --seed N --seconds S --trace {0,1}

Generates the workload's configs from the seed, spawns fresh worker processes
(see worker.py) to time set-up, and has the last one run the workload's CLI
passes in process for S seconds. Every output is checked. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1. Configs, outputs, the full result record and (traced) the
spans are left under .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from worker import cpu_steal, steal_frac

ROOT = Path(__file__).resolve().parent.parent
SETUP_SPAWNS = 5  # set-up is timed on this many fresh workers; the last one runs the passes
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def spawn_worker(deadline):
    """Start a worker; return (process, its kill timer, seconds until it reported ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "worker.py"), str(ROOT)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.daemon = True
    killer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if not line:
        killer.cancel()
        proc.wait()
        raise BenchError(f"worker exited with code {proc.returncode} before it was ready")
    return proc, killer, ready


def finish(proc, killer, message):
    """Send the worker its last message and wait for it to exit; return its reply."""
    try:
        try:
            proc.stdin.write(message + "\n")
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker has died; its exit code is reported below
        reply = proc.stdout.readline()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return reply


def run_workers(job, deadline):
    setup = []
    for i in range(SETUP_SPAWNS):
        proc, killer, ready = spawn_worker(deadline)
        setup.append(ready)
        if i < SETUP_SPAWNS - 1:
            finish(proc, killer, "exit")
    reply = finish(proc, killer, json.dumps(job))
    if not reply:
        raise BenchError("worker returned no result")
    return setup, json.loads(reply)


def end_to_end(result, setup):
    passes = [p for p in result["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in passes]
    tasks = [t for p in result["passes"] for t in p["tasks"]]
    refs = [v for t in tasks for v in t["ref_errs"].values()]
    failed = sum(1 for t in tasks if t["problems"])
    metrics = {
        "wall_s": statistics.median(walls),
        # a run holds at most a dozen passes, too few for any percentile to
        # have 10 samples beyond it, so the tail is the slowest pass
        "wall_tail_s": max(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (len(tasks) - failed) / len(tasks),
        # with no reference checked at all, count a 100% error
        "ref_err": max(refs, default=1.0),
    }
    notes = {"wall_s": f"unscaled median {statistics.median(p['raw_wall_s'] for p in passes):.4f} s",
             "wall_tail_s": f"slowest of {len(walls)} passes",
             "setup_s": f"median of {len(setup)} spawns"}
    return metrics, notes


def per_layer(result, names):
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    metrics = {}
    for name in names:
        if name == "trace.overhead_frac":
            value = (statistics.median(p["wall_s"] for p in traced)
                     / statistics.median(p["wall_s"] for p in untraced) - 1.0)
        elif name == "cli.csv_bytes":
            value = statistics.median(sum(t["csv_bytes"] for t in p["tasks"]) for p in traced)
        else:
            value = statistics.median(p["layers"].get(name, 0.0) for p in traced)
        metrics[name] = value
    notes = {"trace.overhead_frac": f"{len(traced)} traced, {len(untraced)} untraced passes"}
    return metrics, notes


def git_commit():
    """HEAD of the checkout's .git, read directly; None when it is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(worker_env, steal):
    return {
        **worker_env,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "cpu_steal_frac": steal,
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "aggrestab" / "cli.py").is_file():
        print(f"run.py: no aggrestab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    job = {"workload": args.workload,
           "tasks": workloads.build(args.workload, args.seed, run_dir),
           "seconds": args.seconds, "trace": bool(args.trace),
           "spans_path": str(run_dir / "spans.json")}

    steal0 = cpu_steal()
    try:
        setup, result = run_workers(job, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    env = environment(result.pop("env"), steal_frac(steal0, cpu_steal()))

    if args.trace:
        values, notes = per_layer(result, [m["name"] for m in declared])
    else:
        values, notes = end_to_end(result, setup)
    tasks = [t for p in result["passes"] for t in p["tasks"]]
    failed = [t for t in tasks if t["problems"]]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_s": setup, "notes": notes,
              "metrics": metrics, **result}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    for task in job["tasks"]:
        times = [t["seconds"] for p in result["passes"] if not p["traced"]
                 for t in p["tasks"] if t["task"] == task["name"]]
        print(f"task {task['name']}: median {statistics.median(times):.4f} s over {len(times)} passes")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}"
              + (f" ({notes[name]})" if name in notes else ""))
    for t in failed[:10]:
        print(f"FAILED {t['task']}: {'; '.join(t['problems'])}")
    print(json.dumps({"correct": not failed, "attempted": len(tasks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
