"""plmarkov benchmark runner.

    python3 perfbench/run.py --workload recognition|pipeline|census \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports plmarkov from ``src/``.
Every pass of a workload's job list runs in a fresh process (worker.py),
one after another: a closed loop with one client.  Passes are started
while the next one still fits in ``--seconds``; at least three run.

--trace 0 prints the end-to-end metrics: the median CPU seconds of a
pass, the median set-up time (CPU seconds from process start until the
inputs are built; five extra set-up-only processes make at least seven
samples), both at reference speed (see worker.py), and the median peak
resident memory of the pass processes.  Raw CPU and wall times go to
the run record.

--trace 1 alternates untraced and traced passes of the same inputs and
prints the per-layer metrics of the traced passes (layers.py) plus
``bench.untraced_wall_s`` and ``bench.trace_overhead_frac``.  Counts
must repeat exactly between the traced passes.

The last line of stdout is the result; the line before it is the run
record (nproc, Python version, commit, seed, load average, every pass).
The record is also written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from statistics import median

import layers

ROOT = os.getcwd()
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORKLOADS = ("recognition", "pipeline", "census")
SETUP_ONLY_PROCESSES = 5
MIN_PASSES = 3
RUN_LIMIT_S = 170.0


def _commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" without one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "plmarkov", "*.py"))):
        with open(path, "rb") as f:
            h.update(os.path.basename(path).encode() + b"\0" + f.read())
    return h.hexdigest()


def run_process(workload, seed, pass_index, trace, setup_only, deadline):
    """One worker process; returns its set-up time, peak RSS and result."""
    cmd = [sys.executable, WORKER, workload, str(seed), str(pass_index), str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_wall_s = time.perf_counter() - start
        tail = proc.stdout.read().strip().splitlines()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    out = {"pass": pass_index, "trace": trace, "setup_wall_s": setup_wall_s,
           "rss_mb": usage.ru_maxrss / 1024.0,
           "elapsed_s": time.perf_counter() - start, "exit": proc.returncode}
    if ready.strip() != "ready" or proc.returncode != 0:
        out["error"] = "worker exited %d before finishing" % proc.returncode
        return out
    try:
        out.update(json.loads(tail[-1]))
    except (IndexError, ValueError):
        out["error"] = "worker printed no result"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "plmarkov", "__init__.py")):
        print("run.py: no src/plmarkov here; run it from the root of a plmarkov checkout",
              file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(),
              "python": platform.python_version(), "commit": _commit(),
              "src_sha256": _source_digest(), "loadavg_1m": os.getloadavg()[0]}
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    procs = []

    def spawn(pass_index, trace=False, setup_only=False):
        p = run_process(args.workload, args.seed, pass_index, trace, setup_only, deadline)
        procs.append(p)
        return p

    def fits(cost):
        return time.perf_counter() - start + cost <= args.seconds

    if args.trace:
        # untraced and traced passes of the same inputs, in pairs
        while True:
            pair = [spawn(0), spawn(0, trace=True)]
            if any("error" in p for p in pair):
                break
            if not fits(sum(p["elapsed_s"] for p in pair)):
                break
    else:
        for i in range(SETUP_ONLY_PROCESSES):
            spawn(i, setup_only=True)
        passes = 0
        while True:
            p = spawn(passes)
            passes += 1
            if "error" in p:
                break
            if passes >= MIN_PASSES and not fits(max(q["elapsed_s"] for q in procs)):
                break

    runs = [p for p in procs if "jobs" in p]
    attempted = sum(len(p["jobs"]) for p in runs) + sum(1 for p in procs if "error" in p)
    failed = (sum(1 for p in runs for j in p["jobs"] if j["error"])
              + sum(1 for p in procs if "error" in p))
    problems = [p["error"] for p in procs if "error" in p]
    problems += ["pass %d, %s: %s" % (p["pass"], j["name"], j["error"])
                 for p in runs for j in p["jobs"] if j["error"]]

    plain = [p for p in runs if not p["trace"]]
    traced = [p for p in runs if p["trace"]]
    if not plain or (args.trace and not traced):
        print("run.py: no pass completed: %s" % "; ".join(problems), file=sys.stderr)
        return 1
    if args.trace:
        names = list(traced[0]["layers"])
        counts = [{k: v for k, v in p["layers"].items() if not k.endswith("_s")}
                  for p in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("layer counts differ between traced passes of the same inputs")
        # counts repeat exactly; times are medians
        values = {k: median([p["layers"][k] for p in traced]) if k.endswith("_s")
                  else traced[0]["layers"][k] for k in names}
        untraced_wall = median([p["wall_s"] for p in plain])
        values["bench.untraced_wall_s"] = untraced_wall
        values["bench.trace_overhead_frac"] = (
            median([p["wall_s"] for p in traced]) - untraced_wall) / untraced_wall
        metrics = {k: {"value": v, "unit": layers.unit_of(k)} for k, v in values.items()}
    else:
        metrics = {
            "cpu_s": {"value": median([p["cpu_s"] for p in plain]), "unit": "s"},
            "setup_s": {"value": median([p["setup_s"] for p in procs if "setup_s" in p]),
                        "unit": "s"},
            "peak_rss_mb": {"value": median([p["rss_mb"] for p in plain]), "unit": "MB"},
        }

    record.update(attempted=attempted, failed=failed,
                  fail_frac="%d failed of %d jobs attempted" % (failed, attempted),
                  problems=problems, processes=procs, metrics=metrics)
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"record": {k: record[k] for k in (
        "workload", "seed", "nproc", "python", "commit", "src_sha256", "loadavg_1m",
        "fail_frac", "problems")}}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
