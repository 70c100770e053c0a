"""One fresh process of a benchmark run: set up, run one pass, check it.

    python3 perfbench/worker.py WORKLOAD SEED PASS TRACE [--setup-only]

Started by ``run.py`` from the root of a checkout.  It prints ``ready``
once the inputs are built, then (unless ``--setup-only``) runs the
pass's jobs one after another, checks every output against
``expected.json`` outside the timed part, and prints one JSON line.
With TRACE 1 the layer wrappers are installed before set-up, and the
spans are written to ``.perfbench/spans-WORKLOAD.tsv.gz``.

CPU times are also reported at reference speed: each is scaled by
``CAL_REF_S`` over the time a fixed piece of Python work (``_calibrate``)
took just before and just after it.  On a shared virtual machine the
speed of a CPU changes by up to 2x within minutes; the scaled figures
keep what the program costs and drop most of that drift.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

# _calibrate() CPU seconds on the machine the bounds were set on, in its
# fast state; scaled times are CPU seconds on that machine
CAL_REF_S = 0.05


def _cpu_s() -> float:
    """CPU seconds of this process, its threads and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _calibrate() -> float:
    """CPU seconds of fixed work like plmarkov's inner loops: hashing
    small frozensets into a dict and sorting it.  Uses about 1 MB."""
    start = time.process_time()
    for _ in range(8):
        seen = {}
        for i in range(5000):
            f = frozenset((i, i * 7 % 4999, i * 13 % 4993))
            seen[f] = seen.get(f, 0) + 1
        sorted(seen, key=sorted)
    return time.process_time() - start


def _scaled(cpu: float, cal_before: float, cal_after: float) -> float:
    return cpu * CAL_REF_S * 2 / (cal_before + cal_after)


def _normal(obj):
    return json.loads(json.dumps(obj))


def main(argv):
    workload, seed, pass_index, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv
    cal = _calibrate()

    import plmarkov
    if not os.path.abspath(plmarkov.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit("plmarkov was not imported from %s/src" % ROOT)
    import layers
    rec = patches = None
    if trace:
        rec = layers.Recorder()
        patches = layers.install(rec)
    import workloads
    jobs, inputs = workloads.build(workload, seed, pass_index)
    setup_cpu = _cpu_s() - cal
    print("ready", flush=True)
    cal_after = _calibrate()
    result = {"setup_cpu_s": setup_cpu, "setup_s": _scaled(setup_cpu, cal, cal_after)}
    if setup_only:
        print(json.dumps(result), flush=True)
        return

    outputs, times, errors = [], [], []
    cpu = scaled = 0.0
    for job_id, job in enumerate(jobs, 1):
        if rec is not None:
            rec.job = job_id
        t, c = time.perf_counter(), _cpu_s()
        try:
            outputs.append(job.run())
            errors.append(None)
        except Exception as e:  # a failed job is counted, the pass goes on
            outputs.append(None)
            errors.append("%s: %s" % (type(e).__name__, e))
        c = _cpu_s() - c
        times.append(time.perf_counter() - t)
        cal, cal_after = cal_after, _calibrate()
        cpu += c
        scaled += _scaled(c, cal, cal_after)
    result.update(wall_s=sum(times), cpu_raw_s=cpu, cpu_s=scaled)

    if rec is not None:
        layers.uninstall(patches)
        result["layers"] = layers.layer_metrics(rec)
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        rec.write(os.path.join(ROOT, ".perfbench", "spans-%s.tsv.gz" % workload))

    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)[workload]
    jobs_out = []
    for job, out, t, err in zip(jobs, outputs, times, errors):
        # a changed input (say, a smaller construction) fails its job
        if job.name in inputs and inputs[job.name] != expected["inputs"].get(job.name):
            err = "input digest %s differs from the pinned one" % inputs[job.name][:12]
        if err is None:
            try:
                got = _normal(job.summarize(out))
            except Exception as e:  # a check that cannot run fails the job
                err = "summary failed: %s: %s" % (type(e).__name__, e)
            else:
                if got != expected["jobs"].get(job.name):
                    err = "output differs from expected: %s" % json.dumps(got)
        jobs_out.append({"name": job.name, "s": t, "error": err})
    result["jobs"] = jobs_out
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
