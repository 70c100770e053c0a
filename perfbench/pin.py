"""Rewrite expected.json from the current program.

    python3 perfbench/pin.py [WORKLOAD ...]

Run from the root of a checkout.  Runs pass 0 of seed 1 of each named
workload (all by default) and pins the summary of every job output and
the digest of every built input.  Only re-pin after a change whose new
outputs have been checked by other means; the pins are what makes a
faster but wrong program fail the benchmark.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def main(names):
    try:
        with open(PATH) as f:
            pinned = json.load(f)
    except FileNotFoundError:
        pinned = {}
    for name in names or workloads.WORKLOADS:
        jobs, inputs = workloads.build(name, 1, 0)
        pinned[name] = {
            "inputs": inputs,
            "jobs": {job.name: job.summarize(job.run()) for job in jobs},
        }
        print("pinned", name, file=sys.stderr)
    with open(PATH, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
