#!/usr/bin/env python3
"""Self-test of the benchmark program.

    python3 perfbench/selftest.py

Run from the root of a checkout. It smoke-runs every workload at a tiny
frame size and checks that each prints exactly the metrics BENCHMARK.json
declares, all finite, with every output correct; runs one traced workload
the same way; shows that one flipped output byte is counted as a failure,
on the frame path and on the serving path. Exit status 0 when every check
passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args):
    p = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    failures = []

    def check(label, ok):
        print(("ok    " if ok else "FAIL  ") + label, flush=True)
        if not ok:
            failures.append(label)

    def smoke(workload, trace):
        rc, r = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--tiny"])
        label = "%s --trace %d" % (workload, trace)
        check(label + " exits 0 with a result", rc == 0 and r is not None)
        if r is None:
            return
        check(label + " outputs correct", r["correct"] and r["failed"] == 0
              and r["attempted"] > 0)
        check(label + " prints the declared metrics",
              list(r["metrics"]) == declared[trace])
        check(label + " metrics are finite",
              all(math.isfinite(m["value"]) for m in r["metrics"].values()))
        if trace == 0:
            check(label + " end-to-end metrics are nonzero",
                  all(m["value"] > 0 for m in r["metrics"].values()))

    for w in [w["name"] for w in spec["workloads"]]:
        smoke(w, 0)
    smoke("vm_frames", 1)

    for w in ("vm_frames", "serve_mixed"):
        rc, r = run(["--workload", w, "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--tiny", "--inject-fault"])
        check(w + " counts one flipped output byte as one failure",
              rc == 0 and r is not None and r["failed"] == 1
              and not r["correct"])

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
