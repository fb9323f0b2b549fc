#!/usr/bin/env python3
"""Self-test of the benchmark at tiny fixture size.

    python3 perfbench/selftest.py

For every workload, in both modes, it checks that each metric named in
BENCHMARK.json is printed with its unit and direction and lands in the
result line.  Then it hands the oracle check a deliberately wrong
reference and checks that the run fails instead of reporting numbers.
Exits 0 when every check holds.
"""

import contextlib
import io
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FAILURES = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        FAILURES.append(what)


def bench(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds",
                         "1", "--trace", str(trace), "--tiny"])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def wrong(_workload, reference):
    # Any change to the reference must trip the check: bump the first
    # number in it (a stats count or a grid-cell count).
    return re.sub(r"\d+", lambda m: str(int(m.group(0)) + 1), reference,
                  count=1)


def main():
    for workload in run.WORKLOADS:
        for trace, key, label in ((0, "end_to_end", "metric"),
                                  (1, "per_layer", "layer")):
            code, lines, res = bench(workload, trace)
            what = "%s --trace %d" % (workload, trace)
            check(code == 0 and res["correct"] and res["failed"] == 0,
                  what + ": correct against the oracle")
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  what + ": result line has exactly its four keys")
            specs = run.SPEC[key]
            check(sorted(res["metrics"]) == sorted(s["name"] for s in specs),
                  what + ": reports exactly the %s metrics" % key)
            for s in specs:
                got = res["metrics"].get(s["name"], {})
                pattern = r"# %s %s = \S+ %s \(%s is better" % (
                    label, re.escape(s["name"]), re.escape(s["unit"]),
                    s["better"])
                check(got.get("unit") == s["unit"]
                      and any(re.match(pattern, l) for l in lines),
                      what + ": %s printed with unit and direction" % s["name"])

    run.REFERENCE_HOOK = wrong
    try:
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                code, _, res = bench(workload, trace)
                check(code != 0 and not res["correct"] and res["failed"] > 0
                      and res["metrics"] == {},
                      "%s --trace %d: a wrong reference fails the run"
                      % (workload, trace))
    finally:
        run.REFERENCE_HOOK = None

    print("%d check(s) failed" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
