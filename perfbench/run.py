#!/usr/bin/env python3
"""File-to-verdict benchmark for PIFT.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds `pift` and the
benchmark's own OCaml half (perfbench/pbench.ml) from source with dune,
records the workload's fixtures from the seed (outside every timed
region), and then either

  --trace 0  drives the real program for S seconds and reports the
             end-to-end metrics of BENCHMARK.json, or
  --trace 1  runs a separate traced pass that splits the wall clock
             into per-layer self times (the per_layer metrics).

Every output is checked against an oracle computed by isolated replay on
a one-bit-per-byte store.  Comment lines ('# ...') describe the machine,
the fixtures and each metric; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A mismatch,
dropped item or non-zero exit makes the run fail (exit 1) instead of
reporting numbers.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "dune")
PIFT = os.path.join(BUILD, "default", "bin", "pift_cli.exe")
PBENCH = os.path.join(BUILD, "default", "perfbench", "pbench.exe")

# Workloads (with why each was chosen) and metric names, units and
# directions are defined once, in BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}

SETUP_REPEATS = 15
MIN_ITERATIONS = 3

# Hook for the self-test: it replaces this to hand the check a wrong
# reference and confirm the check trips.
REFERENCE_HOOK = None


def log(msg):
    print("# " + msg, flush=True)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is not a PIFT source checkout (no %s)" % (ROOT, need))
    env = dict(os.environ)
    if shutil.which("dune") is None:
        # Not on PATH: use an opam switch's toolchain if there is one.
        switches = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        if not switches:
            fail("dune is not installed")
        env["PATH"] = os.path.dirname(switches[-1]) + os.pathsep + env["PATH"]
    os.makedirs(os.path.dirname(BUILD), exist_ok=True)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
           "--profile", "release", "./bin/pift_cli.exe",
           "./perfbench/pbench.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed", 1)


def digest(path):
    h = hashlib.sha1()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_rev():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                            "HEAD"], capture_output=True, text=True)
        top, _, rev = r.stdout.strip().partition("\n")
        if r.returncode == 0 and os.path.realpath(top) == os.path.realpath(ROOT):
            return rev
    except OSError:
        pass
    # Not a git checkout: name the sources by their content instead.
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        p = os.path.join(ROOT, top)
        files = [p] if os.path.isfile(p) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(p) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            h.update(digest(f).encode())
    return "tree-sha1:" + h.hexdigest()


def machine(seed):
    info = json.loads(subprocess.run([PBENCH, "info"], capture_output=True,
                                     text=True, check=True).stdout)
    nproc = len(os.sched_getaffinity(0))
    info.update({"nproc": nproc, "git_rev": source_rev(), "seed": seed,
                 "meaningful": info["domains"] <= nproc})
    return info


def fixtures(workload, seed, tiny):
    """Record the workload's inputs once per seed (cached by the
    benchmark binary's digest, so a rebuilt generator re-records)."""
    key = "%s-%d%s-%s" % (workload, seed, "-tiny" if tiny else "",
                          digest(PBENCH)[:12])
    base = os.path.join(WORK, "fixtures")
    d = os.path.join(base, key)
    if not os.path.exists(os.path.join(d, "config.json")):
        os.makedirs(base, exist_ok=True)
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        cmd = [PBENCH, "gen", workload, str(seed), tmp] + (["tiny"] if tiny else [])
        subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
        # Keep the cache small: the newest few fixture sets per workload.
        old = sorted((os.path.getmtime(os.path.join(base, k)), k)
                     for k in os.listdir(base)
                     if k.startswith(workload + "-") and k != key)
        for _, k in old[:-2]:
            shutil.rmtree(os.path.join(base, k), ignore_errors=True)
    with open(os.path.join(d, "config.json")) as f:
        cfg = json.load(f)
    with open(os.path.join(d, "reference.txt")) as f:
        reference = f.read()
    if REFERENCE_HOOK is not None:
        reference = REFERENCE_HOOK(workload, reference)
    return d, cfg, reference


def spawn(cmd, out_path, err_path):
    """Run to completion; returns (wall s, cpu s, peak RSS MiB, exit code)."""
    with open(out_path, "wb") as o, open(err_path, "wb") as e:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=o, stderr=e, cwd=WORK)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, p.returncode


def split_blocks(text, head):
    blocks, cur = [], None
    for line in text.splitlines(keepends=True):
        if line.startswith(head):
            cur = [line]
            blocks.append(cur)
        elif cur is not None:
            cur.append(line)
    return ["".join(b) for b in blocks]


def mismatches(got, reference, head):
    """(attempted, failed): one unit per tenant block or grid cell."""
    want = split_blocks(reference, head)
    have = split_blocks(got, head)
    bad = sum(1 for i, w in enumerate(want) if i >= len(have) or have[i] != w)
    return len(want), bad + max(0, len(have) - len(want))


def dropped(stderr_text):
    for line in stderr_text.splitlines():
        if line.startswith("engine:") and line.rstrip().endswith("dropped"):
            return int(line.split(",")[-1].split()[0])
    return 0


def serve_cmd(cfg, d, files):
    cmd = [PIFT] + cfg["serve_args"]
    if cfg["snapshots"]:
        snap = os.path.join(WORK, "snapshots")
        shutil.rmtree(snap, ignore_errors=True)
        os.makedirs(snap)
        cmd += ["--snapshot-dir", snap]
    return cmd + [os.path.join(d, f) for f in files]


def listed(d):
    with open(os.path.join(d, "fixtures.txt")) as f:
        return [l.split()[1] for l in f if l.startswith("file ")]


def measure_serve(d, cfg, reference, seconds):
    out, err = os.path.join(WORK, "serve.out"), os.path.join(WORK, "serve.err")
    files = listed(d)
    runs, attempted, failed = [], 0, 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(runs) < MIN_ITERATIONS:
        wall, cpu, rss, code = spawn(serve_cmd(cfg, d, files), out, err)
        with open(out) as f:
            got = f.read()
        with open(err) as f:
            errs = f.read()
        a, bad = mismatches(got, reference, "tenant ")
        if code != 0 or dropped(errs) > 0:
            bad = a
            sys.stderr.write(errs)
        attempted += a
        failed += bad
        runs.append((wall, cpu, rss))
    return runs, attempted, failed


def measure_sweep(d, reference, seconds):
    out, err = os.path.join(WORK, "sweep.out"), os.path.join(WORK, "sweep.err")
    _, _, rss, code = spawn([PBENCH, "sweep-run", d, repr(float(seconds))],
                            out, err)
    runs, attempted, failed, cells = [], 0, 0, None
    with open(out) as f:
        for line in f:
            r = json.loads(line)
            cells = r.get("cells", cells)
            a, bad = mismatches(cells, reference, "cell ")
            attempted += a
            failed += bad if code == 0 else a
            runs.append((r["wall"], r["cpu"], rss))
    if code != 0 or not runs:
        with open(err) as f:
            sys.stderr.write(f.read())
        attempted, failed = max(attempted, 1), max(attempted, 1)
    return runs, attempted, failed


def setup_time(workload, d, cfg):
    """Median wall of the same invocation over zero events: process and
    runtime start, domain spawn, opening and header-parsing every input."""
    out, err = os.path.join(WORK, "setup.out"), os.path.join(WORK, "setup.err")
    walls = []
    for _ in range(SETUP_REPEATS):
        if workload == "sweep-grid":
            cmd = [PBENCH, "sweep-run", d, "0"]
        else:
            cmd = serve_cmd(cfg, os.path.join(d, "empty"), listed(d))
        wall, _, _, code = spawn(cmd, out, err)
        if code != 0:
            with open(err) as f:
                sys.stderr.write(f.read())
            return None
        walls.append(wall)
    return statistics.median(walls)


def untraced(workload, d, cfg, reference, seconds):
    if workload == "sweep-grid":
        return measure_sweep(d, reference, seconds)
    return measure_serve(d, cfg, reference, seconds)


def result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny fixtures (self-test only; not a measurement)")
    a = ap.parse_args(argv)

    build()
    os.makedirs(WORK, exist_ok=True)
    m = machine(a.seed)
    d, cfg, reference = fixtures(a.workload, a.seed, a.tiny)
    m.update({"workload": a.workload, "fixtures": cfg["fixtures"],
              "fixture_events": cfg["fixture_events"],
              "fixture_bytes": cfg["fixture_bytes"],
              "events_per_pass": cfg["events_per_pass"]})
    log("machine " + json.dumps(m))
    log("why: " + WORKLOADS[a.workload])
    for s in cfg["sizes"]:
        log("fixture %s: %d events, %d bytes" % (s["name"], s["events"], s["bytes"]))
    if not m["meaningful"]:
        log("NOT MEANINGFUL: the workload runs %d domains on %d core(s)"
            % (m["domains"], m["nproc"]))

    if a.trace == 0:
        runs, attempted, failed = untraced(a.workload, d, cfg, reference,
                                           a.seconds)
        setup = setup_time(a.workload, d, cfg)
        if setup is None:
            failed += 1
        log("checked %d outputs against the oracle: %d failed, error_rate %.6f"
            % (attempted, failed, failed / max(1, attempted)))
        if failed:
            return result(False, attempted, failed, {})
        values = {
            "events_per_s": statistics.median(
                cfg["events_per_pass"] / w for w, _, _ in runs),
            "cpu_s": statistics.median(c for _, c, _ in runs),
            "peak_rss_mb": statistics.median(r for _, _, r in runs),
            "setup_s": setup,
        }
        log("%d iterations" % len(runs))
        metrics = {}
        for spec in SPEC["end_to_end"]:
            name, unit = spec["name"], spec["unit"]
            log("metric %s = %.6g %s (%s is better; bound %g)"
                % (name, values[name], unit, spec["better"], spec["bound"]))
            metrics[name] = {"value": values[name], "unit": unit}
        log("metric error_rate = %.6g share (lower is better)"
            % (failed / max(1, attempted)))
        return result(True, attempted, failed, metrics)

    # Traced run: a short untraced reference for the tracing overhead,
    # then the layer-split pass itself.
    runs, attempted, failed = untraced(a.workload, d, cfg, reference,
                                       a.seconds / 3.0)
    plain = statistics.median(cfg["events_per_pass"] / w for w, _, _ in runs)
    for old in os.listdir(d):
        if old.startswith("trace-"):
            os.remove(os.path.join(d, old))
    r = subprocess.run([PBENCH, "trace", a.workload, d,
                        repr(a.seconds * 2.0 / 3.0)],
                       capture_output=True, text=True, cwd=WORK)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        return result(False, attempted + 1, failed + 1, {})
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    traced = json.loads(lines[-1])
    head = "cell " if a.workload == "sweep-grid" else "tenant "
    for leg in sorted(os.listdir(d)):
        if leg.startswith("trace-") and leg.endswith(".txt"):
            with open(os.path.join(d, leg)) as f:
                at, bad = mismatches(f.read(), reference, head)
            attempted += at
            failed += bad
    dropped_items = int(traced["metrics"]["engine.dropped"]["value"])
    attempted += dropped_items
    failed += dropped_items
    log("traced %d pass(es); checked %d outputs: %d failed; snapshot tail "
        "percentile p%.1f; spans in %s" % (traced["passes"], attempted, failed,
                                         traced["snapshot_tail_percentile"],
                                         os.path.join(d, "spans.json")))
    if failed:
        return result(False, attempted, failed, {})
    layer = traced["metrics"]
    layer["trace.overhead_share"] = {
        "value": plain / layer["trace.events_per_s"]["value"] - 1.0,
        "unit": "share"}
    metrics = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        v = layer.pop(name, None)
        if v is None or v["unit"] != spec["unit"]:
            fail("traced run did not report %s in %s" % (name, spec["unit"]), 1)
        log("layer %s = %.6g %s (%s is better)"
            % (name, v["value"], v["unit"], spec["better"]))
        metrics[name] = v
    if layer:
        fail("traced run reported metrics missing from BENCHMARK.json: %s"
             % ", ".join(sorted(layer)), 1)
    return result(True, attempted, failed, metrics)


if __name__ == "__main__":
    sys.exit(main())
