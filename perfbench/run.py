#!/usr/bin/env python3
"""Seeded benchmark of the PROM guard: build, run, collect sets, compare.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload engine_10k --seed 1 --seconds 30 --trace 0

builds the benchmark from source into $CARGO_TARGET_DIR (default
.bench_build) on first use, runs one workload on one pool lane and prints
its report. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

Steadiness and compare mode:

    python3 perfbench/run.py --sets 10 --seed 1 --seconds 30 --out a.json
    python3 perfbench/run.py --compare a.json b.json

--sets runs every workload (or --workload) with seeds seed .. seed+N-1 and
writes each metric's values, median and quartiles. --compare checks the
second set against the first using the bounds of BENCHMARK.json and
perfbench/metrics.json and exits 1 when a metric got worse by more than its
bound.

Multi-lane numbers are ungated extras: pass --lanes N; the record is
tagged with pool_lanes.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["engine_10k", "fleet_churn", "regress_10k"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 165


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(jobs):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cmake_dir = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DPERFBENCH_JOBS=%d" % jobs])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(jobs)])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BUILD_TIMEOUT_S).returncode
        if rc != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench")


def commit():
    """The checked-out commit when the tree is a git work tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def run_once(binary, workload, seed, seconds, trace, lanes):
    """Runs one workload; returns (exit code, stdout text)."""
    work = os.path.join(build_dir(), "work", "%s-%d" % (workload, os.getpid()))
    env = dict(os.environ, PROM_THREADS=str(lanes))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--commit", commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        return 124, out or ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_record(text):
    for line in text.splitlines():
        if line.startswith("record "):
            return json.loads(line[len("record "):])
    return None


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect_sets(args, binary):
    workloads = [args.workload] if args.workload else WORKLOADS
    out = {"seeds": [args.seed + i for i in range(args.sets)],
           "seconds": args.seconds, "trace": args.trace,
           "pool_lanes": args.lanes, "workloads": {}}
    for w in workloads:
        values = {}
        units = {}
        for seed in out["seeds"]:
            rc, text = run_once(binary, w, seed, args.seconds, args.trace,
                                args.lanes)
            rec = parse_record(text)
            if rc != 0 or rec is None:
                sys.stderr.write(text)
                raise SystemExit("%s seed %d failed (exit %d)" % (w, seed, rc))
            for group in ("end_to_end", "per_layer", "ledger"):
                for name, m in rec[group].items():
                    if m["value"] is None:
                        continue
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
        summary = {}
        for name, vals in values.items():
            q1, q2, q3 = quartiles(vals)
            summary[name] = {"unit": units[name], "values": vals,
                             "median": q2, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / abs(q2) if q2 else 0.0}
            print("%-12s %-44s median %12.6g  q1 %12.6g  q3 %12.6g  "
                  "spread %6.3f %s" % (w, name, q2, q1, q3,
                                       summary[name]["spread"],
                                       units[name]))
        out["workloads"][w] = summary
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


def metric_spec(workload):
    """Name -> spec of every metric --compare checks on the workload."""
    with open(os.path.join(HERE, "metrics.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in spec["ledger"]
             if workload in m["workloads"]}
    for m in bench["end_to_end"]:
        specs[m["name"]] = m
    return specs


def verdict(ma, mb, spec, same_seeds):
    """ok, WORSE or unresolved for set mb of one metric against set ma."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    bound = spec["bound"]

    def worse_by(a, b):
        if a == 0:
            return float("inf") if sign * b > 0 else 0.0
        return sign * (b - a) / abs(a)

    if spec.get("per_seed"):
        # Fixed by the seed: sets over the same seeds compare seed by seed;
        # sets over other seeds do not compare.
        if not same_seeds:
            return "unresolved"
        pairs = zip(ma["values"], mb["values"])
        return ("WORSE" if any(worse_by(a, b) > bound for a, b in pairs)
                else "ok")
    if max(ma["spread"], mb["spread"]) > bound:
        # Noise wider than the bound: only sets whose runs do not overlap
        # decide it.
        def badness(v):
            return sign * v
        a_best, a_worst = (min(ma["values"], key=badness),
                           max(ma["values"], key=badness))
        b_best, b_worst = (min(mb["values"], key=badness),
                           max(mb["values"], key=badness))
        if badness(b_worst) < badness(a_best):
            return "ok"
        return "WORSE" if worse_by(a_worst, b_best) > bound else "unresolved"
    return "WORSE" if worse_by(ma["median"], mb["median"]) > bound else "ok"


def compare(path_a, path_b):
    """Second set against the first; exit 1 on a regression past a bound."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    same_seeds = a["seeds"] == b["seeds"]
    worse = 0
    for w, metrics in sorted(a["workloads"].items()):
        specs = metric_spec(w)
        for name, ma in sorted(metrics.items()):
            mb = b["workloads"].get(w, {}).get(name)
            spec = specs.get(name)
            if mb is None or spec is None or not ma["median"]:
                continue
            v = verdict(ma, mb, spec, same_seeds)
            worse += v == "WORSE"
            change = (mb["median"] - ma["median"]) / abs(ma["median"])
            print("%-12s %-28s %12.6g -> %12.6g %+7.1f%% (bound %4.0f%%) %s"
                  % (w, name, ma["median"], mb["median"], 100 * change,
                     100 * spec["bound"], v))
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--lanes", type=int, default=1,
                   help="pool lanes (PROM_THREADS); only 1 is gated")
    p.add_argument("--jobs", type=int, default=4, help="build jobs")
    p.add_argument("--sets", type=int, help="runs per workload, one per seed")
    p.add_argument("--out", default="perfbench-sets.json")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    try:
        binary = build(args.jobs)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    if args.sets:
        collect_sets(args, binary)
        return 0
    if not args.workload:
        p.error("--workload is required")
    rc, text = run_once(binary, args.workload, args.seed, args.seconds,
                        args.trace, args.lanes)
    last = text.rstrip("\n").split("\n")[-1] if text.strip() else ""
    if not last.startswith("{"):
        sys.stdout.write(text)
        sys.stderr.write("perfbench: no result (exit %d)\n" % rc)
        return rc or 1
    sys.stdout.write(text)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
