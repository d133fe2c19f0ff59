#!/usr/bin/env python3
"""Repository benchmark: builds the harness, runs one workload, checks it.

Run from the repository root:

  python3 perfbench/run.py --workload analyze_long --seed 11 --seconds 15 --trace 0
  python3 perfbench/run.py compare BASE NEW        # result files or directories
  python3 perfbench/run.py reference              # rewrite reference.json

A run builds perfbench/ (and the library under src/) into .bench_build/,
generates the workload's fleet from --seed, checks every output against
the reference, and prints as its last stdout line one JSON object with the
keys correct, attempted, failed and metrics. The full record, with the
output digest and the host block, goes to .bench_build/results/. Exit code
0 when every output matched, 1 on a mismatch, 2 when the run could not be
made (including a checkout without the library sources).
"""

import argparse
import concurrent.futures
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEEDS = range(100)
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("analyze_long", "analyze_wide", "stream_daily")
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds the harness; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    out = BUILD_DIR / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "homets_perfbench"


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def declared_metrics(trace):
    spec = load_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(metrics, trace):
    """Every metric has a valid name, a finite value, and is exactly the
    declared set."""
    declared = declared_metrics(trace)
    problems = [n for n in metrics if not METRIC_NAME.match(n)]
    problems += [n for n in metrics if declared.get(n) != metrics[n]["unit"]]
    problems += [n for n in declared if n not in metrics]
    problems += [n for n, m in metrics.items()
                 if not math.isfinite(m["value"])]
    if problems:
        fail("metrics differ from BENCHMARK.json: " + ", ".join(problems))


def run_harness(binary, args, extra=()):
    """Runs the harness; returns (exit code, parsed last stdout line)."""
    work = BUILD_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"harness exited with {done.returncode}")
    try:
        return done.returncode, json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"unreadable harness result: {e}")


def cmd_run(argv):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    binary = build()
    expected = load_json(REFERENCE).get(args.workload, {}).get(str(args.seed))
    extra = ["--expect-digest", expected] if expected else []
    if args.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        extra += ["--trace-out",
                  str(traces / f"{args.workload}-seed{args.seed}.json")]
    code, record = run_harness(binary, args, extra)
    check_metrics(record["metrics"], args.trace)
    record["reference_checked"] = expected is not None

    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print("host: " + json.dumps(record["host"]))
    print(json.dumps({k: record[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return code


def load_results(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [load_json(f) for f in files]


def cmd_compare(argv):
    p = argparse.ArgumentParser(
        description="Compare metric medians of two result sets from one host.")
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    base, new = load_results(args.base), load_results(args.new)
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + new}
    if len(hosts) != 1:
        print("perfbench: refusing to compare results from different hosts:",
              file=sys.stderr)
        for host in sorted(hosts):
            print("  " + host, file=sys.stderr)
        return 3
    groups = {}
    for side, records in (("base", base), ("new", new)):
        for r in records:
            for name, m in r["metrics"].items():
                key = (r["workload"], name, m["unit"])
                groups.setdefault(key, {"base": [], "new": []})[side].append(
                    m["value"])
    print(f"{'workload':14} {'metric':32} {'base':>12} {'new':>12} {'new/base':>9}")
    for (workload, name, unit), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            continue
        b, n = statistics.median(sides["base"]), statistics.median(sides["new"])
        ratio = f"{n / b:9.3f}" if b else "      n/a"
        print(f"{workload:14} {name:32} {b:12.6g} {n:12.6g} {ratio} {unit}")
    return 0


def cmd_reference(argv):
    argparse.ArgumentParser(
        description="Recompute the committed reference digests of seeds "
        f"{REFERENCE_SEEDS.start}-{REFERENCE_SEEDS.stop - 1}.").parse_args(argv)
    binary = build()

    def digest(job):
        workload, seed = job
        run = argparse.Namespace(workload=workload, seed=seed, seconds=1,
                                 trace=0)
        code, record = run_harness(binary, run, ["--reference-only"])
        if code != 0:
            fail(f"{workload} seed {seed}: outputs inconsistent")
        return workload, seed, record["digest"]

    jobs = [(w, s) for w in WORKLOADS for s in REFERENCE_SEEDS]
    table = {w: {} for w in WORKLOADS}
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        for workload, seed, value in pool.map(digest, jobs):
            table[workload][str(seed)] = value
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv):
    commands = {"compare": cmd_compare, "reference": cmd_reference}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
