#!/usr/bin/env python3
"""Tests of the repository benchmark itself, at smoke sizes.

  python3 perfbench/test_perfbench.py

The tests build the harness (as run.py does on first use) and run it
directly, with the harness's size and set-up flags, so each workload
finishes in a few seconds.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run as bench_run  # noqa: E402
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Small fleets: every workload finishes in a few seconds.
SMOKE = {"analyze_long": ["--gateways", "3", "--weeks", "3"],
         "analyze_wide": ["--gateways", "16", "--weeks", "2"],
         "stream_daily": ["--gateways", "4", "--weeks", "2"]}
BINARY = None


def run(workload, *extra, seed=7, trace=0, env=None):
    """Runs the harness on one smoke-sized workload; returns (exit code,
    the full record on the last stdout line)."""
    global BINARY
    if BINARY is None:
        BINARY = bench_run.build()
    with tempfile.TemporaryDirectory() as work:
        cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--work-dir", work,
               "--setup-reps", "1", *SMOKE[workload], *extra]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def last_shard_size(n_gateways, n_shards):
    """Gateways in the last shard of ShardPlanner::Plan(n, shards): only
    the first n % shards shards get an extra gateway."""
    return n_gateways // n_shards


class MetricNames(unittest.TestCase):
    def test_declared_names_are_valid_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in SPEC[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_every_printed_metric_is_declared(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in SMOKE:
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), set(declared))
                    for name, metric in metrics.items():
                        self.assertRegex(name, NAME)
                        self.assertEqual(metric["unit"], declared[name])
                        self.assertIsInstance(metric["value"], (int, float))
                    bench_run.check_metrics(metrics, trace)


class Failures(unittest.TestCase):
    def test_quarantined_shard_sets_fail_ratio_to_its_share(self):
        # `@8` makes only the 8th (last) of analyze_wide's 8 shards eligible;
        # it fails every attempt and is quarantined.
        env = dict(os.environ, HOMETS_FAILPOINTS="fleet.shard.run=error@8")
        code, result = run("analyze_wide", env=env)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        n = result["gateways"]
        share = last_shard_size(n, 8) / n
        self.assertGreater(share, 0)
        self.assertAlmostEqual(result["failed"] / result["attempted"], share)

    def test_tampered_reference_digest_fails_the_run(self):
        code, result = run("analyze_long")
        self.assertEqual(code, 0)
        digest = result["digest"]
        code, result = run("analyze_long", "--expect-digest", digest)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        tampered = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        code, result = run("analyze_long", "--expect-digest", tampered)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class Compare(unittest.TestCase):
    def test_compare_refuses_results_from_two_hosts(self):
        record = {"workload": "analyze_long", "metrics": {
            "obs_per_s": {"value": 1.0, "unit": "observations/s"}}}
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for cpus in (1, 4):
                path = Path(tmp) / f"r{cpus}.json"
                path.write_text(json.dumps(dict(record, host={"nproc": cpus})))
                paths.append(str(path))
            refused = subprocess.run(RUN + ["compare", *paths],
                                     capture_output=True, text=True)
            same = subprocess.run(RUN + ["compare", paths[0], paths[0]],
                                  capture_output=True, text=True)
        self.assertEqual(refused.returncode, 3)
        self.assertIn("different hosts", refused.stderr)
        self.assertEqual(same.returncode, 0)


if __name__ == "__main__":
    unittest.main()
