#!/usr/bin/env python3
"""Determinism and consistency tests for the farm benchmark.

    python3 farmbench/test_farmbench.py [-v]

Builds the benchmark (as run.py does) and checks, per workload:
  * the same seed replayed twice in separate processes gives identical
    deterministic counters and sim_* values;
  * the traced replay executes exactly the events, packets and clones of the
    untraced replay (tracing does not perturb the simulation), and its layer
    classes plus event_loop.peek cover at least 90% of the traced wall time;
  * a different seed gives a different replay.
It also checks that run.py fails without printing a result when the honeyfarm
sources are missing. Takes a few minutes: every replay is full size.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

OUT = None


def setUpModule():
    global OUT
    OUT = run.build()
    if OUT is None:
        raise RuntimeError("farm benchmark build failed")


def replay(workload, seed, trace):
    """Runs one binary once; returns (result JSON, deterministic outcome)."""
    binary = os.path.join(OUT, run.TARGETS[1] if trace else run.TARGETS[0])
    cmd = [binary, f"--workload={workload}", f"--seed={seed}"]
    if not trace:
        cmd.append("--seconds=0")  # exactly one replay
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    marker = "farm_bench: outcome "
    outcome = [json.loads(line[len(marker):])
               for line in done.stderr.splitlines() if line.startswith(marker)]
    return result, outcome[-1]


class FarmBenchTest(unittest.TestCase):
    maxDiff = None

    def check_workload(self, workload):
        first, first_outcome = replay(workload, 3, trace=0)
        second, second_outcome = replay(workload, 3, trace=0)
        self.assertTrue(first["correct"])
        self.assertEqual(first_outcome, second_outcome)
        for name in ("sim_peak_live_vms", "sim_peak_frames"):
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)
        self.assertEqual((first["attempted"], first["failed"]),
                         (second["attempted"], second["failed"]))

        traced, traced_outcome = replay(workload, 3, trace=1)
        self.assertTrue(traced["correct"])
        self.assertEqual(first_outcome, traced_outcome)
        metrics = {k: v["value"] for k, v in traced["metrics"].items()}
        attributed = sum(v for k, v in metrics.items()
                         if k.endswith(".busy_ms"))
        covered = attributed / (attributed + metrics["trace.unattributed_ms"])
        self.assertGreaterEqual(covered, 0.90)
        self.assertEqual(metrics["sim_datapath_p99_ms"],
                         first_outcome["sim_datapath_p99_ms"])

        _, other_outcome = replay(workload, 4, trace=0)
        self.assertNotEqual(first_outcome, other_outcome)

    def test_telescope_churn(self):
        self.check_workload("telescope_churn")

    def test_hot_prefix(self):
        self.check_workload("hot_prefix")

    def test_worm_reflect(self):
        self.check_workload("worm_reflect")

    def test_fails_without_sources(self):
        # A checkout holding only the benchmark must fail without a result.
        with tempfile.TemporaryDirectory(dir=OUT) as root:
            shutil.copytree(HERE, os.path.join(root, "farmbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run(
                [sys.executable, "farmbench/run.py", "--workload", "hot_prefix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
