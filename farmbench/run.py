#!/usr/bin/env python3
"""Farm benchmark runner: builds the benchmark binaries and runs one workload.

    python3 farmbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 farmbench/run.py --workload all [--held-out]

Run from the repository root. The honeyfarm is built from ../src into the
directory named by $CARGO_TARGET_DIR (default .bench_build), Release mode.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer breakdown;
either way the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Without --seed the workload's default seed from
seeds.json is used (--held-out picks its held-out seed instead).
--workload all runs every workload untraced and prints a table of every
end-to-end metric by name and unit.

Exit status: 0 ok, 1 a correctness check failed, 2 build or usage error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("telescope_churn", "hot_prefix", "worm_reflect")
TARGETS = ("farm_bench", "farm_bench_traced")
# One replay runs 10-25 s on a 4-core x86 host; leave room under a 180 s cap.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"farmbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds both binaries; returns the build dir."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *TARGETS])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log(f"cannot run {cmd[0]}: {err}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return out


def load_seeds():
    with open(os.path.join(HERE, "seeds.json")) as f:
        return json.load(f)


def run_workload(out, workload, seed, seconds, trace):
    """Runs one binary; returns (exit code, last stdout line or None)."""
    binary = os.path.join(out, TARGETS[1] if trace else TARGETS[0])
    cmd = [binary, f"--workload={workload}", f"--seed={seed}"]
    if not trace:
        # Only the untraced binary repeats replays for --seconds; the traced
        # one always runs one replay of each kind.
        cmd.append(f"--seconds={seconds}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2, None
    lines = done.stdout.strip().splitlines()
    return done.returncode, (lines[-1] if lines else None)


def run_all(out, held_out, seconds):
    seeds = load_seeds()
    status = 0
    print(f"{'workload':<16} {'metric':<20} {'value':>14}  unit")
    for workload in WORKLOADS:
        seed = seeds[workload]["held_out" if held_out else "default"]
        code, line = run_workload(out, workload, seed, seconds, 0)
        if line is None:
            print(f"{workload:<16} FAILED (exit {code}, no result)")
            status = max(status, code or 1)
            continue
        result = json.loads(line)
        for name, metric in result["metrics"].items():
            print(f"{workload:<16} {name:<20} {metric['value']:>14.6g}  "
                  f"{metric['unit']}")
        print(f"{workload:<16} {'correct':<20} {str(result['correct']):>14}  "
              f"(seed {seed}, {result['attempted']} attempted, "
              f"{result['failed']} failed)")
        if code != 0 or not result["correct"]:
            status = max(status, code or 1)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--seconds", type=int, default=54)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build()
    if out is None:
        return 2
    if args.workload == "all":
        return run_all(out, args.held_out, args.seconds)
    seed = args.seed
    if seed is None:
        seed = load_seeds()[args.workload][
            "held_out" if args.held_out else "default"]
    code, line = run_workload(out, args.workload, seed, args.seconds,
                              args.trace)
    if line is not None:
        print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
