#!/usr/bin/env python3
"""Builds the campaign benchmark and runs it.

    python3 campbench/run.py --workload netlist-boom --seed 1 --seconds 20 --trace 0
    python3 campbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root. The package is built in release mode into
$CARGO_TARGET_DIR (default campbench/target); build output goes to
stderr. A single workload runs in one `campbench` process whose last
stdout line is the JSON result. `--workload all` runs every workload, each
in its own process, and ends with one JSON object whose metric names are
prefixed with the workload. The exit code is non-zero when the build
fails or any output check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["netlist-boom", "behavioural-boom", "proc-netlist-small"]


def build(target):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target))
    return done.returncode


def run_one(exe, args):
    """Runs one workload; returns (exit code, parsed last line or None)."""
    done = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return done.returncode, None


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    code = build(target)
    if code != 0:
        print("campbench: build failed", file=sys.stderr)
        return code
    exe = os.path.join(target, "release", "campbench")
    args = argv + ["--scratch", os.path.join(target, "campbench-scratch")]
    if "--workload" not in argv or argv[argv.index("--workload") + 1 :][:1] != ["all"]:
        return subprocess.run([exe] + args).returncode

    at = args.index("--workload") + 1
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        args[at] = w
        code, result = run_one(exe, args)
        worst = max(worst, code)
        if result is None:
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][w + "/" + name] = metric
    print(json.dumps(total))
    return worst or (0 if total["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
