#!/usr/bin/env python3
"""Build and run the suite benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload circuit_sift --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is the Rust package in this directory; it depends on the
repository's crates by path and is built from source on every call (a
no-op when nothing changed) into $CARGO_TARGET_DIR, `.bench_build` by
default. Its last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it holds
the provenance and the workload's own named metrics.

`--self-test` runs every workload of BENCHMARK.json at a tiny size, traced
and untraced, and checks that each run passes its output checks and emits
exactly the metrics BENCHMARK.json names, with their units.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the benchmark binary; returns its path or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def git_dirty():
    """Whether the checkout has uncommitted edits: "true", "false", or
    "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return "true" if out.stdout.strip() else "false"


def provenance_env():
    return dict(
        os.environ,
        PERFBENCH_GIT_REV=command_output(["git", "rev-parse", "HEAD"]),
        PERFBENCH_GIT_DIRTY=git_dirty(),
        PERFBENCH_RUSTC=command_output(["rustc", "--version"]),
    )


def run_binary(binary, args, env):
    """Run the benchmark; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run(
            [binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def self_test(binary, env):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            args = ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--size", "tiny"]
            code, lines = run_binary(binary, args, env)
            problems = []
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
                problems.append("no result line")
            if code != 0:
                problems.append(f"exit code {code}")
            if set(result) and set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("output checks failed")
            if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                problems.append("attempted < 1")
            metrics = result.get("metrics", {})
            if set(metrics) != set(expected[trace]):
                problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected[trace]))}")
            for name, m in metrics.items():
                v = m.get("value")
                if m.get("unit") != expected[trace].get(name):
                    problems.append(f"{name}: unit {m.get('unit')!r}")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{name}: value {v!r}")
                elif trace == "0" and v == 0:
                    problems.append(f"{name}: end-to-end value is 0")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-test {w['name']} trace={trace}: {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


def main():
    argv = sys.argv[1:]
    binary = build()
    if binary is None:
        return 1
    env = provenance_env()
    if argv == ["--self-test"]:
        return self_test(binary, env)
    code, lines = run_binary(binary, argv, env)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
