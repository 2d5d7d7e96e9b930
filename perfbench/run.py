#!/usr/bin/env python3
"""Builds the FAST benchmark from source and runs it.

Run from the root of the repository:

    python3 perfbench/run.py --workload zoo-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Every argument except --self-test is passed to the benchmark binary (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR, or .bench_build
when that is unset; outputs go to perfbench-out/. The last line of standard
output is the benchmark's JSON result; build output goes to standard error.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["zoo-cold", "sweep-ilp", "serve-jobs"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def environment():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env.pop("FAST_TRIALS", None)
    env["RAYON_NUM_THREADS"] = "1"
    if "PERFBENCH_GIT_COMMIT" not in env:
        try:
            env["PERFBENCH_GIT_COMMIT"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            env["PERFBENCH_GIT_COMMIT"] = "unknown (not a git checkout)"
    return env


def build(env):
    """Builds the benchmark and the fast-serve daemon in one release build."""
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full FAST checkout")
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"),
           "--bins", "-p", "perfbench", "-p", "fast-serve"]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("the build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def run(binary, args, env, capture=False):
    return subprocess.run([binary] + args, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE if capture else None, timeout=600)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary, env):
    """Tiny runs of every workload must pass their checks; a corrupted
    reference digest must make the check fire; BENCHMARK.json must list
    exactly the metrics the binary prints."""
    problems = []
    unit = subprocess.run(
        ["cargo", "test", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if unit.returncode != 0:
        problems.append("unit tests failed")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in WORKLOADS:
            done = run(binary, ["--workload", workload, "--seed", "1", "--seconds", "1",
                                "--trace", str(trace)], env, capture=True)
            result = last_json(done.stdout)
            names = [m["name"] for m in contract[key]]
            if done.returncode != 0 or not result or not result["correct"]:
                problems.append(f"{workload} --trace {trace}: the run failed")
            elif result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{workload} --trace {trace}: error_frac is not 0")
            elif list(result["metrics"]) != names:
                problems.append(f"{workload} --trace {trace}: metrics differ from BENCHMARK.json")
            else:
                print(f"self-test: {workload} --trace {trace}: ok", file=sys.stderr)
    # Flip one stored digest of seed 1 and expect the run to fail its check.
    corrupt = os.path.join(ROOT, "perfbench-out", "corrupt-reference.txt")
    os.makedirs(os.path.dirname(corrupt), exist_ok=True)
    with open(os.path.join(HERE, "reference.txt")) as f:
        lines = f.read().splitlines()
    flipped = False
    for i, line in enumerate(lines):
        fields = line.split()
        if len(fields) == 4 and fields[0] == "zoo-cold" and fields[1] == "1":
            fields[3] = format(int(fields[3], 16) ^ 1, "016x")
            lines[i] = " ".join(fields)
            flipped = True
            break
    with open(corrupt, "w") as f:
        f.write("\n".join(lines) + "\n")
    done = run(binary, ["--workload", "zoo-cold", "--seed", "1", "--seconds", "1",
                        "--reference", corrupt], env, capture=True)
    result = last_json(done.stdout)
    if not flipped:
        problems.append("reference.txt holds no zoo-cold digest for seed 1")
    elif done.returncode == 0 or not result or result["correct"] or result["failed"] == 0:
        problems.append("a corrupted reference digest did not fail the run")
    else:
        print("self-test: corrupted reference digest is caught: ok", file=sys.stderr)
    os.remove(corrupt)
    for p in problems:
        print(f"self-test: FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    env = environment()
    binary = build(env)
    if args == ["--self-test"]:
        sys.exit(self_test(binary, env))
    try:
        done = run(binary, args, env)
    except subprocess.TimeoutExpired:
        fail("the run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
