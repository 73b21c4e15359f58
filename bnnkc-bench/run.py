#!/usr/bin/env python3
"""Build and run the bnnkc benchmark.

Run from the root of a source checkout:

    python3 bnnkc-bench/run.py --workload batch|edge|serve --seed N \
        --seconds S --trace 0|1

Builds the `bnnkc` CLI (its `serve` daemon is part of the `serve`
workload) and the benchmark package next to this file, both in release
mode and offline, into $CARGO_TARGET_DIR (default: .bench_build in the
current directory). Build output goes to stderr, so the benchmark's own
lines are all that reach stdout; the last one is the result object.
Exits non-zero without printing a result when the sources are missing or
a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        print("run.py: no bnnkc source tree next to the benchmark", file=sys.stderr)
        return 2
    # The BITNN_* knobs pin kernels, SIMD level and weight form; clear
    # them so every run measures the defaults the program ships with.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BITNN_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    if not build(env, "-p", "bnnkc", "--bin", "bnnkc") or not build(
        env, "--manifest-path", manifest
    ):
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release")
    cmd = [
        os.path.join(exe, "bnnkc-bench"),
        *sys.argv[1:],
        "--bnnkc",
        os.path.join(exe, "bnnkc"),
        "--work",
        os.path.join(target, "bnnkc-bench-work"),
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
