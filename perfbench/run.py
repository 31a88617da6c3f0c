#!/usr/bin/env python3
"""Builds and runs the workspace benchmark.

    python3 perfbench/run.py --workload table1_batch|scaling_dp|eco_batch \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `buffopt-cli` from the workspace
and the `perfbench` package beside it (release profile, offline), then
runs the benchmark with the same arguments. Build output goes to stderr,
so the benchmark's report, ending in one JSON line, is all of stdout.
Build artifacts go to $CARGO_TARGET_DIR, `.bench_build` when unset.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "buffopt-netlist", "--bin", "buffopt-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--cli", os.path.join(release, "buffopt-cli"),
           "--out-dir", os.path.join(target, "perfbench")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
