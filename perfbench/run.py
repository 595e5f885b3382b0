#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <suite-large|per-shape|serve-mix> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the `shapefrag` binary and the
benchmark package (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark. Its last line of standard output
is the JSON result; build output goes to standard error. Exits non-zero
without a result when the build or the run fails.
"""

import os
import subprocess
import sys

WORKLOADS = ("suite-large", "per-shape", "serve-mix")


def main(argv):
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or opts.get("--workload") not in WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "shapefrag"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "shapefrag-perfbench")
    cmd = [bench] + argv + [
        "--shapefrag", os.path.join(target, "release", "shapefrag"),
        "--out", os.path.join(here, "out"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
