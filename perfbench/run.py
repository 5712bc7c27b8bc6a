#!/usr/bin/env python3
"""Build the routing service and the benchmark from source, then run one
benchmark workload.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

Run from the repository root. Both builds go to $CARGO_TARGET_DIR
(default .bench_build). The benchmark's full report and, for traced runs,
its spans land in perfbench/out/; the last line of standard output is the
result object.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve-small", "serve-large", "engine-offline"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    os.chdir(ROOT)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    builds = [
        # The server under test, from the repository workspace.
        ["cargo", "build", "--release", "--offline", "-q", "-p", "bnb-cli", "--bin", "bnb"],
        # The benchmark, a package of its own.
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--bnb", os.path.join(release, "bnb"),
        "--out-dir", os.path.join("perfbench", "out"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
