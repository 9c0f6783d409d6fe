#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload proc_mill --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the traced run's span files all live
under .bench_build/ in the repository root, so nothing is read or written
outside the checkout. The exit code is the benchmark's; a failed build
exits 1 without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOFLAGS="",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # The benchmark replaces this process, so it is the only process left
    # running and signals reach it directly.
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:] + ["--out", BUILD])


if __name__ == "__main__":
    sys.exit(main())
