#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload storms --seed 1 --seconds 10 --trace 0

The binary and the Go build cache go under .bench_build/ in the current
directory, so a run reads and writes nothing outside it. The launcher
then replaces itself with the program, passing every argument through,
so the program's exit code is the run's and no process is left behind.
When the build fails (for instance outside a full checkout) it exits 2
without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
