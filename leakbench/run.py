#!/usr/bin/env python3
"""Build and run leakbench, leakbound's end-to-end benchmark.

Run from the repository root:

    python3 leakbench/run.py --workload suite-cold --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (leakbench/go.mod) that uses the
repository's packages through a replace directive. This script builds it
from source into .bench_build/ with every Go cache kept there too, then
runs it and passes its exit status on. The last line of standard output is
the benchmark's JSON result; build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("suite-cold", "sweep-dense", "serve-mix")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.exit("leakbench: run from the leakbound repository root (no go.mod here)")
    go = shutil.which("go")
    if go is None:
        sys.exit("leakbench: the go toolchain is not on PATH")

    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        # Go keeps its settings and telemetry under the user config dir.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "bin", "leakbench")
    tmp = "%s.tmp%d" % (binary, os.getpid())
    built = subprocess.run([go, "build", "-o", tmp, "."], cwd=src, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("leakbench: build failed")
    os.replace(tmp, binary)

    ran = subprocess.run([
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-trace", str(args.trace),
        "-root", root,
    ], cwd=root)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
