#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0

The Go build cache, the binary, scratch data and trace files all live
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), so
the benchmark reads and writes only inside the checkout. The last line
of standard output is the benchmark's JSON result; a failed build exits
non-zero without one.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    binary = os.path.join(build, "bin", "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    for d in ("gocache", "gopath", "tmp", "config", "bin"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    if not os.path.isfile(os.path.join(HERE, os.pardir, "go.mod")):
        sys.stderr.write("perfbench: no geoblocks module next to %s; run from a repository checkout\n" % HERE)
        return 3
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 3
    sys.stdout.flush()
    return subprocess.run([binary, "--out", build] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
