#!/usr/bin/env python3
"""Build the perfbench driver from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload apache-smt --seed 1 --seconds 10 --trace 0

All build output (the binary, the Go build cache, temporary files) goes to
.bench_build/ under the repository root, so a run reads and writes nothing
outside the checkout. The arguments are passed to the driver unchanged; see
perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                      ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        env[name] = os.path.join(BUILD, sub)
        os.makedirs(env[name], exist_ok=True)
    env.update(GOFLAGS="", GOTOOLCHAIN="local", GOENV="off", GOWORK="off")
    exe = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "./cmd/perfbench"],
                           cwd=os.path.join(ROOT, "perfbench"), env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
