#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

    python3 e2e/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Every argument is passed on to e2e.exe (see e2e/README.md).  The build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  The build uses no cache outside the checkout.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["./e2e/e2e.exe", "./bin/difftune_cli.exe"]


def main():
    os.chdir(ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
            stdout=sys.stderr,
            env=env,
            timeout=840,
        )
    except subprocess.TimeoutExpired:
        sys.exit("e2e/run.py: build timed out")
    if build.returncode != 0:
        sys.exit("e2e/run.py: build failed")
    exe = os.path.join("_build", "default", "e2e", "e2e.exe")
    cli = os.path.join("_build", "default", "bin", "difftune_cli.exe")
    sys.stdout.flush()
    os.execv(exe, [exe, "--cli", cli] + sys.argv[1:])


if __name__ == "__main__":
    main()
