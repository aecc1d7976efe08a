#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload lams-bulk --seed 1 --seconds 10 --trace 0

The program (perfbench/main.exe) is built with dune into .bench_build/ in
the release profile with the dune cache off, so nothing is read or
written outside the checkout. Every argument is passed to the program,
whose last line of output is the JSON result; see perfbench/README.md.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: no dune-project and lib/ here; run from the root of "
            "a checkout of the repository\n"
        )
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
