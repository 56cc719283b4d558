#!/usr/bin/env python3
"""Build and run the pipesyn benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, then runs it once with the same
arguments. The last line of standard output is the result as one JSON
object. Exits non-zero, without a result, when the checkout cannot be
built (for instance when the pipesyn sources are missing).
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: no pipesyn sources here (dune-project, lib/); "
                 "run from the root of a checkout")
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.exit("run.py: build failed (dune exit %d)" % build.returncode)
    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
