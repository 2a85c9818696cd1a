#!/usr/bin/env python3
"""Build and run the OASIS plane benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all ...   # every workload in turn
  python3 perfbench/run.py --self-test

Builds perfbench/main.exe with dune, then runs it with the same
arguments.  The dune cache is disabled so the build writes only under the
checkout's _build.  The benchmark prints its JSON result as the last line
of standard output and exits nonzero when an output audit fails.
"""

import json
import os
import shutil
import subprocess
import sys

# A run that has not finished by then has wedged; the build is not counted.
RUN_TIMEOUT_S = 170


def run(exe, args, env):
    proc = subprocess.Popen([exe] + args, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        # The benchmark removes its data directory at exit; a killed one cannot.
        shutil.rmtree(os.path.join(".perfbench-data", "run-%d" % proc.pid), ignore_errors=True)
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: dune-project and lib/ not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else None
    if at is not None and args[at:at + 1] == ["all"]:
        with open("BENCHMARK.json") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
        codes = [run(exe, args[:at] + [w] + args[at + 1:], env) for w in workloads]
        return next((c for c in codes if c != 0), 0)
    return run(exe, args, env)


if __name__ == "__main__":
    sys.exit(main())
