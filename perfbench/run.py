#!/usr/bin/env python3
"""Builds sit_serve and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is the
result object; see perfbench/README.md for the workloads and metrics.
"""

import os
import signal
import subprocess
import sys

WORK = ".perfbench"


def main():
    # SIT_JOBS would change the in-process pool sizes; the daemons get
    # every flag explicitly and never see it either.
    env = {k: v for k, v in os.environ.items() if k != "SIT_JOBS"}
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/perfbench.exe", "./bin/sit_serve.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    serve = os.path.join(os.getcwd(), "_build", "default", "bin", "sit_serve.exe")
    child = subprocess.Popen([exe, *sys.argv[1:], "--serve", serve, "--work", WORK], env=env)

    # A stopped run stops the bench too, which stops its daemons.
    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
