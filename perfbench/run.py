#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to .bench_build/ (dune's
shared cache is disabled, so nothing is written outside the checkout);
the benchmark's own output, ending in one JSON line, goes to stdout.
Exits non-zero when the build or the run fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    env["XDG_CACHE_HOME"] = os.path.join(build_dir, "cache")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--build-dir", build_dir,
             "./perfbench/esrbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "default", "perfbench", "esrbench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except OSError as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
