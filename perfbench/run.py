#!/usr/bin/env python3
"""Build and run the ACE benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload call --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from the repository's source
into the build directory ($CARGO_TARGET_DIR, or .bench_build at the
root), with the Go build cache, module cache and configuration kept
there too, so nothing outside the checkout is read or written. Scratch
data, span dumps and layer reports go to the same directory. The
program's exit code is passed through; a failed build exits 2.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT = 840  # seconds; the first build in a checkout compiles the standard library
RUN_TIMEOUT = 170  # seconds; every run must end well inside three minutes


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        TMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
    )
    for d in (env["GOCACHE"], env["XDG_CONFIG_HOME"], env["TMPDIR"]):
        os.makedirs(d, exist_ok=True)
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary + ".new", "."],
            cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.replace(binary + ".new", binary)
    try:
        ran = subprocess.run([binary, *sys.argv[1:], "--workdir", build], env=env, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT} s", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
