#!/usr/bin/env python3
"""Build and run one SilverStack benchmark workload.

    python3 perfbench/run.py --workload serve|oneshot|longrun|cyclesim \
        --seed N --seconds S --trace 0|1

Run from the root of the repository.  The first run configures and
builds the `silverbench` program (a CMake package in this directory that
compiles the stack's libraries from ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build.
The program's stdout is passed through, so the last line is the result
object; build output goes to stderr.  The exit code is the program's, or
2 when the sources or the build are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "silverbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(build_dir, "silverbench")
    if not os.path.isfile(exe):
        fail("build produced no silverbench binary")
    return exe


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["serve", "oneshot", "longrun", "cyclesim"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no SilverStack sources next to perfbench/ (expected src/)")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    # Compilers (the build's, and the host compiler the compiled Verilog
    # simulator invokes) put their temporaries here, not in /tmp.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    exe = build(build_dir)

    # A private scratch directory per run (socket, artifact caches),
    # removed afterwards; span files land beside it in the build dir.
    # Relative, so the Unix socket path stays short.
    scratch = os.path.relpath(
        os.path.join(build_dir, "runs", str(os.getpid())))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", scratch,
           "--golden", os.path.join(HERE, "golden.json")]
    try:
        rc = subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(rc if rc >= 0 else 1)


if __name__ == "__main__":
    main()
