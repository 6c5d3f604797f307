#!/usr/bin/env python3
"""Builds the benchmark binary from source, then runs one workload.

    python3 perfbench/run.py --workload dense_build --seed 1 --seconds 10 --trace 0

Run from the repository root. The build tree is $CARGO_TARGET_DIR when set
(relative paths resolve against the repository root), else .bench_build;
the first run configures and compiles it, later runs only re-check it.
Build output goes to stderr, so the binary's JSON result stays the last
line of stdout. Traced runs (--trace 1) write their spans to
<build tree>/spans/<workload>-seed<seed>.jsonl. The exit status is the
binary's; a missing library source tree or a failed build exits 1 before
any result is printed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "kkt_perfbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("building the benchmark binary failed: " + " ".join(cmd))
    return os.path.join(build_dir, "kkt_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    child = subprocess.Popen(cmd)
    try:
        code = child.wait(timeout=DRIVER_TIMEOUT_S)
    except BaseException:
        child.kill()
        child.wait()
        fail("the benchmark binary did not finish")
    sys.exit(code)


if __name__ == "__main__":
    main()
