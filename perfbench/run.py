#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench) for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs only check that the build is current. Build output goes to
stderr. The benchmark's own reproducibility test (loadgen_test) runs after
every build. The last line of stdout is the benchmark's JSON result; any
build, test or correctness failure exits nonzero without printing one.
Traced runs (--trace 1) write their Chrome trace JSON into
<build dir>/traces.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("cifar_offline", "cifar_interactive", "shared_pu_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    env = dict(os.environ)
    # Keep compiler temporaries inside the checkout.
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {cmd[:2]} exited {done.returncode}")


def git_sha(root):
    # Only inside a git checkout of this repository; never search parents.
    if not os.path.exists(os.path.join(root, ".git")):
        return "unavailable"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)),
                             "perfbench")
    build(root, build_dir)

    test = subprocess.run([os.path.join(build_dir, "loadgen_test")],
                          stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if test.returncode != 0:
        fail("loadgen_test failed: the load generator is not reproducible")

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", trace_dir, "--git-sha", git_sha(root)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited {done.returncode}")

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("benchmark reported an incorrect or empty run")
    print("\n".join(lines[:-1]), file=sys.stdout)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
