#!/usr/bin/env python3
"""Build and run the c2h benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the c2h libraries from ../src plus the c2h_perfbench
program, Release) under $CARGO_TARGET_DIR (default .bench_build), runs
c2h_perfbench with a fresh, empty native-model cache directory that is
removed afterwards, and passes its output through.  The last line of stdout
is its JSON result.  Build logs go to stderr.  With --trace 1 the span
trace of the run is left in <build>/perfbench/spans-<workload>.json.

Workloads: registry_cold, long_sim, serve_warm (see BENCHMARK.json and
README.md).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no c2h sources at " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "c2h_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans",
                    os.path.join(build_dir, "spans-%s.json" % args.workload)]
    cache = tempfile.mkdtemp(prefix="native-cache-", dir=build_dir)
    env = dict(os.environ, C2H_NATIVE_CACHE=cache)
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("c2h_perfbench did not finish in time")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("c2h_perfbench printed no result")
    if set(result) != RESULT_KEYS:
        fail("c2h_perfbench printed a malformed result")


if __name__ == "__main__":
    main()
