#!/usr/bin/env python3
"""Builds the nsdc benchmark program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload signoff_stat --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--held-out] [--seconds 25]

--all runs every workload at its default seed (or its held-out seed) from
perfbench/seeds.json, once with --trace 0 and once with --trace 1. Either
way the exit code is non-zero unless every run is correct.

The first run configures and builds the nsdc libraries, the nsdc_dist tool
and the benchmark program into .bench_build/ (a few minutes); later runs only check
that the build is current. The program's output is passed through; its last
line is the JSON result, checked here against the metric lists in
BENCHMARK.json. With --trace 1 the spans are also written to
.bench_out/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("signoff_stat", "scale_sta", "serve_mixed", "dist_mc")
SEEDS_FILE = os.path.join("perfbench", "seeds.json")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "nsdc_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {e["name"]: e["unit"] for e in entries}


def run_one(workload, seed, seconds, trace):
    """Runs the program once; prints its output and returns the result."""
    program = os.path.join(BUILD_DIR, "nsdc_perfbench")
    dist_tool = os.path.join(BUILD_DIR, "nsdc", "tools", "nsdc_dist")
    # Relative and short: the serve and dist workloads bind unix sockets
    # under it, and the checkout path may be long.
    work_dir = os.path.join(".bench_build", "w%d" % os.getpid())
    cmd = [program, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dist-binary", dist_tool, "--work-dir", work_dir]
    if trace:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            ".bench_out", "trace-%s-%d.json" % (workload, seed))]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("nsdc_perfbench exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("nsdc_perfbench exited with %d" % proc.returncode, 5)
    body, last = lines[:-1], lines[-1]
    for line in body:
        print(line)
    try:
        result = json.loads(last)
    except ValueError:
        fail("nsdc_perfbench printed no JSON result", 5)
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("nsdc_perfbench metrics %s do not match BENCHMARK.json %s"
             % (sorted(got), sorted(want)), 5)
    print(last)
    sys.stdout.flush()
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--all", action="store_true",
                        help="every workload at its seeds.json seed, "
                             "trace 0 and 1")
    parser.add_argument("--held-out", action="store_true",
                        help="with --all: use the held-out seeds")
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", os.path.join("src", "CMakeLists.txt"),
                   "CMakeLists.txt", SEEDS_FILE):
        if not os.path.exists(needed):
            fail("run from the nsdc repository root (missing %s)" % needed, 2)
    with open("BENCHMARK.json") as f:
        default_seconds = json.load(f)["run_seconds"]

    if args.all:
        with open(SEEDS_FILE) as f:
            seeds = json.load(f)
        build()
        seconds = args.seconds or default_seconds
        ok = True
        for workload in WORKLOADS:
            seed = seeds[workload]["held_out" if args.held_out else "default"]
            for trace in (0, 1):
                ok = run_one(workload, seed, seconds, trace)["correct"] and ok
        sys.exit(0 if ok else 1)

    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required "
                     "unless --all is given")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    build()
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
