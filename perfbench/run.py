#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload static_paper --seed 1 --seconds 45 --trace 0

The first run configures and builds perfbench/ (the library sources under
src/ plus the driver, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only check the
build is current. The driver's report goes to standard output and its last
line is the JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("static_paper", "ingest_window")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The driver prints the counts that depend only on the inputs on this line;
# they must repeat exactly for a seed.
EXACT_PREFIX = "exact counts: "


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step, echoing its output to stderr only on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(root):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources (src/) next to perfbench/; run from a full "
             "checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", source, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], timeout=840)
    binary = os.path.join(build_dir, "mbi_perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def check_counts(binary, args, lines):
    """Compares the exact counts of a run with the last run of the same
    workload, seed, length, trace mode and binary; returns a line per
    difference."""
    exact = [line for line in lines if line.startswith(EXACT_PREFIX)]
    if not exact:
        return ["COUNT MISMATCH: the driver printed no exact counts"]
    counts = json.loads(exact[-1][len(EXACT_PREFIX):])
    path = os.path.join(os.path.dirname(binary), "exact_counts.json")
    try:
        with open(path, encoding="utf-8") as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    stat = os.stat(binary)
    key = (f"{args.workload}/{args.seed}/{args.seconds}/{args.trace}/"
           f"{stat.st_size}/{stat.st_mtime_ns}")
    before = seen.get(key)
    seen[key] = counts
    with open(path, "w", encoding="utf-8") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    if before is None:
        return []
    names = sorted(set(before) | set(counts))
    return [f"COUNT MISMATCH {name}: {before.get(name)} earlier, "
            f"{counts.get(name)} now"
            for name in names if before.get(name) != counts.get(name)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170, check=False)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("driver printed no JSON result")
    if set(result) != RESULT_KEYS:
        fail(f"unexpected result keys {sorted(result)}")
    flags = check_counts(binary, args, lines[:-1])
    sys.stdout.write("\n".join(lines[:-1] + flags + lines[-1:]) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
