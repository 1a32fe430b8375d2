#!/usr/bin/env python3
"""Gates perfbench smoke runs on correctness, not speed.

Usage: check_perfbench.py [--benchmark BENCHMARK.json] RUN_OUTPUT...

Each RUN_OUTPUT is the standard output of one `python3 perfbench/run.py`
invocation: mbi_perfbench's report, any COUNT MISMATCH lines run.py added,
and the JSON result on the last line. A run fails the gate when

  * it printed no JSON result;
  * its result says "correct": false (mbi_perfbench's own checks: exact
    answers against the oracle, and the traced reconcile lines);
  * its result counts failed operations (failed > 0);
  * run.py flagged a COUNT MISMATCH: the exact counts of a traced run
    differed from an earlier run of the same workload, seed and binary;
  * it is an untraced run (trace=0 on mbi_perfbench's first line) and its
    metrics lack an end-to-end metric BENCHMARK.json declares.

Timings are not judged: a smoke run on a shared runner is too short and too
noisy for that, and BENCHMARK.json's bounds are checked on full runs. For
each traced run the gate prints the reconcile margin, the unattributed
`core.search_other_us` against `query.replay_mean_us`: the replayed parts
are subtracted from the traced query mean, so an engine that gets faster
than its replay drives that margin toward zero, and below zero the run is
"correct": false.
"""

import argparse
import json
import re
import sys

HEADER_RE = re.compile(r"^mbi_perfbench .*\btrace=(\d)")


def reconcile_margin(result):
    """The reconcile margin line of a traced run, or None when the run has
    no layer table."""
    metrics = result.get("metrics") or {}
    try:
        other = float(metrics["core.search_other_us"]["value"])
        mean = float(metrics["query.replay_mean_us"]["value"])
    except (KeyError, TypeError, ValueError):
        return None
    share = f"{100.0 * other / mean:.1f}%" if mean > 0 else "n/a"
    return (f"reconcile margin: other {other:.1f} us of replay mean "
            f"{mean:.1f} us ({share})")


def check_run(path, end_to_end):
    """Returns the list of problems found in one run's output, and the
    reconcile margin line of a traced run (None otherwise)."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().rstrip("\n").split("\n")
    problems = []
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return ["no JSON result on the last line"], None
    if not isinstance(result, dict):
        return ["the last line is not a JSON object"], None
    if result.get("correct") is not True:
        problems.append(f'"correct": {json.dumps(result.get("correct"))}')
    failed = result.get("failed")
    if not isinstance(failed, int) or failed > 0:
        problems.append(f"failed = {failed}")
    for line in lines[:-1]:
        if line.startswith("COUNT MISMATCH"):
            problems.append(line)
    trace = None
    for line in lines:
        match = HEADER_RE.match(line)
        if match:
            trace = int(match.group(1))
            break
    if trace is None:
        problems.append("no header line (mbi_perfbench ... trace=N)")
    elif trace == 0:
        metrics = result.get("metrics") or {}
        for name in end_to_end:
            if name not in metrics:
                problems.append(f"end-to-end metric {name} missing")
    margin = reconcile_margin(result) if trace == 1 else None
    return problems, margin


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--benchmark", default="BENCHMARK.json",
                        help="benchmark declaration naming the end-to-end "
                        "metrics (default: BENCHMARK.json)")
    parser.add_argument("runs", nargs="+", help="run.py outputs to check")
    args = parser.parse_args(argv)

    with open(args.benchmark, encoding="utf-8") as f:
        end_to_end = [m["name"] for m in json.load(f)["end_to_end"]]

    failures = 0
    for path in args.runs:
        problems, margin = check_run(path, end_to_end)
        status = "FAIL" if problems else "ok"
        print(f"[{status}] {path}")
        if margin is not None:
            print(f"    {margin}")
        for problem in problems:
            print(f"    {problem}")
        failures += bool(problems)
    print(f"{len(args.runs)} runs, {failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
