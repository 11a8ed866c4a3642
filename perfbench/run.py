#!/usr/bin/env python3
"""End-to-end and per-layer host-speed benchmark of the simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload intsort --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

The first form builds the simulator library and the benchmark binary,
perfbench_e2e, from this checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the script refuses to print a result whose
metric names or units differ from that file.

--self-check runs every workload at a tiny scale, traced and untraced,
checks that every metric prints by name with its unit, and checks that
a forced checksum mismatch is counted in cells_failed.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
SELF_CHECK_SCALE = "0.004"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure and build perfbench_e2e; returns the binary's path."""
    out = build_dir()
    configure = ["cmake", "-S", SOURCE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                             stderr=sys.stderr)
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_e2e")


def git_describe():
    """`git describe` of the checkout, without looking above it."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "not a git checkout"
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, args, extra=()):
    """Run perfbench_e2e; returns (human-readable lines, result object)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-describe", git_describe()]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir(), "spans-%s.jsonl" % args.workload)]
    cmd += list(extra)
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench_e2e exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(res.stderr)
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        fail("perfbench_e2e exited with code %d" % res.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench_e2e's last line is not JSON: " + lines[-1])
    return lines[:-1], result


def check_result(result, expected):
    """Problems with @result against the expected {name: unit} map."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys: %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "unexpected %s" % (
                            sorted(set(expected) - set(got)),
                            sorted(set(got) - set(expected))))
    for name, v in result["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    return problems


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def self_check(binary, spec):
    """Tiny-scale run of every workload; returns a list of problems."""
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=0xE7F5EED5,
                                      seconds=0.1, trace=trace)
            lines, result = run_binary(binary, args,
                                       ["--scale", SELF_CHECK_SCALE])
            where = "%s --trace %d: " % (w["name"], trace)
            expected = expected_metrics(spec, trace)
            problems += [where + p for p in check_result(result, expected)]
            printed = {}
            for line in lines:
                m = re.match(r"metric (\S+) (\S+) (\S+)", line)
                if m:
                    printed[m.group(1)] = m.group(3)
            for name, unit in expected.items():
                if printed.get(name) != unit:
                    problems.append(where + "metric %s not printed with "
                                    "unit %s" % (name, unit))
            if printed.get("cells_failed") != "count":
                problems.append(where + "cells_failed not printed")
            if not result.get("correct") or result.get("failed"):
                problems.append(where + "cells failed at the tiny scale")
        args = argparse.Namespace(workload=w["name"], seed=0xE7F5EED5,
                                  seconds=0.1, trace=0)
        _, result = run_binary(binary, args, ["--scale", SELF_CHECK_SCALE,
                                              "--corrupt-checksum"])
        if result.get("correct") or result.get("failed", 0) < 1:
            problems.append("%s: a forced checksum mismatch did not show "
                            "in cells_failed" % w["name"])
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=0xE7F5EED5)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.self_check and args.workload not in names:
        fail("--workload must be one of %s" % names)
    if args.seed < 0 or args.seed >= 1 << 64:
        fail("--seed must fit in 64 bits")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    if args.self_check:
        problems = self_check(binary, spec)
        for prob in problems:
            print("self-check: " + prob)
        print("self-check %s" % ("FAILED" if problems else "passed"))
        sys.exit(1 if problems else 0)

    lines, result = run_binary(binary, args)
    problems = check_result(result, expected_metrics(spec, args.trace))
    if problems:
        fail("; ".join(problems))
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
