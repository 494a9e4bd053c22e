#!/usr/bin/env python3
"""Benchmark driver for the xdmodml production path.

Builds the library and the harness from this checkout (CMake, Release,
into .bench_build/), runs one workload in its own process and prints
its result as the last line of standard output:

    python3 perfbench/run.py --workload svm_table2 --seed 7 --seconds 10 --trace 0

    --workload  svm_table2 | forest_table2 | mixed_stream | all
    --trace 1   traced run: per-layer metrics plus a Chrome trace in
                .bench_build/traces/
    --self-test harness self-tests (statistics, tail rule, span checks,
                input digests, metric names against BENCHMARK.json,
                the steadiness spread rule)

Exit codes: 0 success, 2 a correctness gate failed, 1 anything else
(build failure, missing sources, malformed result).
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "perfbench_harness"
WORKLOADS = ("svm_table2", "forest_table2", "mixed_stream")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170
# A run whose host lost more than this share of its CPU time to the
# hypervisor is flagged: its figures are not comparable with others.
STEAL_WARN = 0.03


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no library sources in this checkout (src/ missing)")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"perfbench: {' '.join(cmd)} failed: {exc}")
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: {' '.join(cmd)} exited {proc.returncode}")
            return False
    return HARNESS.is_file()


def source_identity():
    """Git SHA when this is a git checkout, and a digest of the sources."""
    sha = "none"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def declared_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def check_result(result, trace):
    """Problems with a harness result object; empty when well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    e2e, layers = declared_names()
    expected = set(layers if trace else e2e)
    got = set(result["metrics"])
    for name in sorted(got):
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} is malformed")
    if got - expected:
        problems.append(f"undeclared metrics {sorted(got - expected)}")
    if expected - got:
        problems.append(f"missing metrics {sorted(expected - got)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    return problems


def steal_share(report_lines):
    """The steal share from the harness's fingerprint line, or None."""
    for line in report_lines:
        if line.startswith("fingerprint "):
            try:
                return float(json.loads(line[len("fingerprint "):])["steal_share"])
            except (ValueError, KeyError, TypeError):
                return None
    return None


def run_workload(workload, seed, seconds, trace, sha, digest):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    env = dict(os.environ, PERFBENCH_GIT_SHA=sha,
               PERFBENCH_SOURCE_DIGEST=digest)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    # Everything but the result line is the human report.
    print("\n".join(lines[:-1]), flush=True)
    steal = steal_share(lines[:-1])
    if steal is not None and steal > STEAL_WARN:
        log(f"perfbench: WARNING {workload}: the host stole {steal:.1%} of its "
            f"CPU time during this run; do not compare its figures")
    if proc.returncode not in (0, 2):
        log(f"perfbench: harness exited {proc.returncode}")
        return 1, None
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("perfbench: harness printed no result line")
        return 1, None
    problems = check_result(result, trace)
    if problems:
        log("perfbench: malformed result: " + "; ".join(problems))
        return 1, None
    if proc.returncode == 2 or not result["correct"]:
        return 2, result
    return 0, result


def self_test():
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        failures += 0 if ok else 1

    proc = subprocess.run([str(HARNESS), "--self-test"])
    expect(proc.returncode == 0, "harness statistics and span self-tests")

    def digest_of(workload, seed):
        out = subprocess.run([str(HARNESS), "--digest", workload, "--seed",
                              str(seed)], stdout=subprocess.PIPE, text=True,
                             check=True)
        return out.stdout.strip()

    for workload in WORKLOADS:
        a, b, c = (digest_of(workload, s) for s in (11, 11, 12))
        expect(a == b, f"{workload}: same seed gives identical inputs ({a})")
        expect(a != c, f"{workload}: another seed gives other inputs ({c})")

    e2e, layers = declared_names()
    names = e2e + layers
    expect(all(NAME_RE.match(n) for n in names),
           "every declared metric name matches [A-Za-z0-9_.-]+")
    expect(len(names) == len(set(names)), "declared metric names are unique")
    good = {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {n: {"value": 1.0, "unit": "s"} for n in e2e}}
    expect(not check_result(good, False), "a complete result passes")
    bad = json.loads(json.dumps(good))
    bad["metrics"]["not declared"] = {"value": 1.0, "unit": "s"}
    expect(len(check_result(bad, False)) == 2,
           "an undeclared, malformed name is rejected")
    from steadiness import spread  # same directory as this script
    expect(spread(list(range(1, 11))) == (5.5, 2.75, 8.25, 1.0),
           "steadiness: median 5.5, quartiles 2.75 and 8.25 of 1..10")
    expect(steal_share(['fingerprint {"nproc": 4, "steal_share": 0.12}'])
           == 0.12 and steal_share(["no fingerprint"]) is None,
           "the steal share is read from the fingerprint line")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    sha, digest = source_identity()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    status = 0
    for workload in workloads:
        code, result = run_workload(workload, args.seed, args.seconds,
                                    args.trace == 1, sha, digest)
        status = max(status, code)
        if result is None:
            return 1
        results[workload] = result
    if args.workload == "all":
        for workload, result in results.items():
            print(f"{workload}: " + json.dumps(result))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {w: r["metrics"] for w, r in results.items()}}))
    else:
        print(json.dumps(results[args.workload]))
    return status


if __name__ == "__main__":
    sys.exit(main())
