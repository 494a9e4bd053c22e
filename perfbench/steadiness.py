#!/usr/bin/env python3
"""Steadiness check for the benchmark's end-to-end metrics.

Runs one workload once per seed through perfbench/run.py and prints,
for every end-to-end metric, the median, the first and third quartile
(Python's statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json, plus
the host steal share of every run:

    python3 perfbench/steadiness.py --workload forest_table2 --seeds 6001-6010

The values are kept in .bench_build/steadiness/<workload>-<first seed>.json.
Two such files of the same workload compare their medians:

    python3 perfbench/steadiness.py --compare A.json B.json

Exits 1 when a run fails, a spread exceeds its bound, or (with
--compare) the second median is worse than the first by more than the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "steadiness"


def metrics_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["run_seconds"]


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values):
    """(median, Q1, Q3, (Q3 - Q1) / median) as the acceptance rule takes it."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_seeds(workload, seeds, seconds):
    values = {"steal_share": []}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited {proc.returncode}")
            return None
        for line in lines:
            if line.startswith("fingerprint "):
                fingerprint = json.loads(line[len("fingerprint "):])
                values["steal_share"].append(fingerprint["steal_share"])
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: ok, steal {values['steal_share'][-1]:.3f}",
              flush=True)
    values["fingerprint"] = fingerprint
    values["seeds"] = seeds
    return values


def table(values, e2e):
    ok = True
    print("| metric | median | Q1 | Q3 | spread | bound | spread / bound |")
    print("|---|---|---|---|---|---|---|")
    for m in e2e:
        med, q1, q3, sp = spread(values[m["name"]])
        ok = ok and sp <= m["bound"]
        print(f"| `{m['name']}` | {med:.6g} | {q1:.6g} | {q3:.6g} | "
              f"{sp:.3f} | {m['bound']} | {sp / m['bound']:.2f} |")
    steal = values["steal_share"]
    print(f"\nsteal share per run: {' '.join(f'{s:.3f}' for s in steal)}")
    return ok


def compare(first, second, e2e):
    ok = True
    print("| metric | first median | second median | change | worse than bound |")
    print("|---|---|---|---|---|")
    for m in e2e:
        a = statistics.median(first[m["name"]])
        b = statistics.median(second[m["name"]])
        change = (b - a) / a if a else 0.0
        worse = change if m["better"] == "lower" else -change
        bad = worse > m["bound"]
        ok = ok and not bad
        print(f"| `{m['name']}` | {a:.6g} | {b:.6g} | {change:+.3f} | "
              f"{'yes' if bad else 'no'} |")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--compare", nargs=2, metavar="JSON")
    args = parser.parse_args()
    e2e, seconds = metrics_spec()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(first, second, e2e) else 1
    if not args.workload:
        parser.error("--workload or --compare is required")
    seeds = seed_list(args.seeds)
    if len(seeds) < 2:
        parser.error("at least two seeds are needed for quartiles")
    values = run_seeds(args.workload, seeds, seconds)
    if values is None:
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-{seeds[0]}.json"
    path.write_text(json.dumps(values))
    print(f"\n{args.workload}, seeds {args.seeds}, values in {path}\n")
    print("fingerprint " + json.dumps(values["fingerprint"]) + "\n")
    return 0 if table(values, e2e) else 1


if __name__ == "__main__":
    sys.exit(main())
