#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload.

    python3 e2ebench/compare.py BASE.jsonl NEW.jsonl
    python3 e2ebench/compare.py --summary RUNS.jsonl

Each file holds the records run.py appends with --out (one JSON line per
run).  End-to-end metrics come from the untraced runs (--trace 0),
per-layer metrics from the traced runs (--trace 1).  For every metric the
tool prints each side's median with its run count, the change of the
median, and the spread (interquartile range / median) of each side.  An
end-to-end metric whose median got worse by more than its BENCHMARK.json
bound is marked WORSE; otherwise, one whose spread exceeds the bound is
marked unresolved.  --summary prints one side's medians, quartiles and spread.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: [values]}} and {metric: unit}."""
    runs, units = {}, {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        key = (rec["workload"], rec["trace"])
        for name, m in rec["metrics"].items():
            runs.setdefault(key, {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return runs, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def fmt(v):
    return f"{v:.6g}"


def summary(path):
    runs, units = load(path)
    print("| workload | trace | metric | unit | n | median | q1 | q3 "
          "| spread |")
    print("|---|---|---|---|---:|---:|---:|---:|---:|")
    for (workload, trace), metrics in sorted(runs.items()):
        for name, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            print(f"| {workload} | {trace} | {name} | {units[name]} "
                  f"| {len(values)} | {fmt(q2)} | {fmt(q1)} | {fmt(q3)} "
                  f"| {spread(values):.3f} |")


def compare(base_path, new_path):
    spec = json.loads(SPEC.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    base, units = load(base_path)
    new, _ = load(new_path)
    worse = 0
    print("| workload | metric | unit | base (n) | new (n) | change "
          "| spread base / new | verdict |")
    print("|---|---|---|---:|---:|---:|---:|---|")
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        catalogue = layer if trace else e2e
        for name in catalogue:
            a = base.get(key, {}).get(name)
            b = new.get(key, {}).get(name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            verdict = ""
            if not trace:
                m = catalogue[name]
                worse_by = change if m["better"] == "lower" else -change
                if worse_by > m["bound"]:
                    verdict = "WORSE"
                    worse += 1
                elif max(spread(a), spread(b)) > m["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = f"within {m['bound']:g}"
            print(f"| {workload} | {name} | {units.get(name, '')} "
                  f"| {fmt(ma)} ({len(a)}) | {fmt(mb)} ({len(b)}) "
                  f"| {change:+.2%} | {spread(a):.3f} / {spread(b):.3f} "
                  f"| {verdict} |")
    return 1 if worse else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+", metavar="RUNS.jsonl")
    ap.add_argument("--summary", action="store_true")
    args = ap.parse_args(argv)
    if args.summary:
        for path in args.files:
            summary(path)
        return 0
    if len(args.files) != 2:
        ap.error("give two run files to compare, or --summary")
    return compare(*args.files)


if __name__ == "__main__":
    sys.exit(main())
