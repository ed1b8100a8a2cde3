"""Compare two result sets.

    python3 perfbench/compare.py parent.jsonl change.jsonl

A result set is the JSON-lines file that ``run.py --out`` appends to, one
line per run. Each workload and metric gets both sides' median and quartiles, the fraction of seed-matched pairs the
second set wins (ties count for neither) and a verdict under the bounds of
BENCHMARK.json:

- improved: the change wins at least 9 of 10 pairs and its median beats the
  parent's by more than the parent's own interquartile distance;
- unresolved: the parent's interquartile spread is wider than the bound and
  not every run of the change beats every run of the parent;
- worse: the change's median is worse than the parent's by more than the bound;
- unchanged: otherwise.

Per-layer metrics have no bound; they get medians and a plain percentage.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> dict:
    """workload -> metric -> {seed: value}; later runs of a seed win."""
    out = defaultdict(lambda: defaultdict(dict))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["result"]["metrics"].items():
            out[rec["workload"]][name][rec["seed"]] = m["value"]
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(metric: dict, a: dict, b: dict) -> tuple:
    """(fraction of pairs won by b, verdict) for one metric."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # positive = worse
    seeds = sorted(set(a) & set(b))
    pairs = list(zip([a[s] for s in seeds], [b[s] for s in seeds])) or \
        list(zip(a.values(), b.values()))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    won = wins / len(pairs) if pairs else 0.0
    av, bv = list(a.values()), list(b.values())
    q1, a_med, q3 = quartiles(av)
    b_med = statistics.median(bv)
    if "bound" not in metric:
        return won, "-"
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    all_better = all(sign * (y - x) < 0 for x in av for y in bv)
    if won >= 0.9 and sign * (a_med - b_med) > q3 - q1:
        return won, "improved"
    if spread(av) > metric["bound"] and not all_better:
        return won, "unresolved"
    if worse_by > metric["bound"]:
        return won, "worse"
    return won, "unchanged"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def compare(path_a: str, path_b: str) -> int:
    a_set, b_set = load(path_a), load(path_b)
    print(f"{'workload':14s} {'metric':36s} {'parent q1/med/q3':>26s} "
          f"{'change q1/med/q3':>26s} {'won':>5s} verdict")
    worse = 0
    for workload in sorted(set(a_set) & set(b_set)):
        for name, metric in METRICS.items():
            a, b = a_set[workload].get(name), b_set[workload].get(name)
            if not a or not b:
                continue
            won, v = verdict(metric, a, b)
            if v == "-":
                a_med, b_med = statistics.median(a.values()), statistics.median(b.values())
                v = f"{100 * (b_med - a_med) / a_med:+.1f}%" if a_med else "-"
            worse += v == "worse"
            qa = "/".join(fmt(x) for x in quartiles(list(a.values())))
            qb = "/".join(fmt(x) for x in quartiles(list(b.values())))
            print(f"{workload:14s} {name:36s} {qa:>26s} {qb:>26s} {won:5.2f} {v}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare benchmark result sets")
    parser.add_argument("parent", help="result set of the parent")
    parser.add_argument("change", help="result set of the change")
    args = parser.parse_args(argv)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
