"""Compare two sets of benchmark results, a parent and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

Each file holds the records `perfbench/run.py --record` appends.  For every
workload and end-to-end metric it prints each side's median and quartiles,
the pair wins of the change (pairs are runs with the same seed; ties count
for neither side) and a verdict against the metric's bound:

  improved     the change wins at least 9 in 10 pairs and its median is
               better by more than the parent's quartile spread;
  unresolved   the parent's spread (quartile distance / median) exceeds the
               bound, and not every change run beats every parent run;
  regressed    the change's median is worse by more than bound x parent median;
  within bound otherwise.

Traced records, when both files have them, add a table of per-layer medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def by_seed(records: list, workload: str, trace: int, metric: str) -> dict:
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]}


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, str]:
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(list(parent.values()))
    _, cm, _ = quartiles(list(change.values()))
    pairs = sorted(set(parent) & set(change))
    wins = sum(1 for s in pairs if sign * (parent[s] - change[s]) > 0)
    gain = sign * (pm - cm)  # > 0 when the change is better
    all_better = all(sign * (p - c) > 0 for p in parent.values() for c in change.values())
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        result = "improved"
    elif (p3 - p1) / pm > bound and not all_better:
        result = "unresolved"
    elif -gain > bound * pm:
        result = "regressed"
    else:
        result = "within bound"
    return result, f"{wins}/{len(pairs)}"


def fmt(values: dict) -> str:
    q1, med, q3 = quartiles(list(values.values()))
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':16} {'metric':14} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'wins':6} verdict")
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            p = by_seed(parent, wl["name"], 0, metric["name"])
            c = by_seed(change, wl["name"], 0, metric["name"])
            if not p or not c:
                continue
            result, wins = verdict(p, c, metric["better"], metric["bound"])
            print(f"{wl['name']:16} {metric['name']:14} {fmt(p):32} {fmt(c):32} "
                  f"{wins:6} {result}")

    rows = []
    for wl in spec["workloads"]:
        for metric in spec["per_layer"]:
            p = by_seed(parent, wl["name"], 1, metric["name"])
            c = by_seed(change, wl["name"], 1, metric["name"])
            if p and c and (any(p.values()) or any(c.values())):
                rows.append((wl["name"], metric["name"], statistics.median(p.values()),
                             statistics.median(c.values()), metric["unit"]))
    if rows:
        print(f"\n{'workload':16} {'per-layer metric':30} {'parent':>12} {'change':>12} unit")
        for wl, name, pm, cm, unit in rows:
            print(f"{wl:16} {name:30} {pm:12.5g} {cm:12.5g} {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
