#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per workload and metric.

    python3 benchmarks/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as ``run.py --out`` appends them.  For every
(workload, metric) it prints each side's run count, median and quartiles,
and a verdict on NEW against BASE:

better      NEW wins at least nine tenths of ten or more pairs (ties
            count for neither) and the medians differ by more than BASE's
            spread, q3 - q1 of its runs.
worse       end-to-end: NEW's median is worse than BASE's by more than the
            metric's bound (a share of BASE's median, from BENCHMARK.json).
            Per-layer metrics have no bound: the rule for "better", reversed.
unresolved  BASE's spread, as a share of its median, is wider than the
            bound, and not every NEW run is better than every BASE run;
            for per-layer metrics, the medians differ by more than BASE's
            spread without either side winning nine tenths of the pairs.
unchanged   otherwise.

Runs pair by seed where both sides ran a seed, the rest in file order.
The exit code is 1 when an end-to-end metric is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10  # a gain or loss by pair wins needs at least ten pairs


def load_runs(path: Path) -> dict[tuple[str, str], list[tuple[int, float]]]:
    """(workload, metric) -> [(seed, value)] over the file's runs, in order."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, metric in rec["metrics"].items():
                runs[(rec["workload"], name)].append((rec["seed"], float(metric["value"])))
    return runs


def pair_up(base: list[tuple[int, float]], new: list[tuple[int, float]]) -> list[tuple[float, float]]:
    new_by_seed = defaultdict(list)
    for seed, value in new:
        new_by_seed[seed].append(value)
    pairs, base_rest = [], []
    for seed, value in base:
        if new_by_seed[seed]:
            pairs.append((value, new_by_seed[seed].pop(0)))
        else:
            base_rest.append(value)
    new_rest = [v for values in new_by_seed.values() for v in values]
    pairs += list(zip(base_rest, new_rest))
    return pairs


def verdict(base: list[tuple[int, float]], new: list[tuple[int, float]], lower_is_better: bool,
            bound: float | None) -> str:
    b = [v for _, v in base]
    n = [v for _, v in new]
    sign = -1.0 if lower_is_better else 1.0  # sign * (x - y) > 0: x is better than y
    b1, b_med, b3 = quartiles(b)
    n_med = statistics.median(n)
    spread = b3 - b1
    pairs = pair_up(base, new)
    new_wins = sum(sign * (y - x) > 0 for x, y in pairs)
    base_wins = sum(sign * (x - y) > 0 for x, y in pairs)
    differ = abs(n_med - b_med) > spread
    enough = len(pairs) >= MIN_PAIRS
    if enough and new_wins >= 0.9 * len(pairs) and differ and sign * (n_med - b_med) > 0:
        return "better"
    if bound is None:
        if enough and base_wins >= 0.9 * len(pairs) and differ and sign * (b_med - n_med) > 0:
            return "worse"
        return "unresolved" if differ else "unchanged"
    if sign * (b_med - n_med) > bound * abs(b_med):
        return "worse"
    all_better = all(sign * (y - x) > 0 for x in b for y in n)
    if spread > bound * abs(b_med) and not all_better:
        return "unresolved"
    return "unchanged"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args()

    spec = json.loads(BENCHMARK_JSON.read_text())
    metrics = {m["name"]: (m, True) for m in spec["end_to_end"]}
    metrics.update({m["name"]: (m, False) for m in spec["per_layer"]})
    workloads = [w["name"] for w in spec["workloads"]]
    base, new = load_runs(args.base), load_runs(args.new)

    worse_e2e = []
    print(f"{'workload':<16} {'metric':<50} {'n':>5} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34}  verdict")
    for workload in workloads:
        for name, (m, e2e) in metrics.items():
            key = (workload, name)
            if not base.get(key) or not new.get(key):
                continue
            v = verdict(base[key], new[key], m["better"] == "lower", m.get("bound"))
            if e2e and v == "worse":
                worse_e2e.append(key)
            cells = []
            for runs in (base[key], new[key]):
                q1, q2, q3 = quartiles([x for _, x in runs])
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
            counts = f"{len(base[key])}/{len(new[key])}"
            print(f"{workload:<16} {name:<50} {counts:>5} {cells[0]:>34} {cells[1]:>34}  {v}")
    if worse_e2e:
        print("worse end-to-end: " + ", ".join(f"{w}/{n}" for w, n in worse_e2e))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
