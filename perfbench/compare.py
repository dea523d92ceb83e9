"""Compare two result sets of the benchmark, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that ``run.py --trace 0`` writes.
Runs are paired by workload and seed.  Every end-to-end metric of every
workload gets its own row and one verdict:

improved       the change wins at least nine tenths of the pairs (ties count
               for neither side), and the medians differ by more than the
               distance between the parent's quartiles;
unresolved     the parent's own quartile spread is wider than the metric's
               bound and not every change run beats every parent run;
regressed      the change's median is worse than the parent's by more than
               the bound;
within bound   otherwise.

A gain does not count when more operations failed on the change.  Every
ratio is printed with its base, the parent's median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0 and "metrics" in record:
            runs[(record["workload"], record["seed"])] = record
    return runs


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better; ties count for neither side."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            parent_failed: int, change_failed: int) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) < 0 means a is better
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if (change_wins(parent, change, better) >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1
            and sign * (c_med - p_med) < 0 and change_failed <= parent_failed):
        return "improved"
    every_run_better = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    if (q3 - q1) / p_med > bound and not every_run_better:
        return "unresolved"
    if sign * (c_med - p_med) / p_med > bound:
        return "regressed"
    return "within bound"


def describe(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}..{q3:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = (load(Path(d)) for d in argv)
    print(f"{'workload':12s} {'metric':12s} {'unit':5s} {'parent median [q1..q3]':28s} "
          f"{'change median [q1..q3]':28s} {'change/parent (base)':28s} {'wins':7s} verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        seeds = sorted(seed for (w, seed) in parent if w == workload and (w, seed) in change)
        if len(seeds) < 2:
            print(f"{workload:12s} fewer than two paired runs ({len(seeds)}): unresolved")
            continue
        p_runs = [parent[(workload, s)] for s in seeds]
        c_runs = [change[(workload, s)] for s in seeds]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            wins = change_wins(p, c, metric["better"])
            base = statistics.median(p)
            ratio = f"{statistics.median(c) / base:.4f} x {base:.4g}"
            print(f"{workload:12s} {name:12s} {metric['unit']:5s} {describe(p):28s} {describe(c):28s} "
                  f"{ratio:28s} {wins:>2d}/{len(seeds):<4d} "
                  f"{verdict(p, c, metric['better'], metric['bound'], p_failed, c_failed)}")
        p_attempted = sum(r["attempted"] for r in p_runs)
        c_attempted = sum(r["attempted"] for r in c_runs)
        print(f"{workload:12s} {'failed_ratio':12s} {'ratio':5s} {f'{p_failed}/{p_attempted}':28s} "
              f"{f'{c_failed}/{c_attempted}':28s}")
        if len(seeds) < 10:
            print(f"{workload:12s} note: {len(seeds)} pairs; a claim needs at least ten")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
