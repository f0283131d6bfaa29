"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are files or directories of saved run.py output (the
`perfbench-record` lines are read; other lines are ignored).  Runs pair up
by (workload, seed), or in order when the seeds differ.  For each workload
and end-to-end metric the table gives both sides' median and quartiles, the
pairs the change won, and a verdict: "better" (or "worse") needs the
change to win (or lose) at least nine tenths of the pairs, ties counting
for neither, and the medians to differ by more than the parent's
interquartile range; anything else is "unresolved".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from run import END_TO_END, RECORD_PREFIX, REPORTED

HIGHER_IS_BETTER = {"divisor_tests_per_s"}


def load(path: str) -> List[dict]:
    p = Path(path)
    files = sorted(p.rglob("*")) if p.is_dir() else [p]
    records = []
    for f in files:
        if not f.is_file():
            continue
        for line in f.read_text(errors="replace").splitlines():
            if line.startswith(RECORD_PREFIX):
                records.append(json.loads(line[len(RECORD_PREFIX):]))
    return records


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent: List[dict], change: List[dict]) -> List[Tuple[dict, dict]]:
    """Runs of equal seed, when the seeds are distinct on both sides; else in order."""
    by_seed = {r["facts"]["seed"]: r for r in change}
    matched = [(r, by_seed[r["facts"]["seed"]]) for r in parent if r["facts"]["seed"] in by_seed]
    distinct = len(by_seed) == len(change) and len({r["facts"]["seed"] for r in parent}) == len(parent)
    if distinct and len(matched) == min(len(parent), len(change)):
        return matched
    return list(zip(parent, change))


def verdict(parent: Sequence[float], change: Sequence[float], pair_values: Sequence[Tuple[float, float]],
            higher_better: bool) -> Tuple[str, int, int]:
    """(verdict, pairs the change won, pairs the parent won)."""
    sign = 1 if higher_better else -1
    won = sum(1 for a, b in pair_values if sign * (b - a) > 0)
    lost = sum(1 for a, b in pair_values if sign * (b - a) < 0)
    q1, med_parent, q3 = quartiles(parent)
    gap = abs(statistics.median(change) - med_parent)
    n = len(pair_values)
    if n and gap > q3 - q1:
        if won >= 0.9 * n:
            return "better", won, lost
        if lost >= 0.9 * n:
            return "worse", won, lost
    return "unresolved", won, lost


def compare(parent: List[dict], change: List[dict]) -> List[List[str]]:
    rows = []
    workloads = sorted({r["facts"]["workload"] for r in parent} & {r["facts"]["workload"] for r in change})
    for workload in workloads:
        mine = [r for r in parent if r["facts"]["workload"] == workload]
        theirs = [r for r in change if r["facts"]["workload"] == workload]
        matched = pairs(mine, theirs)
        for metric, unit in list(END_TO_END.items()) + list(REPORTED.items()):
            a = [r["metrics"][metric] for r in mine if r["metrics"].get(metric) is not None]
            b = [r["metrics"][metric] for r in theirs if r["metrics"].get(metric) is not None]
            if not a or not b:
                continue
            pv = [(x["metrics"][metric], y["metrics"][metric]) for x, y in matched
                  if x["metrics"].get(metric) is not None and y["metrics"].get(metric) is not None]
            v, won, lost = verdict(a, b, pv, metric in HIGHER_IS_BETTER)
            rows.append([workload, metric, unit, fmt(a), fmt(b), "%d/%d" % (won, len(pv)), v])
    return rows


def fmt(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return "%.5g [%.5g, %.5g] n=%d" % (med, q1, q3, len(values))


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    if not parent or not change:
        print("compare: no perfbench-record lines in %s" % (argv[0] if not parent else argv[1]), file=sys.stderr)
        return 2
    header = ["workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict"]
    rows = [header] + compare(parent, change)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
