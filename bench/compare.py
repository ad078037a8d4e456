"""Compare two sets of benchmark runs, workload by workload.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``bench/run.py --out FILE`` appended, any
number of runs of any workloads.  For every workload and end-to-end
metric the two sides' medians get one verdict:

* ``unresolved``  either side's spread (q3 - q1 over the median) is wider
                  than the metric's bound, and not every change run reads
                  better than every parent run;
* ``worse``       the change's median is worse by more than the bound;
* ``better``      the change's median is better by more than the parent's
                  own spread;
* ``same``        otherwise.

For each ``worse`` the per-layer entry whose self time grew most between
the two sides' traced runs is named.  Runs of one workload and seed must
also agree on their exact outputs (simulated cycles, artifacts, sampled
estimates, fuzz findings); a difference in either direction is printed as
``changed``.  The median host calibration of each side is printed, so a
comparison across machines or a busy host stands out.  Exit status 1 when
anything is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional

from run import load_spec


def load_records(path: str) -> Dict[str, List[dict]]:
    by_workload: Dict[str, List[dict]] = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                by_workload[record["workload"]].append(record)
    return by_workload


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    sign = 1 if better == "lower" else -1
    base, new = statistics.median(parent), statistics.median(change)
    worse_by = sign * (new - base) / base if base else 0.0
    if max(spread(parent), spread(change)) > bound:
        wins = all(sign * (c - p) < 0 for c in change for p in parent)
        return "better" if wins else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(parent):
        return "better"
    return "same"


def grew_most(parent: List[dict], change: List[dict]) -> Optional[str]:
    """The per-layer ``*.self_s`` that grew most between traced runs."""
    def medians(records):
        values = defaultdict(list)
        for record in records:
            for name, value in record.get("per_layer", {}).items():
                if name.endswith(".self_s"):
                    values[name].append(value)
        return {name: statistics.median(v) for name, v in values.items()}

    before, after = medians(parent), medians(change)
    common = set(before) & set(after)
    if not common:
        return None
    name = max(common, key=lambda n: after[n] - before[n])
    return (f"{name} {before[name]:.4g} s -> {after[name]:.4g} s "
            f"({after[name] - before[name]:+.4g} s)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_spec()
    parent, change = load_records(args.parent), load_records(args.change)

    for label, records in (("parent", parent), ("change", change)):
        calib = [r["calib_s"] for runs in records.values() for r in runs]
        if calib:
            print(f"{label}: {len(calib)} run(s), median host calibration "
                  f"{statistics.median(calib):.4f} s")
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        p_runs = [r for r in parent[workload] if not r["trace"]]
        c_runs = [r for r in change[workload] if not r["trace"]]
        print(f"{workload}: {len(p_runs)} vs {len(c_runs)} untraced run(s)")
        for metric in spec["end_to_end"] if p_runs and c_runs else ():
            name = metric["name"]
            a = [r["end_to_end"][name] for r in p_runs]
            b = [r["end_to_end"][name] for r in c_runs]
            result = verdict(a, b, metric["better"], metric["bound"])
            base, new = statistics.median(a), statistics.median(b)
            print(f"  {name:<12} {base:>14.6g} -> {new:<14.6g} "
                  f"{metric['unit']:<8} {new / base - 1:+8.2%}  {result}")
            if result == "worse":
                worse += 1
                culprit = grew_most(parent[workload], change[workload])
                print(f"    grew most: {culprit or 'no traced runs on both sides'}")
        seeds = defaultdict(lambda: ([], []))
        for side, runs in ((0, parent[workload]), (1, change[workload])):
            for record in runs:
                seeds[record["seed"]][side].append(record["exact"])
        for seed, (a_exact, b_exact) in sorted(seeds.items()):
            if a_exact and b_exact and a_exact[0] != b_exact[0]:
                print(f"  changed: exact outputs of seed {seed} differ")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
