"""``run.py compare A/ B/``: is B (a change) no worse than A (its parent)?

Both directories hold ``--out`` records of repeated runs.  Runs of one
workload are paired by seed, so that the traffic a seed generates cancels
out of the comparison.  Per workload and metric this prints each side's
median and quartiles, how many pairs B wins, the median of the per-pair
ratios B/A, their spread (quartile distance over median), and a verdict:

* **improved** — B wins at least 9 of 10 pairs and its median beats A's
  by more than A's quartile distance;
* **regressed** — the median ratio says B is worse than A by more than
  the bound in ``BENCHMARK.json``, and either the ratio spread is within
  the bound or B loses every pair;
* **unresolved** — the ratio spread exceeds the bound, unless every B run
  reads better than every A run;
* **no-worse** — otherwise.

Wall metrics are judged twice: on the values rescaled to the reference
host speed (``hostspeed.py``), and on the raw wall values every record
keeps.  Where the two verdicts differ, the row is flagged: the rescaling
may have hidden or invented a change there.  Per-layer metrics have no
bound and are listed with verdict ``info``.  Exit status 1 when any
verdict, rescaled or raw, is regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]

IMPROVED, NO_WORSE, REGRESSED, UNRESOLVED, INFO = (
    "improved", "no-worse", "regressed", "unresolved", "info")


def load(directory: str) -> List[dict]:
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                records.append(json.load(handle))
    return records


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: List[float]) -> float:
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def judge(pairs: List[Tuple[float, float]], better: str,
          bound: Optional[float]) -> Dict[str, object]:
    """The verdict for one metric over seed-matched (A, B) value pairs;
    see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1_a, q3_a = quartiles(a)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    row = {"median_a": med_a, "median_b": med_b, "q_a": (q1_a, q3_a),
           "q_b": quartiles(b), "wins": wins, "losses": losses,
           "pairs": len(pairs), "ratio": None, "spread": None,
           "worse": None, "verdict": INFO}
    if bound is None:
        return row
    # end-to-end metrics are never 0, so every ratio is defined
    ratios = [y / x for x, y in pairs]
    ratio = statistics.median(ratios)
    worse = sign * (1.0 - ratio)            # > 0: B worse, as a share
    ratio_spread = spread(ratios)
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    if wins >= 0.9 * len(pairs) and sign * (med_b - med_a) > q3_a - q1_a:
        verdict = IMPROVED
    elif worse > bound and (ratio_spread <= bound or losses == len(pairs)):
        verdict = REGRESSED
    elif ratio_spread > bound and not all_better:
        verdict = UNRESOLVED
    else:
        verdict = NO_WORSE
    row.update(ratio=ratio, spread=ratio_spread, worse=worse,
               verdict=verdict)
    return row


def pair_up(a: List[dict], b: List[dict]) -> List[Tuple[dict, dict]]:
    """Pair runs of one workload by seed, in order within a seed; runs
    without a partner of the same seed are left out."""
    by_seed: Dict[int, List[dict]] = {}
    for record in b:
        by_seed.setdefault(record["seed"], []).append(record)
    pairs = []
    for record in a:
        matches = by_seed.get(record["seed"])
        if matches:
            pairs.append((record, matches.pop(0)))
    return pairs


def same_verdicts(a: dict, b: dict) -> bool:
    """Equal verdict digests on every episode both runs served (episode
    *i* of a seed serves the same traffic in every run)."""
    n = min(len(a["episode_digests"]), len(b["episode_digests"]))
    return a["episode_digests"][:n] == b["episode_digests"][:n]


def compare(a_records: List[dict], b_records: List[dict],
            benchmark: dict) -> List[Dict[str, object]]:
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in benchmark["end_to_end"]}
    directions = {m["name"]: (m["better"], None)
                  for m in benchmark["per_layer"]}
    rows = []
    workloads = sorted({r["workload"] for r in a_records}
                       & {r["workload"] for r in b_records})
    for workload in workloads:
        for trace, field, specs in ((0, "metrics", bounds),
                                    (1, "layers", directions)):
            pairs = pair_up(
                [r for r in a_records
                 if r["workload"] == workload and r["trace"] == trace],
                [r for r in b_records
                 if r["workload"] == workload and r["trace"] == trace])
            if not pairs:
                continue
            digests = all(same_verdicts(x, y) for x, y in pairs)
            for name, (better, bound) in specs.items():
                if not all(name in x[field] and name in y[field]
                           for x, y in pairs):
                    continue
                row = judge([(x[field][name]["value"],
                              y[field][name]["value"]) for x, y in pairs],
                            better, bound)
                raw = None
                if bound is not None and all(
                        name in x.get("raw_wall", {})
                        and name in y.get("raw_wall", {})
                        for x, y in pairs):
                    raw = judge([(x["raw_wall"][name], y["raw_wall"][name])
                                 for x, y in pairs], better, bound)
                row.update(workload=workload, metric=name, bound=bound,
                           unit=pairs[0][0][field][name]["unit"],
                           raw_verdict=raw and raw["verdict"],
                           raw_ratio=raw and raw["ratio"],
                           digests_equal=digests)
                rows.append(row)
    return rows


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", help="parent's result directory")
    parser.add_argument("b", help="change's result directory")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    rows = compare(load(args.a), load(args.b), benchmark)
    print(f"{'workload':<11}{'metric':<32}{'unit':>10}{'median A':>13}"
          f"{'median B':>13}{'IQR A':>19}{'IQR B':>19}{'wins':>7}"
          f"{'B/A':>8}{'spread':>8}  {'verdict':<11}raw B/A, verdict")
    for row in rows:
        qa, qb = row["q_a"], row["q_b"]
        ratio = (f"{row['ratio']:>8.3f}{100 * row['spread']:>7.1f}%"
                 if row["ratio"] is not None else f"{'':>16}")
        raw = (f"{row['raw_ratio']:.3f} {row['raw_verdict']}"
               if row["raw_verdict"] else "")
        print(f"{row['workload']:<11}{row['metric']:<32}{row['unit']:>10}"
              f"{row['median_a']:>13.4f}{row['median_b']:>13.4f}"
              f"{qa[0]:>9.3f}-{qa[1]:<9.3f}{qb[0]:>9.3f}-{qb[1]:<9.3f}"
              f"{row['wins']:>3}/{row['pairs']:<3}{ratio}"
              f"  {row['verdict']:<11}{raw}")
    mismatched = sorted({r["workload"] for r in rows
                         if not r["digests_equal"]})
    if mismatched:
        print("verdict digests differ between A and B on: "
              + ", ".join(mismatched))
    disagree = [f"{r['workload']} {r['metric']} (rescaled {r['verdict']}, "
                f"raw {r['raw_verdict']})" for r in rows
                if r["raw_verdict"] and r["raw_verdict"] != r["verdict"]]
    if disagree:
        print("raw and rescaled verdicts differ on: " + "; ".join(disagree))
    return 1 if any(REGRESSED in (r["verdict"], r["raw_verdict"])
                    for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
