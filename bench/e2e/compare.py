#!/usr/bin/env python3
"""Spread report and parent-vs-change verdict for bench/e2e results.

A result directory holds one file per run, `<workload>.<seed>.json`, whose
last line is the JSON object run.sh prints (`run.sh --results DIR` writes
them). Metric names, directions and bounds come from BENCHMARK.json.

  compare.py DIR
      For every (workload, metric): the median, quartiles and spread
      (interquartile range over the median) of the runs in DIR, flagged
      when the spread exceeds a third of the metric's bound.

  compare.py PARENT_DIR CHANGE_DIR
      Pairs runs by (workload, seed). Run at least ten pairs, alternating
      which side runs first. For every (workload, metric) prints each
      side's median and quartiles, the change's pair wins, and a verdict:
        gain        the change wins >= 9/10 of the pairs and the medians
                    differ by more than the parent's interquartile range
        regression  the change's median is worse than the parent's by
                    more than the bound
        unresolved  the parent's spread is wider than the bound and not
                    every change run beats every parent run
        ok          otherwise
      A run that is not correct, or any rise in failed/attempted, fails
      the change. Exit status 1 when anything fails or regresses.

Per-layer metrics (from `run.sh --trace 1` runs, including the live.*
throughput and latency numbers) have no bound: they get `gain`, `loss`
(the gain rule with the sides swapped) or `-`.
"""

import argparse
import json
import os
import statistics
import sys


def load_dir(path):
    """{(workload, seed): result} for every <workload>.<seed>.json in path."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        workload, _, seed = name[: -len(".json")].rpartition(".")
        with open(os.path.join(path, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not workload or not lines:
            raise SystemExit(f"error: {path}/{name}: not a run result")
        runs[(workload, seed)] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fail_frac(result):
    return result["failed"] / max(result["attempted"], 1)


def by_workload(runs):
    out = {}
    for (workload, seed), result in runs.items():
        out.setdefault(workload, {})[seed] = result
    return out


def spread_report(runs, metrics):
    noisy = 0
    print(f"{'workload':<14} {'metric':<34} {'n':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for workload, seeds in sorted(by_workload(runs).items()):
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in seeds.values()
                      if m["name"] in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
                noisy += 1
            shown = f"{bound:.0%}" if bound is not None else "-"
            print(f"{workload:<14} {m['name']:<34} {len(values):>3} "
                  f"{med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.2%} "
                  f"{shown:>6}{flag}")
        bad = [s for s, r in seeds.items() if not r["correct"]]
        if bad:
            print(f"{workload:<14} incorrect runs: seeds {', '.join(bad)}")
            noisy += 1
    return 1 if noisy else 0


def verdicts(parent, change, metrics):
    status = 0
    pairs = sorted(set(parent) & set(change))
    if len(pairs) < 10:
        print(f"warning: {len(pairs)} pairs; a verdict needs at least 10",
              file=sys.stderr)
    for key in pairs:
        if not change[key]["correct"]:
            print(f"FAIL {key[0]} seed {key[1]}: change run is not correct")
            status = 1
    print(f"{'workload':<14} {'metric':<34} {'parent median [q1,q3]':>36} "
          f"{'change median [q1,q3]':>36} {'wins':>6}  verdict")
    for workload in sorted({w for w, _ in pairs}):
        keys = [k for k in pairs if k[0] == workload]
        pf = sum(parent[k]["failed"] for k in keys) / max(
            sum(parent[k]["attempted"] for k in keys), 1)
        cf = sum(change[k]["failed"] for k in keys) / max(
            sum(change[k]["attempted"] for k in keys), 1)
        if cf > pf:
            print(f"FAIL {workload}: failed/attempted rose "
                  f"{pf:.3g} -> {cf:.3g}")
            status = 1
        for m in metrics:
            name = m["name"]
            ks = [k for k in keys if name in parent[k]["metrics"]
                  and name in change[k]["metrics"]]
            if not ks:
                continue
            p = [parent[k]["metrics"][name]["value"] for k in ks]
            c = [change[k]["metrics"][name]["value"] for k in ks]
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            worse_by = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
            spread = (pq3 - pq1) / abs(pmed) if pmed else float("inf")
            all_better = min(sign * x for x in c) > max(sign * x for x in p)
            losses = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
            apart = abs(cmed - pmed) > pq3 - pq1
            bound = m.get("bound")
            if wins >= 0.9 * len(ks) and sign * (cmed - pmed) > 0 and apart:
                verdict = "gain"
            elif bound is None:
                verdict = ("loss" if losses >= 0.9 * len(ks) and apart
                           else "-")
            elif worse_by > bound:
                verdict = "REGRESSION"
                status = 1
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<14} {name:<34} "
                  f"{f'{pmed:.6g} [{pq1:.6g},{pq3:.6g}]':>36} "
                  f"{f'{cmed:.6g} [{cq1:.6g},{cq3:.6g}]':>36} "
                  f"{f'{wins}/{len(ks)}':>6}  {verdict}")
    return status


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dirs", nargs="+", metavar="DIR")
    ap.add_argument("--benchmark",
                    default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()
    if len(args.dirs) > 2:
        ap.error("give one directory (spread) or two (parent, change)")
    with open(args.benchmark) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] + bench["per_layer"]
    if len(args.dirs) == 1:
        return spread_report(load_dir(args.dirs[0]), metrics)
    return verdicts(load_dir(args.dirs[0]), load_dir(args.dirs[1]), metrics)


if __name__ == "__main__":
    sys.exit(main())
