"""Paired benchmark runs of two tree copies, recorded as one BENCH_<n>.json.

    python3 tools/pair_bench.py --parent ../parent --change . \
        --workload qme_sweep --seed 1 --pairs 10 --out BENCH_23.json

Each pair runs ``bench/run.py --trace 0`` once from each tree, for the
benchmark's own ``run_seconds`` (``BENCHMARK.json``), one after the other,
and the order alternates: odd pairs run the parent first, even pairs the
change.  Every run's end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mb``), its gate result and its pass count go to ``runs``; the
medians, the quartiles of both sides, the parent's interquartile range,
the number of pairs in which the change reads lower and the no-regression
check against the metric's ``bound`` in ``BENCHMARK.json`` go to
``summary``, and whether every metric held its bound with every run
correct goes to ``must_not_move``.  All three are keyed
``<workload>_seed<seed>``.  An existing ``--out`` file is updated in
place: other keys, and other series, are kept, so one file can collect
several workloads and seeds and the prose fields written around them.

Make a tree copy of a commit with ``git archive <rev> | tar -x -C <dir>``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
_SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                   .read_text())
SECONDS = _SPEC["run_seconds"]
# end-to-end metric name -> its declaration: unit, better, bound
END_TO_END = {m["name"]: m for m in _SPEC["end_to_end"]}
METRICS = tuple(END_TO_END)


def run_bench(tree, workload, seed):
    """One ``bench/run.py`` run from ``tree``: its last JSON line and the
    number of untraced passes from its record line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
        timeout=SECONDS + 600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    passes = None
    for line in lines:
        if line.startswith("record: "):
            passes = json.loads(line[len("record: "):])["samples"]["passes"]
    run = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"]}
    run.update({m: round(result["metrics"][m]["value"], 4) for m in METRICS})
    run["passes"] = passes
    return run


def within_bound(metric, parent_median, change_median):
    """The benchmark's no-regression check: the change's median is worse
    than the parent's by at most the metric's relative ``bound``."""
    decl = END_TO_END[metric]
    if decl["better"] == "lower":
        return change_median <= parent_median * (1.0 + decl["bound"])
    return change_median >= parent_median * (1.0 - decl["bound"])


def summarize(runs):
    """Per metric: medians, quartiles, the parent's IQR, the change's wins
    (pairs where it reads lower) and the no-regression check from
    ``{"parent": [...], "change": [...]}``, the two lists in pair order."""
    summary = {}
    for metric in METRICS:
        values = {side: [r[metric] for r in runs[side]] for side in SIDES}
        row = {}
        for side in SIDES:
            q = statistics.quantiles(values[side], n=4, method="inclusive")
            row[f"{side}_median"] = round(statistics.median(values[side]), 4)
            row[f"{side}_quartiles"] = [round(v, 4) for v in q]
        row["parent_iqr"] = round(row["parent_quartiles"][2]
                                  - row["parent_quartiles"][0], 4)
        row["median_change_pct"] = round(
            100.0 * (row["change_median"] / row["parent_median"] - 1.0), 1)
        wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        row["change_wins"] = f"{wins}/{len(values['change'])}"
        row["bound"] = END_TO_END[metric]["bound"]
        row["within_bound"] = within_bound(
            metric, *(statistics.median(values[side]) for side in SIDES))
        for side in SIDES:
            row[f"{side}_runs"] = values[side]
        summary[metric] = row
    summary["all_correct"] = all(r["correct"] and r["failed"] == 0
                                 for side in SIDES for r in runs[side])
    return summary


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="root of the parent tree copy")
    ap.add_argument("--change", required=True, type=Path,
                    help="root of the changed tree copy")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs)")
    return args


def main(argv=None):
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            run = {"pair": pair, "first": side == order[0]}
            run.update(run_bench(trees[side], args.workload, args.seed))
            runs[side].append(run)
            print(f"pair {pair} {side}: " + ", ".join(
                f"{m} {run[m]}" for m in METRICS), flush=True)
    key = f"{args.workload}_seed{args.seed}"
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    summary = summarize(runs)
    record.setdefault("summary", {})[key] = summary
    record.setdefault("runs", {})[key] = runs
    record.setdefault("must_not_move", {})[key] = summary["all_correct"] and all(
        summary[m]["within_bound"] for m in METRICS)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    wall = record["summary"][key]["wall_s"]
    print(f"{key} wall_s: parent {wall['parent_median']} -> change "
          f"{wall['change_median']} ({wall['median_change_pct']:+.1f} %), "
          f"change lower in {wall['change_wins']}, parent IQR "
          f"{wall['parent_iqr']}; every metric within its bound and every "
          f"run correct: {record['must_not_move'][key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
