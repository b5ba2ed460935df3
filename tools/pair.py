"""Paired runs of two tree copies: benchmark and CLI timings, output bytes.

    python3 tools/pair.py bench --parent ../parent --change . \
        --workload qme_sweep --seed 1 --pairs 10 --out BENCH_23.json
    python3 tools/pair.py cli --parent ../parent --change . \
        --pairs 10 --out BENCH_28.json
    python3 tools/pair.py outputs --parent ../parent --change .

Every run is ``python <argv>`` with ``PYTHONPATH=<tree>/src`` in a fresh
temporary directory.  ``bench`` and ``cli`` run in pairs, once from each
tree; odd pairs run the parent first, even pairs the change.  Each series'
row (``paired_row``) is merged into the ``--out`` record, whose other keys
and entries are kept.

``bench``: ``bench/run.py --trace 0`` for ``run_seconds`` of
``BENCHMARK.json``.  Rows, with the parent's IQR, the median change and the
check against each metric's ``bound``, go to ``summary``, every run to
``runs``, and whether every bound held with every run correct to
``must_not_move``, all keyed ``<workload>_seed<seed>``.

``cli``: ``TIMED`` (the import, five commands at their defaults and the
tree's own ``tests/`` under pytest as ``tier1``), each row with each side's
median minus its import median, under ``cli``.  A nonzero exit stops it.

``outputs``: ``OUTPUTS`` and every ``demos/*.py`` of either tree, from both
trees; reports whether exit code, stdout, stderr and each written file are
byte-identical (a demo in one tree only differs), diffs stdout and stderr.

Make a tree copy of a commit with ``git archive <rev> | tar -x -C <dir>``.
"""
from __future__ import annotations

import argparse
import difflib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
_SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                   .read_text())
SECONDS = _SPEC["run_seconds"]
# end-to-end metric name -> its declaration: unit, better, bound
END_TO_END = {m["name"]: m for m in _SPEC["end_to_end"]}
METRICS = tuple(END_TO_END)
CLI = ("-m", "floqheat.cli")
# name -> argv timed by ``cli``; "{tree}" stands for the tree's root
TIMED = {"import": ("-c", "import floqheat"),
         **{c: (*CLI, c)
            for c in ("power", "compare", "fig3a", "fig4", "fig6")},
         "tier1": ("-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "{tree}/tests")}
OUTPUTS = (
    ("power", "--methods", "qme,qle,oracle,pert1,pert2,closed",
     "--out", "power.csv"),
    ("spectrum", "--out", "spectrum.csv"),
    ("spectrum", "--nmax", "14", "--out", "spectrum14.csv"),
    *((c,) for c in ("compare", "fig3a", "fig3b", "fig4", "fig6", "fig7")),
)


def run(tree, argv, check=False):
    """(seconds, exit code, stdout, stderr, {file name: bytes}) of
    ``python argv`` run with ``tree``'s package in a fresh directory; with
    ``check``, a nonzero exit raises CalledProcessError."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    with tempfile.TemporaryDirectory() as work:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                              capture_output=True, check=check,
                              timeout=SECONDS + 600)
        seconds = time.perf_counter() - t0
        files = {p.name: p.read_bytes() for p in Path(work).iterdir()
                 if p.is_file()}
    return seconds, proc.returncode, proc.stdout, proc.stderr, files


def orders(pairs):
    """(pair, the sides in run order) of pairs 1..``pairs``: odd pairs run
    the parent first, even pairs the change."""
    for pair in range(1, pairs + 1):
        yield pair, SIDES if pair % 2 else SIDES[::-1]


def paired_row(values):
    """Medians, inclusive quartiles, the change's wins (pairs in which it
    reads lower; a tie counts for neither side) and the runs of
    ``{"parent": [...], "change": [...]}``, the two lists in pair order."""
    row = {}
    for side in SIDES:
        q = statistics.quantiles(values[side], n=4, method="inclusive")
        row[f"{side}_median"] = round(statistics.median(values[side]), 4)
        row[f"{side}_quartiles"] = [round(v, 4) for v in q]
    wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
    row["change_wins"] = f"{wins}/{len(values['change'])}"
    for side in SIDES:
        row[f"{side}_runs"] = [round(v, 4) for v in values[side]]
    return row


def update_record(out, **entries):
    """Merge each of ``entries`` into that key of the JSON record ``out``
    (started empty if missing), keeping every other key and entry."""
    record = json.loads(out.read_text()) if out.exists() else {}
    for key, value in entries.items():
        record.setdefault(key, {}).update(value)
    out.write_text(json.dumps(record, indent=1) + "\n")


def bench_run(tree, workload, seed):
    """One ``bench/run.py`` run from ``tree``: its gate result, end-to-end
    metrics and the number of untraced passes from its record line."""
    stdout = run(tree, [
        str(Path(tree).resolve() / "bench" / "run.py"), "--workload",
        workload, "--seed", str(seed), "--seconds", str(SECONDS),
        "--trace", "0"], check=True)[2]
    lines = stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    passes = next((json.loads(line[len("record: "):])["samples"]["passes"]
                   for line in lines if line.startswith("record: ")), None)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{m: round(result["metrics"][m]["value"], 4) for m in METRICS},
            "passes": passes}


def within_bound(metric, parent_median, change_median):
    """The benchmark's no-regression check: the change's median is worse
    than the parent's by at most the metric's relative ``bound``."""
    decl = END_TO_END[metric]
    if decl["better"] == "lower":
        return change_median <= parent_median * (1.0 + decl["bound"])
    return change_median >= parent_median * (1.0 - decl["bound"])


def bench_summary(runs):
    """Per metric: the paired row, the parent's IQR, the median change in
    percent and the no-regression check, from ``{side: [run, ...]}``."""
    summary = {}
    for metric in METRICS:
        values = {side: [r[metric] for r in runs[side]] for side in SIDES}
        row = paired_row(values)
        row["parent_iqr"] = round(row["parent_quartiles"][2]
                                  - row["parent_quartiles"][0], 4)
        row["median_change_pct"] = round(
            100.0 * (row["change_median"] / row["parent_median"] - 1.0), 1)
        row["bound"] = END_TO_END[metric]["bound"]
        row["within_bound"] = within_bound(
            metric, *(statistics.median(values[side]) for side in SIDES))
        summary[metric] = row
    summary["all_correct"] = all(r["correct"] and r["failed"] == 0
                                 for side in SIDES for r in runs[side])
    return summary


def bench(args, trees):
    runs = {side: [] for side in SIDES}
    for pair, order in orders(args.pairs):
        for side in order:
            r = {"pair": pair, "first": side == order[0]}
            r.update(bench_run(trees[side], args.workload, args.seed))
            runs[side].append(r)
            print(f"pair {pair} {side}: " + ", ".join(
                f"{m} {r[m]}" for m in METRICS), flush=True)
    key = f"{args.workload}_seed{args.seed}"
    summary = bench_summary(runs)
    held = summary["all_correct"] and all(
        summary[m]["within_bound"] for m in METRICS)
    update_record(args.out, summary={key: summary}, runs={key: runs},
                  must_not_move={key: held})
    wall = summary["wall_s"]
    print(f"{key} wall_s: parent {wall['parent_median']} -> change "
          f"{wall['change_median']} ({wall['median_change_pct']:+.1f} %), "
          f"change lower in {wall['change_wins']}, parent IQR "
          f"{wall['parent_iqr']}; every metric within its bound and every "
          f"run correct: {held}")
    return 0


def cli(args, trees):
    runs = {name: {side: [] for side in SIDES} for name in TIMED}
    for pair, order in orders(args.pairs):
        for name, argv in TIMED.items():
            for side in order:
                tree = trees[side]
                runs[name][side].append(run(
                    tree, [a.format(tree=tree) for a in argv], check=True)[0])
        print(f"pair {pair}: " + ", ".join(
            f"{n} {runs[n]['parent'][-1]:.3f}/{runs[n]['change'][-1]:.3f}"
            for n in TIMED), flush=True)
    summary = {}
    for name in TIMED:
        summary[name] = row = paired_row(runs[name])
        if name != "import":
            for side in SIDES:
                row[f"{side}_minus_import"] = round(
                    statistics.median(runs[name][side])
                    - statistics.median(runs["import"][side]), 4)
    update_record(args.out, cli=summary)
    for name, row in summary.items():
        print(f"{name}: parent {row['parent_median']} s, change "
              f"{row['change_median']} s, change faster in "
              f"{row['change_wins']}")
    return 0


def compare(trees, label, argvs):
    """(report lines, whether every output matched) of one run, whose argv
    from each side's tree is ``argvs[side]`` (None: no such run there)."""
    if None in argvs.values():
        side = "change" if argvs["parent"] is None else "parent"
        return [f"{label}: only in {side}"], False
    a, b = (run(trees[side], argvs[side])[1:] for side in SIDES)
    checks = [("exit code", a[0] == b[0]), ("stdout", a[1] == b[1]),
              ("stderr", a[2] == b[2])]
    checks += [(name, a[3].get(name) == b[3].get(name))
               for name in sorted(a[3].keys() | b[3].keys())]
    lines = [label + ": " + ", ".join(
        f"{what} {'same' if same else 'DIFFERS'}" for what, same in checks)]
    for i, what in ((1, "stdout"), (2, "stderr")):
        if a[i] != b[i]:
            lines += difflib.unified_diff(
                a[i].decode(errors="replace").splitlines(),
                b[i].decode(errors="replace").splitlines(),
                f"parent {what}", f"change {what}", n=0, lineterm="")
    return lines, all(same for _, same in checks)


def outputs(args, trees):
    """Exit code 1 if any output differs, else 0."""
    jobs = [(" ".join(c), dict.fromkeys(SIDES, [*CLI, *c])) for c in OUTPUTS]
    for name in sorted({p.name for tree in trees.values()
                        for p in (tree / "demos").glob("*.py")}):
        scripts = (trees[side] / "demos" / name for side in SIDES)
        jobs.append((f"demos/{name}", dict(zip(SIDES, (
            [str(p)] if p.is_file() else None for p in scripts)))))
    identical = True
    for label, argvs in jobs:
        lines, same = compare(trees, label, argvs)
        print("\n".join(lines), flush=True)
        identical = identical and same
    print("every output byte-identical" if identical else "outputs differ")
    return 0 if identical else 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = ap.add_subparsers(dest="command", required=True)
    for command in (bench, cli, outputs):
        sub = commands.add_parser(command.__name__)
        sub.set_defaults(main=command)
        sub.add_argument("--parent", required=True, type=Path,
                         help="root of the parent tree copy")
        sub.add_argument("--change", required=True, type=Path,
                         help="root of the changed tree copy")
        if command is bench:
            sub.add_argument("--workload", required=True)
            sub.add_argument("--seed", type=int, required=True)
        if command is not outputs:
            sub.add_argument("--pairs", type=int, default=10)
            sub.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if getattr(args, "pairs", 2) < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs)")
    return args


def main(argv=None):
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    return args.main(args, trees)


if __name__ == "__main__":
    sys.exit(main())
