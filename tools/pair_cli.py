"""Paired CLI timings of two tree copies, recorded in one BENCH_<n>.json.

    python3 tools/pair_cli.py --parent ../parent --change . \
        --pairs 10 --out BENCH_28.json

Times ``python -c "import floqheat"`` and ``python -m floqheat.cli`` for
the commands ``power``, ``compare``, ``fig3a``, ``fig4`` and ``fig6`` at
their defaults, from each tree with ``PYTHONPATH=<tree>/src``, each run in
a fresh temporary directory; a command that exits nonzero stops the tool.
Each pair runs every command once from each tree, one after the other, and
the order alternates: odd pairs run the parent first, even pairs the
change.  Per command, the medians and quartiles of both sides, the number
of pairs in which the change ran faster, each side's median minus its
import median (the command's own work) and every run's seconds go under
the record's ``cli`` key.  An existing ``--out`` file is updated in place:
other keys, ``pair_bench.py``'s among them, are kept.

Make a tree copy of a commit with ``git archive <rev> | tar -x -C <dir>``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
CLI = ("-m", "floqheat.cli")
COMMANDS = {
    "import": ("-c", "import floqheat"),
    "power": (*CLI, "power"),
    "compare": (*CLI, "compare"),
    "fig3a": (*CLI, "fig3a"),
    "fig4": (*CLI, "fig4"),
    "fig6": (*CLI, "fig6"),
}


def time_command(tree, argv):
    """Wall seconds of ``python <argv>`` run from ``tree`` in a fresh
    directory; raises CalledProcessError if it exits nonzero."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    with tempfile.TemporaryDirectory() as work:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=work, env=env,
                       capture_output=True, check=True, timeout=600)
        return time.perf_counter() - t0


def summarize(runs):
    """Per command: medians, quartiles, the change's wins (pairs where it
    ran faster), each side's median minus its import median and the runs,
    from ``{command: {"parent": [...], "change": [...]}}`` in pair order."""
    medians = {c: {s: statistics.median(runs[c][s]) for s in SIDES}
               for c in runs}
    summary = {}
    for command, times in runs.items():
        row = {}
        for side in SIDES:
            q = statistics.quantiles(times[side], n=4, method="inclusive")
            row[f"{side}_median"] = round(medians[command][side], 4)
            row[f"{side}_quartiles"] = [round(v, 4) for v in q]
            if command != "import":
                row[f"{side}_minus_import"] = round(
                    medians[command][side] - medians["import"][side], 4)
        wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
        row["change_wins"] = f"{wins}/{len(times['change'])}"
        for side in SIDES:
            row[f"{side}_runs"] = [round(v, 4) for v in times[side]]
        summary[command] = row
    return summary


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="root of the parent tree copy")
    ap.add_argument("--change", required=True, type=Path,
                    help="root of the changed tree copy")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs)")
    return args


def main(argv=None):
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {command: {side: [] for side in SIDES} for command in COMMANDS}
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for command, cmd_argv in COMMANDS.items():
            for side in order:
                runs[command][side].append(time_command(trees[side], cmd_argv))
        print(f"pair {pair}: " + ", ".join(
            f"{c} {runs[c]['parent'][-1]:.3f}/{runs[c]['change'][-1]:.3f}"
            for c in COMMANDS), flush=True)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["cli"] = summarize(runs)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for command, row in record["cli"].items():
        print(f"{command}: parent {row['parent_median']} s, change "
              f"{row['change_median']} s, change faster in "
              f"{row['change_wins']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
