"""Byte comparison of the CLI's outputs from two tree copies.

    python3 tools/cli_outputs.py --parent ../parent --change .

Runs every command of ``COMMANDS`` as ``python -m floqheat.cli`` from each
tree, with ``PYTHONPATH=<tree>/src``, in a fresh temporary directory per
tree and command.  For each command it reports whether the exit code,
stdout, stderr and each file written are byte-identical between the trees,
and shows differing stdout or stderr as a unified diff.  Exits 1 on any
difference, else 0.

Make a tree copy of a commit with ``git archive <rev> | tar -x -C <dir>``.
"""
from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ("power", "--methods", "qme,qle,oracle,pert1,pert2,closed",
     "--out", "power.csv"),
    ("spectrum", "--out", "spectrum.csv"),
    ("spectrum", "--nmax", "14", "--out", "spectrum14.csv"),
    ("compare",),
    ("fig3a",),
    ("fig3b",),
    ("fig4",),
    ("fig6",),
    ("fig7",),
)


def run_cli(tree, argv):
    """(exit code, stdout, stderr, {file name: bytes}) of one command run
    from ``tree`` in a fresh directory."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-m", "floqheat.cli", *argv],
                              cwd=work, env=env, capture_output=True,
                              timeout=600)
        files = {p.name: p.read_bytes() for p in Path(work).iterdir()}
    return proc.returncode, proc.stdout, proc.stderr, files


def compare(parent, change, argv):
    """(report lines, whether every output matched) of one command."""
    a, b = run_cli(parent, argv), run_cli(change, argv)
    checks = [("exit code", a[0] == b[0]), ("stdout", a[1] == b[1]),
              ("stderr", a[2] == b[2])]
    checks += [(name, a[3].get(name) == b[3].get(name))
               for name in sorted(a[3].keys() | b[3].keys())]
    lines = [" ".join(argv) + ": " + ", ".join(
        f"{what} {'same' if same else 'DIFFERS'}" for what, same in checks)]
    for i, what in ((1, "stdout"), (2, "stderr")):
        if a[i] != b[i]:
            lines += difflib.unified_diff(
                a[i].decode(errors="replace").splitlines(),
                b[i].decode(errors="replace").splitlines(),
                f"parent {what}", f"change {what}", n=0, lineterm="")
    return lines, all(same for _, same in checks)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="root of the parent tree copy")
    ap.add_argument("--change", required=True, type=Path,
                    help="root of the changed tree copy")
    args = ap.parse_args(argv)
    identical = True
    for command in COMMANDS:
        lines, same = compare(args.parent, args.change, command)
        print("\n".join(lines), flush=True)
        identical = identical and same
    print("every output byte-identical" if identical else "outputs differ")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
