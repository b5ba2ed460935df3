"""Byte comparison of the CLI's and the demos' outputs from two tree copies.

    python3 tools/cli_outputs.py --parent ../parent --change .

Runs every command of ``COMMANDS`` as ``python -m floqheat.cli``, and every
``demos/*.py`` found in either tree as ``python demos/<name>``, from each
tree, with ``PYTHONPATH=<tree>/src``, in a fresh temporary directory per
tree and run.  For each run it reports whether the exit code, stdout,
stderr and each file written are byte-identical between the trees, and
shows differing stdout or stderr as a unified diff; a demo present in only
one tree counts as a difference.  Exits 1 on any difference, else 0.

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


def run(tree, argv):
    """(exit code, stdout, stderr, {file name: bytes}) of ``python argv``
    run with ``tree``'s package in a fresh directory."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                              capture_output=True, timeout=600)
        files = {p.name: p.read_bytes() for p in Path(work).iterdir()}
    return proc.returncode, proc.stdout, proc.stderr, files


def cli_argv(command):
    return lambda tree: ["-m", "floqheat.cli", *command]


def demo_argv(name):
    """argv of demo ``name`` in a tree, or None where the tree has none."""
    def argv(tree):
        script = Path(tree).resolve() / "demos" / name
        return [str(script)] if script.is_file() else None
    return argv


def demos(*trees):
    """Names of the demo scripts found in any of ``trees``, sorted."""
    return sorted({p.name for tree in trees
                   for p in (Path(tree) / "demos").glob("*.py")})


def compare(parent, change, label, argv_of):
    """(report lines, whether every output matched) of one run, whose argv
    in each tree is ``argv_of(tree)``."""
    argvs = argv_of(parent), argv_of(change)
    if None in argvs:
        side = "change" if argvs[0] is None else "parent"
        return [f"{label}: only in {side}"], False
    a, b = run(parent, argvs[0]), run(change, argvs[1])
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="root of the parent tree copy")
    ap.add_argument("--change", required=True, type=Path,
                    help="root of the changed tree copy")
    args = ap.parse_args(argv)
    runs = ([(" ".join(c), cli_argv(c)) for c in COMMANDS]
            + [(f"demos/{name}", demo_argv(name))
               for name in demos(args.parent, args.change)])
    identical = True
    for label, argv_of in runs:
        lines, same = compare(args.parent, args.change, label, argv_of)
        print("\n".join(lines), flush=True)
        identical = identical and same
    print("every output byte-identical" if identical else "outputs differ")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
