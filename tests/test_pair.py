import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "pair", ROOT / "tools" / "pair.py")
pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)


def bench_run(wall, setup=0.1, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "setup_s": setup, "wall_s": wall, "peak_rss_mb": 40.0}


def bench_stdout(wall):
    """What ``bench/run.py`` prints: a record line, then the result line."""
    result = bench_run(wall)
    result["metrics"] = {m: {"value": result.pop(m)} for m in pair.METRICS}
    return (b'record: {"samples": {"passes": 5}}\n'
            + json.dumps(result).encode() + b"\n")


class TestBench:
    def test_summary_counts_wins_and_parent_spread(self):
        runs = {"parent": [bench_run(w) for w in (0.10, 0.12, 0.11, 0.13)],
                "change": [bench_run(w) for w in (0.09, 0.13, 0.10, 0.10)]}
        summary = pair.bench_summary(runs)
        wall = summary["wall_s"]
        assert wall["parent_median"] == 0.115 and wall["change_median"] == 0.1
        assert wall["parent_quartiles"] == [0.1075, 0.115, 0.1225]
        assert wall["parent_iqr"] == 0.015
        assert wall["median_change_pct"] == -13.0
        assert wall["change_wins"] == "3/4"
        assert wall["change_runs"] == [0.09, 0.13, 0.10, 0.10]
        # a tie counts for neither side
        assert summary["setup_s"]["change_wins"] == "0/4"
        assert summary["all_correct"]
        runs["change"][1] = bench_run(0.13, correct=False)
        assert not pair.bench_summary(runs)["all_correct"]

    def test_no_regression_checked_against_each_bound(self, monkeypatch):
        # wall_s and setup_s may rise by 25 %, peak_rss_mb by 10 %
        runs = {"parent": [bench_run(w) for w in (0.10, 0.12, 0.11, 0.13)],
                "change": [bench_run(w, setup=0.124)
                           for w in (0.14, 0.15, 0.14, 0.15)]}
        summary = pair.bench_summary(runs)
        assert summary["wall_s"]["bound"] == 0.25
        assert summary["peak_rss_mb"]["bound"] == 0.1
        # 0.145 against 0.115 * 1.25 = 0.14375; 0.124 against 0.1 * 1.25
        assert not summary["wall_s"]["within_bound"]
        assert summary["setup_s"]["within_bound"]
        assert summary["peak_rss_mb"]["within_bound"]
        for r in runs["change"]:
            r["peak_rss_mb"] = 44.1
        assert not pair.bench_summary(runs)["peak_rss_mb"]["within_bound"]
        # a metric that is better higher is checked the other way round
        monkeypatch.setitem(pair.END_TO_END, "wall_s",
                            {"name": "wall_s", "better": "higher",
                             "bound": 0.25})
        assert pair.within_bound("wall_s", 0.1, 0.08)
        assert not pair.within_bound("wall_s", 0.1, 0.07)

    def test_pairs_alternate_and_the_record_is_updated(self, tmp_path,
                                                       monkeypatch, capsys):
        calls = []

        def fake_run(tree, argv, check=False):
            calls.append(tree.name)
            assert argv[:3] == [str(tree / "bench" / "run.py"), "--workload",
                                "qme_sweep"] and check
            return 1.0, 0, bench_stdout(0.1 if tree.name == "parent"
                                        else 0.08), b"", {}

        monkeypatch.setattr(pair, "run", fake_run)
        out = tmp_path / "BENCH_0.json"
        out.write_text(json.dumps({"what": "kept", "summary": {"other": 1}}))
        argv = ["bench", "--parent", str(tmp_path / "parent"), "--change",
                str(tmp_path / "change"), "--workload", "qme_sweep",
                "--seed", "2", "--pairs", "3", "--out", str(out)]
        assert pair.main(argv) == 0
        assert calls == ["parent", "change", "change", "parent", "parent",
                         "change"]
        record = json.loads(out.read_text())
        assert record["what"] == "kept" and record["summary"]["other"] == 1
        wall = record["summary"]["qme_sweep_seed2"]["wall_s"]
        assert wall["change_wins"] == "3/3"
        assert record["must_not_move"] == {"qme_sweep_seed2": True}
        change = record["runs"]["qme_sweep_seed2"]["change"]
        assert [r["pair"] for r in change] == [1, 2, 3]
        assert [r["first"] for r in change] == [False, True, False]
        assert change[0] == {"pair": 1, "first": False, **bench_run(0.08),
                             "passes": 5}
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == ("pair 1 parent: setup_s 0.1, wall_s 0.1, "
                              "peak_rss_mb 40.0")
        assert printed[-1] == (
            "qme_sweep_seed2 wall_s: parent 0.1 -> change 0.08 (-20.0 %), "
            "change lower in 3/3, parent IQR 0.0; every metric within its "
            "bound and every run correct: True")


class TestCli:
    def test_pairs_alternate_and_the_record_is_updated(self, tmp_path,
                                                       monkeypatch):
        calls = []
        seconds = {("parent", "import"): [0.20, 0.22, 0.21],
                   ("change", "import"): [0.21, 0.20, 0.20]}

        def fake_run(tree, argv, check=False):
            assert check
            name = ("import" if argv[0] == "-c" else
                    "tier1" if "pytest" in argv else argv[-1])
            if name == "tier1":
                # the tree's own tests, with no cache written into the tree
                assert argv[-3:] == ["-p", "no:cacheprovider",
                                     f"{tree}/tests"]
            calls.append((tree.name, name))
            times = seconds.get((tree.name, name))
            if times is not None:
                t = times[sum(c == (tree.name, name) for c in calls) - 1]
            else:
                t = 0.5 if tree.name == "parent" else 0.45
            return t, 0, b"", b"", {}

        monkeypatch.setattr(pair, "run", fake_run)
        out = tmp_path / "BENCH_0.json"
        out.write_text(json.dumps({"what": "kept", "summary": {"other": 1}}))
        argv = ["cli", "--parent", str(tmp_path / "parent"), "--change",
                str(tmp_path / "change"), "--pairs", "3", "--out", str(out)]
        assert pair.main(argv) == 0
        commands = list(pair.TIMED)
        assert commands == ["import", "power", "compare", "fig3a", "fig4",
                            "fig6", "tier1"]
        # every command from both trees, the parent first in odd pairs
        expected = [(side, c) for order in (("parent", "change"),
                                            ("change", "parent"),
                                            ("parent", "change"))
                    for c in commands for side in order]
        assert calls == expected
        record = json.loads(out.read_text())
        assert record["what"] == "kept" and record["summary"] == {"other": 1}
        cli = record["cli"]
        assert list(cli) == commands
        assert cli["import"]["parent_median"] == 0.21
        assert cli["import"]["parent_quartiles"] == [0.205, 0.21, 0.215]
        assert cli["import"]["change_wins"] == "2/3"
        assert "parent_minus_import" not in cli["import"]
        assert cli["fig4"]["change_wins"] == "3/3"
        assert cli["fig4"]["parent_minus_import"] == 0.29
        assert cli["fig4"]["change_minus_import"] == 0.25
        assert cli["tier1"]["change_minus_import"] == 0.25
        assert cli["power"]["change_runs"] == [0.45] * 3

    def test_fewer_than_two_pairs_refused(self, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            pair.main(["cli", "--parent", str(tmp_path), "--change",
                       str(tmp_path), "--pairs", "1", "--out",
                       str(tmp_path / "o.json")])
        assert exit_.value.code == 2


def test_runs_from_the_tree_source_in_a_fresh_directory(tmp_path):
    # the real runner: the tree's src is on the path, and the working
    # directory is empty
    pkg = tmp_path / "tree" / "src" / "floqheat"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "import os\nassert os.listdir('.') == []\n")
    seconds, code, _, _, files = pair.run(tmp_path / "tree",
                                          ("-c", "import floqheat"))
    assert seconds > 0 and code == 0 and files == {}
    code = "import floqheat; open('a.txt', 'w').write('x'); raise SystemExit(3)"
    assert pair.run(tmp_path / "tree", ("-c", code))[1:] == (
        3, b"", b"", {"a.txt": b"x"})
    # a timed run that exits nonzero stops the tool
    with pytest.raises(subprocess.CalledProcessError):
        pair.run(tmp_path / "tree", ("-c", code), check=True)


def fake_tree(root, row):
    """A tree whose ``floqheat.cli`` writes ``row`` to the file named by its
    last argument and says so on stdout."""
    pkg = root / "src" / "floqheat"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "import sys\n"
        "from pathlib import Path\n"
        f"Path(sys.argv[-1]).write_text({row!r})\n"
        "print('wrote', sys.argv[-1])\n")
    return root


class TestOutputs:
    def test_copies_match_and_a_changed_file_does_not(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setattr(pair, "OUTPUTS", (("fig0", "--out", "a.csv"),))
        parent = fake_tree(tmp_path / "parent", "1,2\n")
        change = tmp_path / "change"
        shutil.copytree(parent, change)
        argv = ["outputs", "--parent", str(parent), "--change", str(change)]
        assert pair.main(argv) == 0
        assert capsys.readouterr().out == (
            "fig0 --out a.csv: exit code same, stdout same, stderr same, "
            "a.csv same\nevery output byte-identical\n")
        cli = change / "src" / "floqheat" / "cli.py"
        cli.write_text(cli.read_text().replace("1,2", "1,3"))
        assert pair.main(argv) == 1
        assert capsys.readouterr().out == (
            "fig0 --out a.csv: exit code same, stdout same, stderr same, "
            "a.csv DIFFERS\noutputs differ\n")

    def test_demos_compared_and_one_in_a_single_tree_differs(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(pair, "OUTPUTS", ())
        parent = tmp_path / "parent"
        (parent / "src").mkdir(parents=True)
        (parent / "demos").mkdir()
        (parent / "demos" / "d.py").write_text(
            "from pathlib import Path\n"
            "Path('d.csv').write_text('1,2\\n')\n"
            "print('wrote d.csv')\n")
        change = tmp_path / "change"
        shutil.copytree(parent, change)
        argv = ["outputs", "--parent", str(parent), "--change", str(change)]
        assert pair.main(argv) == 0
        assert capsys.readouterr().out == (
            "demos/d.py: exit code same, stdout same, stderr same, d.csv same\n"
            "every output byte-identical\n")
        demo = change / "demos" / "d.py"
        demo.write_text(demo.read_text().replace("1,2", "1,3"))
        (change / "demos" / "e.py").write_text("print('new')\n")
        assert pair.main(argv) == 1
        assert capsys.readouterr().out == (
            "demos/d.py: exit code same, stdout same, stderr same, "
            "d.csv DIFFERS\n"
            "demos/e.py: only in change\n"
            "outputs differ\n")

    def test_differing_stdout_shown_as_a_diff(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setattr(pair, "OUTPUTS", (("fig0", "--out", "a.csv"),))
        parent = fake_tree(tmp_path / "parent", "1,2\n")
        change = fake_tree(tmp_path / "change", "1,2\n")
        cli = change / "src" / "floqheat" / "cli.py"
        cli.write_text(cli.read_text().replace("'wrote'", "'made'"))
        assert pair.main(["outputs", "--parent", str(parent), "--change",
                          str(change)]) == 1
        assert capsys.readouterr().out.splitlines()[:5] == [
            "fig0 --out a.csv: exit code same, stdout DIFFERS, stderr same, "
            "a.csv same",
            "--- parent stdout", "+++ change stdout", "@@ -1 +1 @@",
            "-wrote a.csv"]
