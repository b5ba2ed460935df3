import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "pair_cli", ROOT / "tools" / "pair_cli.py")
pair_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_cli)


def test_pairs_alternate_and_the_record_is_updated(tmp_path, monkeypatch):
    calls = []
    seconds = {("parent", "import"): [0.20, 0.22, 0.21],
               ("change", "import"): [0.21, 0.20, 0.20]}

    def fake_time(tree, argv):
        name = "import" if argv[0] == "-c" else argv[-1]
        calls.append((tree.name, name))
        times = seconds.get((tree.name, name))
        if times is not None:
            return times[sum(c == (tree.name, name) for c in calls) - 1]
        return 0.5 if tree.name == "parent" else 0.45

    monkeypatch.setattr(pair_cli, "time_command", fake_time)
    out = tmp_path / "BENCH_0.json"
    out.write_text(json.dumps({"what": "kept", "summary": {"other": 1}}))
    argv = ["--parent", str(tmp_path / "parent"), "--change",
            str(tmp_path / "change"), "--pairs", "3", "--out", str(out)]
    assert pair_cli.main(argv) == 0
    commands = list(pair_cli.COMMANDS)
    assert commands == ["import", "power", "compare", "fig3a", "fig4", "fig6"]
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
    assert cli["power"]["change_runs"] == [0.45] * 3


def test_runs_from_the_tree_source_in_a_fresh_directory(tmp_path):
    # the real runner: the tree's src is on the path, and the working
    # directory is empty
    pkg = tmp_path / "tree" / "src" / "floqheat"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "import os\nassert os.listdir('.') == []\n")
    assert pair_cli.time_command(tmp_path / "tree", ("-c", "import floqheat")) > 0
