import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "cli_outputs", ROOT / "tools" / "cli_outputs.py")
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)


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


def test_copies_match_and_a_changed_file_does_not(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setattr(cli_outputs, "COMMANDS", (("fig0", "--out", "a.csv"),))
    parent = fake_tree(tmp_path / "parent", "1,2\n")
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    argv = ["--parent", str(parent), "--change", str(change)]
    assert cli_outputs.main(argv) == 0
    assert capsys.readouterr().out == (
        "fig0 --out a.csv: exit code same, stdout same, stderr same, "
        "a.csv same\nevery output byte-identical\n")
    cli = change / "src" / "floqheat" / "cli.py"
    cli.write_text(cli.read_text().replace("1,2", "1,3"))
    assert cli_outputs.main(argv) == 1
    assert capsys.readouterr().out == (
        "fig0 --out a.csv: exit code same, stdout same, stderr same, "
        "a.csv DIFFERS\noutputs differ\n")


def test_demos_compared_and_one_in_a_single_tree_differs(tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.setattr(cli_outputs, "COMMANDS", ())
    parent = tmp_path / "parent"
    (parent / "src").mkdir(parents=True)
    (parent / "demos").mkdir()
    (parent / "demos" / "d.py").write_text(
        "from pathlib import Path\n"
        "Path('d.csv').write_text('1,2\\n')\n"
        "print('wrote d.csv')\n")
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    argv = ["--parent", str(parent), "--change", str(change)]
    assert cli_outputs.main(argv) == 0
    assert capsys.readouterr().out == (
        "demos/d.py: exit code same, stdout same, stderr same, d.csv same\n"
        "every output byte-identical\n")
    demo = change / "demos" / "d.py"
    demo.write_text(demo.read_text().replace("1,2", "1,3"))
    (change / "demos" / "e.py").write_text("print('new')\n")
    assert cli_outputs.main(argv) == 1
    assert capsys.readouterr().out == (
        "demos/d.py: exit code same, stdout same, stderr same, d.csv DIFFERS\n"
        "demos/e.py: only in change\n"
        "outputs differ\n")
