import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "pair_bench", ROOT / "tools" / "pair_bench.py")
pair_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_bench)


def bench_run(wall, setup=0.1, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "setup_s": setup, "wall_s": wall, "peak_rss_mb": 40.0}


def test_summary_counts_wins_and_parent_spread():
    runs = {"parent": [bench_run(w) for w in (0.10, 0.12, 0.11, 0.13)],
            "change": [bench_run(w) for w in (0.09, 0.13, 0.10, 0.10)]}
    summary = pair_bench.summarize(runs)
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
    assert not pair_bench.summarize(runs)["all_correct"]


def test_no_regression_checked_against_each_bound(monkeypatch):
    # wall_s and setup_s may rise by 25 %, peak_rss_mb by 10 %
    runs = {"parent": [bench_run(w) for w in (0.10, 0.12, 0.11, 0.13)],
            "change": [bench_run(w, setup=0.124) for w in (0.14, 0.15, 0.14, 0.15)]}
    summary = pair_bench.summarize(runs)
    assert summary["wall_s"]["bound"] == 0.25
    assert summary["peak_rss_mb"]["bound"] == 0.1
    # 0.145 against 0.115 * 1.25 = 0.14375; 0.124 against 0.1 * 1.25
    assert not summary["wall_s"]["within_bound"]
    assert summary["setup_s"]["within_bound"]
    assert summary["peak_rss_mb"]["within_bound"]
    for r in runs["change"]:
        r["peak_rss_mb"] = 44.1
    assert not pair_bench.summarize(runs)["peak_rss_mb"]["within_bound"]
    # a metric that is better higher is checked the other way round
    monkeypatch.setitem(pair_bench.END_TO_END, "wall_s",
                        {"name": "wall_s", "better": "higher", "bound": 0.25})
    assert pair_bench.within_bound("wall_s", 0.1, 0.08)
    assert not pair_bench.within_bound("wall_s", 0.1, 0.07)


def test_pairs_alternate_and_the_record_is_updated(tmp_path, monkeypatch):
    calls = []

    def fake_run(tree, workload, seed):
        calls.append(tree.name)
        return bench_run(0.1 if tree.name == "parent" else 0.08)

    monkeypatch.setattr(pair_bench, "run_bench", fake_run)
    out = tmp_path / "BENCH_0.json"
    out.write_text(json.dumps({"what": "kept", "summary": {"other": 1}}))
    argv = ["--parent", str(tmp_path / "parent"), "--change",
            str(tmp_path / "change"), "--workload", "qme_sweep", "--seed", "2",
            "--pairs", "3", "--out", str(out)]
    assert pair_bench.main(argv) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    record = json.loads(out.read_text())
    assert record["what"] == "kept" and record["summary"]["other"] == 1
    assert record["summary"]["qme_sweep_seed2"]["wall_s"]["change_wins"] == "3/3"
    assert record["must_not_move"] == {"qme_sweep_seed2": True}
    change = record["runs"]["qme_sweep_seed2"]["change"]
    assert [r["pair"] for r in change] == [1, 2, 3]
    assert [r["first"] for r in change] == [False, True, False]
