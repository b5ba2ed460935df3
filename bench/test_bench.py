"""Smoke test of the benchmark at reduced size.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SMALL = {
    "qme_sweep": {"chain": 3, "network6": 1, "network8": 0, "strong": 1},
    "qle_spectra": {"chain": 2, "spectrum": 1},
    "crosscheck": {"chain": 1},
}


def _declared(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced_run(request):
    workload = request.param
    setup_s, ops = run.setup(workload, 7, SMALL[workload])
    import workloads
    workloads.prepare_references(ops)
    result, tracer = run.measure(ops, workloads.Gate(), 1, trace=True)
    return workload, setup_s, result, tracer


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_every_metric_emitted_with_unit(traced_run):
    workload, setup_s, result, tracer = traced_run
    passes = len(result.walls[False]) + len(result.walls[True])
    assert result.attempted == passes * len(result.ops)
    assert result.failures == []
    e2e, samples, printed = run.end_to_end_metrics(result, [setup_s])
    assert printed["point_p50_ms"][0] > 0 and printed["point_p50_ms"][1] == "ms"
    layers = run.per_layer_metrics(result, tracer)
    for values, declared in ((e2e, run.END_TO_END), (layers, run.PER_LAYER)):
        assert set(values) == set(declared)
        assert all(unit for unit in declared.values())
        assert all(math.isfinite(v) for v in values.values())
    assert all(e2e[name] > 0 for name in run.END_TO_END)
    assert samples["passes"] == len(result.walls[False])


def test_layer_spans_reach_the_work(traced_run):
    workload, _, result, tracer = traced_run
    layers = run.per_layer_metrics(result, tracer)
    busy = {"qme_sweep": ("master.power_matrix", "master.converged_power_matrix",
                          "perturbation.power_second_order"),
            "qle_spectra": ("langevin.integrate_power", "scenarios.spectrum_run"),
            "crosscheck": ("timedomain.evolve_to_cycle", "scenarios.compare_methods")}
    for name in busy[workload]:
        assert layers[f"{name}.calls"] > 0 and layers[f"{name}.s"] > 0
    assert layers["model.ensure_valid.calls"] > 0
    if workload == "qme_sweep":
        # perturbation and master import these functions by name
        lo, hi, _ = result.traced_spans[0]
        names, parents, _, _ = tracer.table(lo, hi)
        assert ((names == "master.assemble_Mn")
                & (parents == "perturbation.assemble_Npert")).any()
        assert ((names == "model.ensure_valid")
                & (parents == "master.power_matrix")).any()
    if workload == "qle_spectra":
        assert layers["langevin.freq_evals"] > 0
    if workload == "crosscheck":
        assert layers["timedomain.periods_used"] >= 2


def test_gate_flags_a_wrong_reference_value():
    import workloads
    _, ops = run.setup("qme_sweep", 7, {"chain": 2, "network6": 0,
                                        "network8": 0, "strong": 0})
    workloads.prepare_references(ops)
    wrong = workloads.Gate(workloads.Bounds(e_ref=0.6))
    result, _ = run.measure(ops, wrong, 1, trace=False)
    assert len(result.failures) == len(result.walls[False])
    assert all("reference point" in f for f in result.failures)
    right, _ = run.measure(ops, workloads.Gate(), 1, trace=False)
    assert right.failures == []


def test_fails_without_the_package(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, nonzero exit."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qme_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
