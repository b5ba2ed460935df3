"""The floqheat benchmark: one command per workload, end to end or traced.

    python3 bench/run.py --workload qme_sweep --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workload's inputs are generated from ``--seed`` (see ``workloads.py``), and
its pass is repeated as a closed loop by this one serial process for
``--seconds``.  Every output is checked by the correctness gate outside the
timed region.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``);
with ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones (``PER_LAYER``), means over the traced passes.  The lines
before it name every metric with its unit, plus a machine and run record.
Traced runs write their spans to ``.bench_out/``.  Without ``src/floqheat``
the command exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("qme_sweep", "qle_spectra", "crosscheck")
BLAS_THREADS = 1           # the serial baseline; never more than the cores
SETUP_SAMPLES = 3          # this process plus two fresh child processes
MAX_REPORTED_FAILURES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# spans reported as <name>.calls, <name>.s and <name>.self_s
SPAN_METRICS = (
    "master.assemble_Mn", "master.assemble_Gpm", "master.power_matrix",
    "master.converged_power_matrix", "blocktri.assemble_dense",
    "blocktri.solve_thomas", "perturbation.power_second_order",
    "perturbation.perturbation_result", "langevin.integrate_power",
    "langevin.spectral_correlations", "langevin.assemble_A",
    "timedomain.evolve_to_cycle", "model.ensure_valid", "scenarios.sweep",
    "scenarios.run_forward_backward", "scenarios.compare_methods",
    "scenarios.spectrum_run",
)
PER_LAYER = {
    **{f"{name}.{field}": unit for name in SPAN_METRICS
       for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "blocktri.lu_flop_computed": "flop",
    "master.n_max_used": "count",
    "langevin.freq_evals": "count",
    "langevin.us_per_freq_eval": "us",
    "timedomain.periods_used": "count",
    "timedomain.rk4_step_us": "us",
    "model.warnings": "count",
    "check.conservation_max_rel": "ratio",
    "check.qme_qle_max_rel_dev": "ratio",
    "check.qme_oracle_max_rel_dev": "ratio",
    "trace.overhead_s": "s",
}


def _limit_blas_threads():
    # must run before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_package():
    """Import floqheat from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import floqheat
    if Path(floqheat.__file__).resolve().parent.parent != src:
        raise ImportError(f"floqheat imported from {floqheat.__file__}, not {src}")
    return floqheat


def setup(workload, seed, composition=None):
    """Import the package, generate and validate the inputs, warm up.

    Returns (seconds taken, operations of one pass).
    """
    t0 = time.perf_counter()
    _import_package()
    import workloads
    ops = workloads.make_ops(workload, seed, composition)
    workloads.validate_ops(ops)
    workloads.warm_up(workload)
    return time.perf_counter() - t0, ops


def _setup_in_child(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(ops, tracer=None):
    """One pass: (wall seconds, per-op seconds, per-op output or exception)."""
    from workloads import run_op
    latencies, outputs = [], []
    t_pass = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.point_id = op.point
        t0 = time.perf_counter()
        try:
            out = run_op(op)
        except Exception as exc:  # a raising operation is a counted failure
            out = exc
            traceback.print_exc(limit=-3)
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - t_pass, latencies, outputs


class Run:
    """Passes, latencies and gate results of one benchmark run."""

    def __init__(self, ops, gate):
        self.ops = ops
        self.gate = gate
        self.walls = {False: [], True: []}      # keyed by traced
        self.latencies = []                     # per untraced pass, per op
        self.attempted = 0
        self.failures = []
        self.traced_spans = []                  # (lo, hi, warnings) per traced pass

    def record(self, wall, latencies, outputs, traced):
        self.walls[traced].append(wall)
        if not traced:
            self.latencies.append(latencies)
        for op, out in zip(self.ops, outputs):
            self.attempted += 1
            fails = ([f"raised {out!r}"] if isinstance(out, Exception)
                     else self.gate.check(op, out))
            if fails:
                self.failures.append(f"op {op.point} ({op.kind}): " + "; ".join(fails))


def measure(ops, gate, seconds, trace):
    """Repeat the pass until the next one would end past ``seconds``.

    With ``trace`` untraced and traced passes alternate, at least one each.
    """
    from spans import Tracer
    run = Run(ops, gate)
    tracer = Tracer() if trace else None
    t_start = time.perf_counter()
    while True:
        traced = trace and len(run.walls[False]) > len(run.walls[True])
        if traced:
            lo = len(tracer)
            tracer.install()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            n_warn = sum(issubclass(w.category, UserWarning) for w in caught)
            run.traced_spans.append((lo, len(tracer), n_warn))
        else:
            result = run_pass(ops)
        run.record(*result, traced)
        elapsed = time.perf_counter() - t_start
        enough = not trace or run.walls[True]
        if enough and elapsed + result[0] > seconds:
            return run, tracer


def _quantile_count(values, q):
    """q-quantile of values and how many samples lie beyond it."""
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return cut, sum(v > cut for v in values)


def end_to_end_metrics(run, setup_samples):
    """Returns (JSON metrics, sample counts, printed-only metrics).

    ``wall_s`` is the mean pass: the untraced passes' total time over their
    number.  On a shared 2-vCPU cloud VM, other tenants' load slows whole
    stretches of a run by 30-70%; over ten runs the mean pass spread no
    more than the median pass or the per-operation best.  Point latencies
    are printed only: on the Python-heavy workloads their run-to-run spread
    exceeded every bound the benchmark may set.
    """
    walls = run.walls[False]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.fmean(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    chain_ms = [t * 1e3 for times in run.latencies
                for op, t in zip(run.ops, times) if op.chain]
    samples = {"setup_s": len(setup_samples), "passes": len(walls),
               "point_p50_ms": len(chain_ms), "point_p90_ms": None,
               "pass_walls_s": [round(w, 4) for w in walls]}
    extra = {"point_p50_ms": (statistics.median(chain_ms), "ms",
                              f"{len(chain_ms)} samples")}
    if len(chain_ms) >= 100:
        p90, beyond = _quantile_count(chain_ms, 90)
        if beyond >= 10:
            samples["point_p90_ms"] = len(chain_ms)
            extra["point_p90_ms"] = (p90, "ms", f"{len(chain_ms)} samples, "
                                     f"{beyond} beyond")
    return values, samples, extra


def per_layer_metrics(run, tracer):
    """Per traced pass, then the mean over the traced passes."""
    import numpy as np
    per_pass = []
    for lo, hi, n_warn in run.traced_spans:
        names, parents, dur, self_time = tracer.table(lo, hi)
        m = {}
        for name in SPAN_METRICS:
            mask = names == name
            m[f"{name}.calls"] = int(mask.sum())
            m[f"{name}.s"] = float(dur[mask].sum())
            m[f"{name}.self_s"] = float(self_time[mask].sum())
        m["blocktri.lu_flop_computed"] = float(
            sum(tracer.hook_values("blocktri.assemble_dense", lo, hi))
            + sum(tracer.hook_values("blocktri.solve_thomas", lo, hi)))
        n_used = tracer.hook_values("master.converged_power_matrix", lo, hi)
        m["master.n_max_used"] = statistics.fmean(n_used) if n_used else 0
        # a frequency evaluation is one sideband operator assembled by langevin
        in_langevin = np.char.startswith(parents, "langevin.")
        freq_evals = int(np.sum((names == "blocktri.assemble_dense") & in_langevin))
        outer = np.char.startswith(names, "langevin.") & ~in_langevin
        m["langevin.freq_evals"] = freq_evals
        m["langevin.us_per_freq_eval"] = (
            float(dur[outer].sum()) / freq_evals * 1e6 if freq_evals else 0.0)
        evolves = tracer.hook_values("timedomain.evolve_to_cycle", lo, hi)
        steps = sum(p * s for p, s in evolves)
        m["timedomain.periods_used"] = (
            statistics.fmean(p for p, _ in evolves) if evolves else 0)
        m["timedomain.rk4_step_us"] = (
            m["timedomain.evolve_to_cycle.s"] / steps * 1e6 if steps else 0.0)
        m["model.warnings"] = n_warn
        per_pass.append(m)
    values = {k: statistics.fmean(p[k] for p in per_pass) for k in per_pass[0]}
    values.update({f"check.{k}": v for k, v in run.gate.worst.items()})
    values["trace.overhead_s"] = (statistics.fmean(run.walls[True])
                                  - statistics.fmean(run.walls[False]))
    return values


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record(args, samples):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(),
        "cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "samples": samples,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    _limit_blas_threads()
    sys.path.insert(0, str(BENCH))
    try:
        setup_s, ops = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import floqheat from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import workloads

    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [_setup_in_child(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    workloads.prepare_references(ops)
    run, tracer = measure(ops, workloads.Gate(), args.seconds, args.trace)

    if args.trace:
        metrics = per_layer_metrics(run, tracer)
        units = PER_LAYER
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans_{args.workload}_seed{args.seed}.npz"
        tracer.write(spans_path)
        samples = {"traced_passes": len(run.walls[True]),
                   "untraced_passes": len(run.walls[False]),
                   "spans": len(tracer), "spans_file": str(spans_path.relative_to(ROOT))}
        extra = {}
    else:
        metrics, samples, extra = end_to_end_metrics(run, setup_samples)
        units = END_TO_END

    for line in run.failures[:MAX_REPORTED_FAILURES]:
        print("FAILED", line, file=sys.stderr)
    print("record:", json.dumps(machine_record(args, samples)))
    print(f"ops: {run.attempted} attempted, {len(run.failures)} failed, "
          f"failed_frac = {len(run.failures) / run.attempted:.6g}")
    for name, (value, unit, note) in extra.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
