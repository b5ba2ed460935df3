"""Command-line front end: single points, spectra, sweeps and figure presets.

Convention for command-line values: beta and Omega are given as fractions
of the chain resonance omega_0, angles as multiples of pi.  Exit codes:
0 success, 2 solver failure, 3 invalid configuration or inputs.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import langevin, master, perturbation, scenarios
from .config import ConfigError, load_config
from .model import SI, FloqheatError, ValidationError, check_n_max, validate
from .scenarios import (DEFAULT_OMEGA0, DEFAULT_T_HOT, SweepSpec,
                        default_chain, rectification, sweep)

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_INVALID = 3


def _add_common(p, methods_default="qme"):
    p.add_argument("--config", help="YAML system description")
    p.add_argument("--nmax", type=int, default=None,
                   help="truncation order override")
    p.add_argument("--quad-tol", type=float, default=1e-6,
                   help="relative quadrature tolerance (qle)")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--methods", default=methods_default,
                   help="comma list from: " + ",".join(scenarios.METHODS))
    p.add_argument("--parallel", type=int, default=1, metavar="K",
                   help="worker processes for sweeps")
    p.add_argument("--t-hot", type=float, default=DEFAULT_T_HOT,
                   help="hot bath temperature [K]")


def _add_chain_flags(p):
    p.add_argument("--beta", type=float, default=0.05,
                   help="modulation amplitude as a fraction of omega_0")
    p.add_argument("--theta", type=float, default=0.5,
                   help="dephasing in multiples of pi")
    p.add_argument("--drive", type=float, default=0.05,
                   help="drive frequency as a fraction of omega_0")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="floqheat",
        description="Heat flux and rectification in modulated resonator networks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power", help="single-point forward/backward powers")
    _add_common(p)
    _add_chain_flags(p)

    p = sub.add_parser("spectrum", help="forward/backward heat-flux spectra")
    _add_common(p)
    _add_chain_flags(p)

    p = sub.add_parser("sweep", help="one-parameter sweep")
    _add_common(p)
    _add_chain_flags(p)
    p.add_argument("--parameter", required=True, choices=("beta", "theta", "Omega"))
    p.add_argument("--values", required=True,
                   help="comma list; beta/Omega as fractions of omega_0, "
                        "theta in multiples of pi")

    p = sub.add_parser("compare", help="qme / qle / oracle cross-check")
    _add_common(p)
    _add_chain_flags(p)

    for name, doc in (
        ("fig3a", "normalized P14/P41 vs beta for theta = 0.1 pi and 0.5 pi"),
        ("fig3b", "flux difference vs beta against perturbation estimates"),
        ("fig4", "rectification vs theta for several beta"),
        ("fig6", "forward/backward spectra at beta = Omega = 0.05 omega_0"),
        ("fig7", "P14 vs beta against both second-order approximations"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p, methods_default="")
    return ap


def _system_from(args, beta=None, theta=None):
    """(constants, net, mod): from --config if given, else the default chain."""
    if args.config:
        consts, net, mod = load_config(args.config)
    else:
        consts = SI
        b = (args.beta if beta is None else beta) * DEFAULT_OMEGA0
        th = (args.theta if theta is None else theta) * math.pi
        net, mod = default_chain(beta=b, theta=th,
                                 Omega=args.drive * DEFAULT_OMEGA0)
    report = validate(net, mod, consts)
    errors = [v.message for v in report if v.severity == "error"]
    if errors:
        raise ValidationError("; ".join(errors))
    for v in report:
        if v.severity == "warning":
            print(f"warning: {v.message}", file=sys.stderr)
    return consts, net, mod


def _methods(args):
    methods = tuple(m for m in args.methods.split(",") if m)
    for m in methods:
        if m not in scenarios.METHODS:
            raise ValidationError(f"unknown method {m!r}")
    return methods


def _n_max(args, method):
    """--nmax if given (0 included), else the method's default order (None
    for a method without one).  A negative order is an input error."""
    if args.nmax is None:
        return scenarios.DEFAULT_N_MAX.get(method)
    try:
        check_n_max(args.nmax)
    except ValueError as exc:
        raise ValidationError(f"--nmax: {exc}") from None
    return args.nmax


def _omega_scale(net):
    return float(net.omega[0])


def cmd_power(args):
    consts, net, mod = _system_from(args)
    methods = _methods(args) or ("qme",)
    if net.N != 4:
        n_max = _n_max(args, "qme")
        pm = master.power_matrix(net, mod, n_max, consts)
        print(f"power matrix for N = {net.N} (qme); hot baths taken from config temperatures")
        for k in range(net.N):
            if net.T[k] > 0:
                print(f"  source {k + 1}: P_em = {pm.P_em[k]:.6e} W")
        if args.out:
            master.write_power_csv(args.out, net, mod, pm, n_max)
            print(f"wrote {args.out}")
        return EXIT_OK
    rows = []
    for method in methods:
        p14, p41 = scenarios.run_forward_backward(
            net, mod, method, n_max=_n_max(args, method), quad_tol=args.quad_tol,
            T_hot=args.t_hot, consts=consts,
        )
        e = rectification(p14, p41) if p14 + p41 != 0 else float("nan")
        rows.append(scenarios.SweepRow(method, mod.beta, mod.Omega,
                                       float(mod.theta[2] - mod.theta[1]),
                                       p14, p41, e, p14 - p41))
        print(f"{method:>7}: P14 = {p14:.6e} W   P41 = {p41:.6e} W   E = {e:+.4f}")
    if args.out:
        scenarios.write_sweep_csv(args.out, rows)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_spectrum(args):
    consts, net, mod = _system_from(args)
    grid, fwd, bwd = scenarios.spectrum_run(net, mod, n_max=_n_max(args, "qle"),
                                            T_hot=args.t_hot, consts=consts)
    first, last = 0, net.N - 1
    out = args.out or "spectrum.csv"
    langevin.write_spectrum_csv(out, grid, {(first, last): fwd, (last, first): bwd})
    print(f"{grid.size} grid points, forward peak {fwd.max():.4e}, "
          f"backward peak {bwd.max():.4e} W s/rad")
    print(f"wrote {out}")
    return EXIT_OK


def _run_sweep(args, spec, out_default):
    rows = sweep(spec, workers=args.parallel)
    failed = [r for r in rows if r.status != "ok"]
    out = args.out or out_default
    scenarios.write_sweep_csv(out, rows)
    print(f"{len(rows)} rows ({len(failed)} flagged), wrote {out}")
    for r in failed:
        print(f"  flagged {r.method} @ beta={r.beta:.3e}: {r.status}",
              file=sys.stderr)
    return rows


def cmd_sweep(args):
    consts, net, mod = _system_from(args)
    raw = [float(v) for v in args.values.split(",")]
    scale = _omega_scale(net)
    if args.parameter in ("beta", "Omega"):
        values = [v * scale for v in raw]
    else:
        values = [v * math.pi for v in raw]
    spec = SweepSpec(network=net, modulation=mod, parameter=args.parameter,
                     values=values, methods=_methods(args) or ("qme",),
                     n_max_qme=_n_max(args, "qme"), n_max_qle=_n_max(args, "qle"),
                     quad_tol=args.quad_tol, T_hot=args.t_hot)
    _run_sweep(args, spec, "sweep.csv")
    return EXIT_OK


def cmd_compare(args):
    consts, net, mod = _system_from(args)
    report = scenarios.compare_methods(
        net, mod, n_max_qme=_n_max(args, "qme"), n_max_qle=_n_max(args, "qle"),
        quad_tol=args.quad_tol, T_hot=args.t_hot, consts=consts,
    )
    for line in report.lines():
        print(line)
    return EXIT_OK


def _normalized_rows(rows):
    """Attach P14/P41 normalized by each method's computed beta = 0 value."""
    baselines = {}
    for r in rows:
        if r.status == "ok" and r.beta == 0.0 and np.isfinite(r.P14):
            baselines.setdefault((r.method, round(r.theta, 12)), r.P14)
    out = []
    for r in rows:
        base = baselines.get((r.method, round(r.theta, 12)))
        if base:
            out.append((r, r.P14 / base, r.P41 / base))
        else:
            out.append((r, float("nan"), float("nan")))
    return out


def _write_norm_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "beta_rad_s", "Omega_rad_s", "theta_rad",
                    "P14_W", "P41_W", "E", "dP_W", "P14_norm", "P41_norm",
                    "status"])
        for r, n14, n41 in _normalized_rows(rows):
            w.writerow([r.method, f"{r.beta:.10e}", f"{r.Omega:.10e}",
                        f"{r.theta:.10e}", f"{r.P14:.12e}", f"{r.P41:.12e}",
                        f"{r.E:.12e}", f"{r.dP:.12e}", f"{n14:.8f}",
                        f"{n41:.8f}", r.status])


def _preset_chain(args, beta_frac=0.05, theta_pi=0.5):
    args.beta = beta_frac
    args.theta = theta_pi
    args.drive = 0.05
    return _system_from(args)


def cmd_fig3a(args):
    methods = _methods(args) or ("qme", "qle")
    all_rows = []
    for theta_pi in (0.1, 0.5):
        consts, net, mod = _preset_chain(args, beta_frac=0.0, theta_pi=theta_pi)
        betas = np.linspace(0.0, 0.06, 13) * _omega_scale(net)
        spec = SweepSpec(network=net, modulation=mod, parameter="beta",
                         values=betas, methods=methods,
                         n_max_qme=_n_max(args, "qme"), n_max_qle=_n_max(args, "qle"),
                         quad_tol=args.quad_tol, T_hot=args.t_hot)
        all_rows.extend(sweep(spec, workers=args.parallel))
    out = args.out or "fig3a.csv"
    _write_norm_csv(out, all_rows)
    print(f"{len(all_rows)} rows, wrote {out}")
    return EXIT_OK


def cmd_fig3b(args):
    records = []
    for theta_pi in (0.1, 0.5):
        consts, net, mod = _preset_chain(args, beta_frac=0.0, theta_pi=theta_pi)
        betas = np.linspace(0.0, 0.06, 13) * _omega_scale(net)
        spec = SweepSpec(network=net, modulation=mod, parameter="beta",
                         values=betas, methods=("qme", "pert1", "pert2", "closed"),
                         n_max_qme=_n_max(args, "qme"), quad_tol=args.quad_tol,
                         T_hot=args.t_hot)
        rows = sweep(spec, workers=args.parallel)
        by_beta = {}
        for r in rows:
            by_beta.setdefault(r.beta, {})[r.method] = r
        for beta in sorted(by_beta):
            group = by_beta[beta]
            records.append((
                beta, theta_pi * math.pi,
                group["qme"].dP, group["pert1"].dP, group["pert2"].dP,
                group["closed"].dP,
            ))
    out = args.out or "fig3b.csv"
    perturbation.write_perturbation_csv(out, records)
    print(f"{len(records)} rows, wrote {out}")
    return EXIT_OK


def cmd_fig4(args):
    thetas = np.arange(-1.0, 1.0 + 1e-9, 0.05) * math.pi
    methods = _methods(args) or ("qme",)
    all_rows = []
    for beta_frac in (0.01, 0.03, 0.05):
        consts, net, mod = _preset_chain(args, beta_frac=beta_frac, theta_pi=0.5)
        spec = SweepSpec(network=net, modulation=mod, parameter="theta",
                         values=thetas, methods=methods,
                         n_max_qme=_n_max(args, "qme"), n_max_qle=_n_max(args, "qle"),
                         quad_tol=args.quad_tol, T_hot=args.t_hot)
        all_rows.extend(sweep(spec, workers=args.parallel))
    out = args.out or "fig4.csv"
    scenarios.write_sweep_csv(out, all_rows)
    print(f"{len(all_rows)} rows, wrote {out}")
    return EXIT_OK


def cmd_fig6(args):
    _preset_chain(args, beta_frac=0.05, theta_pi=0.5)
    args.out = args.out or "fig6.csv"
    return cmd_spectrum(args)


def cmd_fig7(args):
    consts, net, mod = _preset_chain(args, beta_frac=0.0, theta_pi=0.5)
    betas = np.linspace(0.0, 0.06, 13) * _omega_scale(net)
    spec = SweepSpec(network=net, modulation=mod, parameter="beta",
                     values=betas, methods=("qme", "pert1", "pert2"),
                     n_max_qme=_n_max(args, "qme"), quad_tol=args.quad_tol,
                     T_hot=args.t_hot)
    rows = sweep(spec, workers=args.parallel)
    out = args.out or "fig7.csv"
    _write_norm_csv(out, rows)
    print(f"{len(rows)} rows, wrote {out}")
    return EXIT_OK


_COMMANDS = {
    "power": cmd_power,
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "fig3a": cmd_fig3a,
    "fig3b": cmd_fig3b,
    "fig4": cmd_fig4,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValidationError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (FloqheatError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
