"""Command-line front end: single points, spectra, sweeps and figure presets.

Convention for command-line values: beta and Omega are given as fractions
of the chain resonance omega_0, angles as multiples of pi.  Each subcommand
takes only the flags it reads, and flag values are checked as they are
parsed.  Exit codes: 0 success, 2 solver failure, 3 invalid configuration,
inputs or usage.  Every command, sweeps included, runs in this one
process, and each distinct message of the ``floqheat`` logger (regime
findings, an --nmax below the drive's sideband order, a negative pert2
power) is printed once per run as ``warning: ...``.  A row whose status is
not plain "ok" is printed as ``flagged <method>: <status>``, in sweeps
with ``@ <parameter>=<swept value>`` after the method.
"""
from __future__ import annotations

import argparse
import csv
import logging
import math
import sys

import numpy as np

from . import langevin, perturbation, scenarios
from .config import ConfigError, load_config
from .model import FloqheatError, ValidationError
from .scenarios import (DEFAULT_OMEGA0, DEFAULT_T_HOT, SweepSpec,
                        default_chain, sweep)

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_INVALID = 3


def _checked(convert, ok, requirement):
    """argparse type: convert the text, then require ok(value)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    return parse


_FLAGS = {
    "config": dict(help="YAML system description"),
    "beta": dict(type=float, default=0.05,
                 help="modulation amplitude as a fraction of omega_0"),
    "theta": dict(type=float, default=0.5, help="dephasing in multiples of pi"),
    "drive": dict(type=float, default=0.05,
                  help="drive frequency as a fraction of omega_0"),
    "parameter": dict(required=True, choices=("beta", "theta", "Omega")),
    "values": dict(required=True,
                   type=_checked(lambda s: [float(v) for v in s.split(",")],
                                 lambda vs: all(map(math.isfinite, vs)),
                                 "sweep values must be finite"),
                   help="comma list; beta/Omega as fractions of omega_0, "
                        "theta in multiples of pi"),
    "methods": dict(type=_checked(lambda s: tuple(m for m in s.split(",") if m),
                                  lambda ms: ms and set(ms) <= set(scenarios.METHODS),
                                  "methods must be a nonempty list of known methods"),
                    help="comma list from: " + ",".join(scenarios.METHODS)),
    "nmax": dict(type=_checked(int, lambda n: n >= 0, "n_max must be nonnegative"),
                 help="truncation order of qme and qle; overrides the "
                      "drive's order"),
    "quad-tol": dict(type=_checked(float, lambda t: 0.0 < t < math.inf,
                                   "quad_tol must be positive and finite"),
                     default=1e-6, help="relative quadrature tolerance (qle)"),
    "t-hot": dict(type=_checked(float, lambda t: 0.0 <= t < math.inf,
                                "T_hot must be nonnegative and finite"),
                  default=DEFAULT_T_HOT, help="hot bath temperature [K]"),
    "out": dict(help="CSV output path"),
}

_SWEEP_FLAGS = "nmax quad-tol methods t-hot out"

# name: (help, flags, defaults); the fig* presets draw the paper's chain
_SUBCOMMANDS = {
    "power": ("single-point forward/backward powers",
              "config beta theta drive nmax quad-tol methods t-hot out",
              {"methods": ("qme",)}),
    "spectrum": ("forward/backward heat-flux spectra",
                 "config beta theta drive nmax t-hot out", {"out": "spectrum.csv"}),
    "sweep": ("one-parameter sweep",
              "config beta theta drive parameter values " + _SWEEP_FLAGS,
              {"methods": ("qme",), "out": "sweep.csv"}),
    "compare": ("qme / qle / oracle cross-check",
                "config beta theta drive nmax quad-tol t-hot", {}),
    "fig3a": ("normalized P14/P41 vs beta for theta = 0.1 pi and 0.5 pi",
              _SWEEP_FLAGS, {"methods": ("qme", "qle"), "out": "fig3a.csv"}),
    "fig3b": ("flux difference vs beta against perturbation estimates",
              "nmax t-hot out",
              {"methods": ("qme", "pert1", "pert2", "closed"), "out": "fig3b.csv"}),
    "fig4": ("rectification vs theta for several beta",
             _SWEEP_FLAGS, {"methods": ("qme",), "out": "fig4.csv"}),
    "fig6": ("forward/backward spectra at beta = Omega = 0.05 omega_0",
             "nmax t-hot out", {"out": "fig6.csv"}),
    "fig7": ("P14 vs beta against both second-order approximations",
             "nmax t-hot out",
             {"methods": ("qme", "pert1", "pert2"), "out": "fig7.csv"}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors are input errors: main turns them into exit code 3
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    ap = _Parser(
        prog="floqheat",
        description="Heat flux and rectification in modulated resonator networks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (doc, flags, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=doc)
        for flag in flags.split():
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(**defaults)
    return ap


def _chain(beta_frac, theta_pi, drive_frac=0.05):
    """The bundled chain; rates as fractions of omega_0, dephasing in pi."""
    return default_chain(beta=beta_frac * DEFAULT_OMEGA0, theta=theta_pi * math.pi,
                         Omega=drive_frac * DEFAULT_OMEGA0)


def _system_from(args):
    """(net, mod): from --config if given, else the chain flags."""
    if args.config:
        return load_config(args.config)
    return _chain(args.beta, args.theta, args.drive)


def cmd_power(args):
    net, mod = _system_from(args)
    rows = []
    for method in args.methods:
        r = scenarios.operating_point(net, mod, method, args.nmax, args.quad_tol,
                                      args.t_hot)
        print(f"{method:>7}: P14 = {r.P14:.6e} W   P41 = {r.P41:.6e} W   "
              f"dP = {r.dP:.6e} W   E = {r.E:+.4f}")
        if r.status != "ok":
            print(f"  flagged {method}: {r.status}", file=sys.stderr)
        rows.append(r)
    if args.out:
        scenarios.write_sweep_csv(args.out, rows)
        print(f"wrote {args.out}")
    return EXIT_OK


def _spectrum(args, net, mod):
    grid, fwd, bwd = scenarios.spectrum_run(net, mod, n_max=args.nmax,
                                            T_hot=args.t_hot)
    first, last = 0, net.N - 1
    langevin.write_spectrum_csv(args.out, grid, {(first, last): fwd, (last, first): bwd})
    print(f"{grid.size} grid points, forward peak {fwd.max():.4e}, "
          f"backward peak {bwd.max():.4e} W s/rad")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_spectrum(args):
    return _spectrum(args, *_system_from(args))


def cmd_fig6(args):
    return _spectrum(args, *_chain(0.05, 0.5))


def cmd_compare(args):
    net, mod = _system_from(args)
    report = scenarios.compare_methods(net, mod, args.nmax, args.quad_tol, args.t_hot)
    print("\n".join(report.lines()))
    return EXIT_OK


def _sweep(args, net, mod, parameter, values):
    """Rows of one sweep whose spec comes from the subcommand's flags."""
    try:
        spec = SweepSpec(network=net, modulation=mod, parameter=parameter,
                         values=values, methods=args.methods, n_max=args.nmax,
                         # fig3b and fig7 run no qle and take no --quad-tol
                         quad_tol=getattr(args, "quad_tol", SweepSpec.quad_tol),
                         T_hot=args.t_hot)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    rows = sweep(spec)
    for r, value in zip(rows, np.repeat(spec.values, len(spec.methods))):
        if r.status != "ok":
            print(f"  flagged {r.method} @ {parameter}={value:.3e}: "
                  f"{r.status}", file=sys.stderr)
    return rows


def _write(out, write, rows):
    write(out, rows)
    print(f"{len(rows)} rows, wrote {out}")
    return EXIT_OK


def cmd_sweep(args):
    net, mod = _system_from(args)
    scale = float(net.omega[0]) if args.parameter in ("beta", "Omega") else math.pi
    rows = _sweep(args, net, mod, args.parameter, [v * scale for v in args.values])
    return _write(args.out, scenarios.write_sweep_csv, rows)


def _normalized_rows(rows):
    """Attach P14/P41 normalized by each method's computed beta = 0 value."""
    baselines = {}
    for r in rows:
        if r.status.startswith("ok") and r.beta == 0.0 and np.isfinite(r.P14):
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


_BETAS = np.linspace(0.0, 0.06, 13) * DEFAULT_OMEGA0


def cmd_fig3a(args):
    rows = [r for theta_pi in (0.1, 0.5)
            for r in _sweep(args, *_chain(0.0, theta_pi), "beta", _BETAS)]
    return _write(args.out, _write_norm_csv, rows)


def cmd_fig3b(args):
    # rows come per beta in the order of args.methods, the CSV's column order
    k = len(args.methods)
    records = []
    for theta_pi in (0.1, 0.5):
        rows = _sweep(args, *_chain(0.0, theta_pi), "beta", _BETAS)
        records += [(rows[i].beta, theta_pi * math.pi, *(r.dP for r in rows[i:i + k]))
                    for i in range(0, len(rows), k)]
    return _write(args.out, perturbation.write_perturbation_csv, records)


def cmd_fig4(args):
    thetas = np.arange(-1.0, 1.0 + 1e-9, 0.05) * math.pi
    rows = [r for beta_frac in (0.01, 0.03, 0.05)
            for r in _sweep(args, *_chain(beta_frac, 0.5), "theta", thetas)]
    return _write(args.out, scenarios.write_sweep_csv, rows)


def cmd_fig7(args):
    rows = _sweep(args, *_chain(0.0, 0.5), "beta", _BETAS)
    return _write(args.out, _write_norm_csv, rows)


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
    seen = set()       # the package's log messages, each printed once per run
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    handler.addFilter(lambda r: r.getMessage() not in seen
                      and not seen.add(r.getMessage()))
    logger = logging.getLogger("floqheat")
    logger.addHandler(handler)
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ValidationError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (FloqheatError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
