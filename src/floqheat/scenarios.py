"""Forward/backward runs, method checks, and every CSV the package writes.

The measurement protocol keeps the modulation fixed and moves only the hot
bath: forward puts the first resonator at T_hot, backward the last one
(resonators 1 and 4 of the bundled four-resonator chain, 1 and N of any
network of at least two).  Rectification is the normalized asymmetry
E = (P14 - P41)/(P14 + P41), where P14 is the forward and P41 the backward
power.  Every solver reads each direction from its own hot bath's share,
so all of them, the spectra included, take both directions from one
network with both end baths hot; pert1 is qme truncated at one sideband
and pert2 its Neumann expansion.  Theta sweeps and the closed forms assume
the four-resonator chain.

An operating point is prepared once and read by every method run on it:
the swept parameter is applied, the network with both ends hot is built,
and its regime findings (``model.validate``) go to this module's logger.
``sweep`` does that once per value for all of its methods, and
``operating_point`` and ``spectrum_run`` once per call; a method that fails
flags only its own row of a sweep.

qme and qle truncate at the drive's own sideband order unless given one:
``master.drive_order`` reads it from the contrasts of the moment stripes,
``langevin.drive_order`` from the phasors of the amplitude stripes, at each
operating point.  A drive that needs more than ``MAX_SIDEBAND_ORDER``
sidebands raises ValidationError before any block is built; an explicit
order is used as given, and one below that of a driven protocol is logged
to the same logger and flagged in the row's status.  A negative pert2
transfer power is logged there too (beta beyond the Neumann expansion's
range), and its row stays "ok".

Each file format is a header plus a row formatter through one
``_write_csv``: sweeps, sweeps normalized by their beta = 0 rows, spectra
and perturbation tables.
"""
from __future__ import annotations

import csv
import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import langevin, master, perturbation, timedomain
from .model import (MAX_SIDEBAND_ORDER, FloqheatError, ValidationError,
                    _real_scalar, build_chain4, check_n_max, validate)

__all__ = [
    "DEFAULT_OMEGA0",
    "DEFAULT_T_HOT",
    "default_chain",
    "rectification",
    "operating_point",
    "SweepSpec",
    "SweepRow",
    "sweep",
    "default_spectrum_grid",
    "spectrum_run",
    "MethodComparison",
    "compare_methods",
    "write_sweep_csv",
    "write_normalized_csv",
    "write_spectrum_csv",
    "write_perturbation_csv",
]

_log = logging.getLogger(__name__)

# defaults of the bundled chain scenario (rates fitted to a pair of graphene
# flakes 100 nm apart; any four-resonator realization works the same way)
DEFAULT_OMEGA0 = 1.69e14          # rad/s
DEFAULT_KAPPA_FRAC = 0.013        # kappa / omega0
DEFAULT_COUPLING_FRAC = 0.011     # g / kappa
DEFAULT_DRIVE_FRAC = 0.05         # Omega / omega0
DEFAULT_T_HOT = 300.0             # K

METHODS = ("qme", "qle", "oracle", "pert1", "pert2", "closed")
# compare_methods: largest relative deviation from qme that still passes
TOL_QME_QLE = 5e-3                # criterion 2
TOL_QME_ORACLE = 1e-4             # criterion 3
# default spectrum grid
_PEAK_POINTS = 121                # points per expected peak
_PEAK_HALFWIDTH = 8.0             # in units of the largest linewidth
_BACKGROUND_POINTS = 600          # evenly over the whole window


def default_chain(beta=0.0, theta=0.5 * math.pi,
                  Omega=DEFAULT_DRIVE_FRAC * DEFAULT_OMEGA0):
    """Standard four-resonator chain; beta/theta set the synthetic fields."""
    kappa = DEFAULT_KAPPA_FRAC * DEFAULT_OMEGA0
    return build_chain4(DEFAULT_OMEGA0, DEFAULT_COUPLING_FRAC * kappa, kappa,
                        beta, Omega, theta)


def _ends(net):
    """(first, last) resonator of the protocol, raising unless they differ."""
    if net.N < 2:
        raise ValidationError(
            "the forward/backward protocol needs at least two resonators")
    return 0, net.N - 1


def _ends_hot(net, mod, T_hot):
    """((first, last), copy of net with both end baths at T_hot and the
    others at 0 K); logs the regime findings of that copy with mod.
    ``sweep`` calls it once per value, and every method of the value reads
    its result."""
    first, last = _ends(net)
    temp = np.zeros(net.N)
    temp[[first, last]] = T_hot
    both = net.with_temperatures(temp)
    for finding in validate(both, mod):
        _log.warning(finding.message)
    return (first, last), both


def _order(method, mod, n_max):
    """Truncation order of a qme or qle solve and its status notes: n_max
    as given, or the drive's sideband order for None, which raises
    ValidationError above MAX_SIDEBAND_ORDER before any block is built.
    An explicit order below the drive's is logged and noted, unless
    beta = 0, where no sideband couples and every order is exact."""
    order = (master if method == "qme" else langevin).drive_order(mod)
    if n_max is None:
        if order > MAX_SIDEBAND_ORDER:
            raise ValidationError(
                f"the drive needs {order} sidebands ({method}), more than "
                f"{MAX_SIDEBAND_ORDER}; pass n_max to truncate explicitly")
        return order, ()
    check_n_max(n_max)
    if n_max < order and mod.beta > 0.0:
        _log.warning(f"n_max = {n_max} below the drive's sideband order "
                     f"{order} ({method})")
        return n_max, ("n_max below drive order",)
    return n_max, ()


def _powers(method, ends, both, mod, n_max, quad_tol):
    """(P14, P41, status notes) of one method on ``both``, the network with
    both ends hot, whose (first, last) resonators are ``ends``."""
    first, last = ends
    order, notes = 1, ()                # pert1 is qme at order 1
    if method in ("qme", "qle"):
        order, notes = _order(method, mod, n_max)
    if method in ("qme", "pert1"):
        pm = master.power_matrix(both, mod, order)
    elif method == "pert2":
        pm = perturbation.power_second_order(both, mod)
    elif method == "oracle":
        pm = timedomain.cycle_average_power(
            timedomain.evolve_to_cycle(both, mod), both)
    elif method == "qle":
        return (*langevin.integrate_power(both, mod, (first, last),
                                          (last, first), order, quad_tol),
                notes)
    else:
        raise ValueError(f"unknown method {method!r}")
    p14, p41 = pm.P[first, last], pm.P[last, first]
    if method == "pert2" and (p14 < 0.0 or p41 < 0.0):
        _log.warning("pert2 transfer power negative: beta is beyond the "
                     "Neumann expansion's range")
    return p14, p41, notes


def rectification(P14, P41):
    """Normalized forward/backward asymmetry (P14 - P41)/(P14 + P41)."""
    total = P14 + P41
    if total == 0.0:
        raise ZeroDivisionError("both powers are zero; rectification undefined")
    return (P14 - P41) / total


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over a fixed chain context.

    parameter is "beta", "theta" or "Omega"; theta values address the
    dephasing of the third resonator (chain convention).  Angles in rad,
    rates in rad/s.  n_max None gives qme and qle the drive's sideband
    order at each swept point (see ``operating_point``); an integer
    sets both at every point.  n_max, quad_tol and T_hot are checked here,
    so a bad one fails the spec, not every row.
    """

    network: object
    modulation: object
    parameter: str
    values: np.ndarray
    methods: tuple = ("qme",)
    n_max: int | None = None          # None: the drive's order at each point
    quad_tol: float = 1e-6
    T_hot: float = DEFAULT_T_HOT

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.parameter not in ("beta", "theta", "Omega"):
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if (self.values.ndim != 1 or self.values.size == 0
                or not np.all(np.isfinite(self.values))):
            raise ValueError("sweep values must be 1-d, nonempty and finite")
        if not self.methods:
            raise ValueError("select at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.parameter == "theta" and self.network.N != 4:
            raise ValueError("theta sweeps assume the four-resonator chain")
        if self.n_max is not None:
            check_n_max(self.n_max)
        quad_tol, T_hot = _real_scalar(self.quad_tol), _real_scalar(self.T_hot)
        if quad_tol is None or not 0.0 < quad_tol < math.inf:
            raise ValueError("quad_tol must be positive and finite")
        if T_hot is None or not 0.0 <= T_hot < math.inf:
            raise ValueError("T_hot must be nonnegative and finite")
        object.__setattr__(self, "quad_tol", quad_tol)
        object.__setattr__(self, "T_hot", T_hot)


@dataclass(frozen=True)
class SweepRow:
    method: str
    beta: float
    Omega: float
    theta: float          # dephasing between the two modulated resonators
    P14: float
    P41: float
    E: float
    dP: float
    status: str = "ok"


def _apply_parameter(mod, parameter, value):
    if parameter != "theta":
        return dataclasses.replace(mod, **{parameter: float(value)})
    theta = np.array(mod.theta)
    theta[2] = float(value)
    return dataclasses.replace(mod, theta=theta)


def _dephasing(mod):
    if len(mod.theta) == 4:
        return float(mod.theta[2] - mod.theta[1])
    return float("nan")


def _row(method, ends, both, mod, n_max, quad_tol, T_hot):
    """SweepRow of one method on ``both``, the network with both ends hot."""
    nan = float("nan")
    if method == "closed":
        p14, p41, notes = nan, nan, ()
        dP = perturbation.closed_form_delta_power(both, mod, T_hot)
    else:
        p14, p41, notes = _powers(method, ends, both, mod, n_max, quad_tol)
        dP = p14 - p41
    e = rectification(p14, p41) if p14 + p41 != 0.0 else nan
    return SweepRow(method, mod.beta, mod.Omega, _dephasing(mod),
                    p14, p41, e, dP, "; ".join(("ok",) + notes))


def operating_point(net, mod, method="qme", n_max=None, quad_tol=1e-6,
                    T_hot=DEFAULT_T_HOT):
    """One SweepRow of the forward/backward protocol; raises on failure.

    P14 has the hot bath on the first resonator, P41 on the last, under the
    same modulation.  Builds the network with both ends hot and logs its
    regime findings once, then runs the method on it as ``sweep`` does at
    each value.  pert1 is qme at n_max = 1 whatever n_max says; pert2, the
    oracle and "closed" take no order.  A "closed" row holds only the
    weak-coupling flux difference dP, with P14, P41 and E NaN; E is NaN as
    well where both powers vanish.
    """
    return _row(method, *_ends_hot(net, mod, T_hot), mod, n_max, quad_tol,
                T_hot)


def _flagged(spec, mod, value, method, exc):
    """Error row of one method at one swept value: NaN powers, the error in
    the status, and a rejected beta or Omega (mod left unswept) in its
    column."""
    nan = float("nan")
    row = SweepRow(method, mod.beta, mod.Omega, _dephasing(mod),
                   nan, nan, nan, nan, status=f"error: {exc}")
    if spec.parameter != "theta":
        row = dataclasses.replace(row, **{spec.parameter: float(value)})
    return row


def _sweep_value(spec, value):
    """Rows of every method at one swept value, in spec.methods order.

    A failing value or network flags every row of the value; a failing
    method flags only its own row.  Neither aborts the sweep.
    """
    mod = spec.modulation
    try:
        mod = _apply_parameter(mod, spec.parameter, value)
        ends, both = _ends_hot(spec.network, mod, spec.T_hot)
    except (FloqheatError, ValueError) as exc:
        return [_flagged(spec, mod, value, m, exc) for m in spec.methods]
    rows = []
    for method in spec.methods:
        try:
            rows.append(_row(method, ends, both, mod, spec.n_max,
                             spec.quad_tol, spec.T_hot))
        except (FloqheatError, ValueError) as exc:
            rows.append(_flagged(spec, mod, value, method, exc))
    return rows


def sweep(spec, workers=1):
    """One SweepRow per (value, method), ordered by value then method.

    Each value is one operating point: the swept parameter is applied, the
    network with both ends hot is built and its regime findings logged
    once, and every method runs on it; each row equals the
    ``operating_point`` row of that value and method.  The values run one
    after another in this process.  ``workers`` is kept for callers that
    still pass workers=1; any other value raises ValueError.
    """
    if workers != 1:
        raise ValueError(f"workers = {workers!r}: the process pool was "
                         "removed, sweeps run in one process")
    return [row for v in spec.values for row in _sweep_value(spec, v)]


def default_spectrum_grid(net, mod, n_max):
    """Frequency grid resolving each expected peak plus a coarse background.

    It covers qle's integration window above omega = 0, where spectra are
    defined, and the peaks there.  The point counts and the peak
    half-width are the module constants above.
    """
    lo, hi, peaks = langevin.integration_window(net, mod, n_max)
    lo, peaks = max(lo, 0.0), peaks[peaks > 0.0]
    width = _PEAK_HALFWIDTH * net.kappa.max()
    pieces = [np.linspace(lo, hi, _BACKGROUND_POINTS)]
    for p in peaks:
        pieces.append(np.linspace(p - width, p + width, _PEAK_POINTS))
    grid = np.unique(np.concatenate(pieces))
    return grid[(grid >= lo) & (grid <= hi)]


def spectrum_run(net, mod, grid=None, n_max=None, T_hot=DEFAULT_T_HOT):
    """Forward and backward heat-flux spectra on a shared grid.

    Returns (grid, forward, backward): forward is P_{1->N, omega} with the
    first resonator hot, backward P_{N->1, omega} with the last hot.  n_max
    None means the drive's sideband order for qle (``langevin.drive_order``),
    which also sets the default grid and raises ValidationError above
    MAX_SIDEBAND_ORDER; an explicit order below it is logged.
    Both spectra come from one network with both end baths hot, through one
    elimination per frequency chunk.
    """
    (first, last), both = _ends_hot(net, mod, T_hot)
    n_max = _order("qle", mod, n_max)[0]
    if grid is None:
        grid = default_spectrum_grid(net, mod, n_max)
    fwd, bwd = langevin.heat_flux_spectrum(both, mod, (first, last),
                                           (last, first), grid, n_max)
    return grid, fwd, bwd


@dataclass(frozen=True)
class MethodComparison:
    """Cross-method agreement report on one operating point."""

    powers: dict                   # method -> (P14, P41) or error string
    deviations: dict               # pair label -> max relative deviation
    passed: bool
    notes: dict = dataclasses.field(default_factory=dict)  # method -> status notes

    def lines(self):
        out = []
        for method, val in self.powers.items():
            if isinstance(val, str):
                out.append(f"{method:>7}: FAILED ({val})")
            else:
                out.append(f"{method:>7}: P14 = {val[0]:.6e} W   P41 = {val[1]:.6e} W")
            if self.notes.get(method):
                out.append(f"  flagged {method}: "
                           + "; ".join(("ok",) + self.notes[method]))
        for label, dev in self.deviations.items():
            out.append(f"{label}: max rel deviation {dev:.3e}")
        out.append("cross-validation " + ("PASS" if self.passed else "FAIL"))
        return out


def compare_methods(net, mod, n_max=None, quad_tol=1e-6, T_hot=DEFAULT_T_HOT):
    """Run qme, qle and oracle on the same point and grade the agreement.

    n_max None gives qme and qle each the drive's sideband order from its
    own stripes; an integer sets both, and is logged where it falls below
    either.  The point passes when every method succeeds and, in both
    directions, qle lies within TOL_QME_QLE = 5e-3 (criterion 2) and the
    oracle within TOL_QME_ORACLE = 1e-4 (criterion 3) of qme, relative
    (equal zeros deviate by 0, anything else against a zero qme by inf).
    A network without two distinct ends raises ValidationError; solver
    failures are reported per method.  The network with both ends hot is
    built and its regime findings logged once, and all three methods run
    on it; a failure to build it is reported for all three.  Each method's
    status notes, as a sweep row carries them, go to ``notes``.
    """
    _ends(net)
    methods = ("qme", "qle", "oracle")
    notes = {}
    try:
        ends, both = _ends_hot(net, mod, T_hot)
    except (FloqheatError, ValueError) as exc:
        powers = dict.fromkeys(methods, str(exc))
    else:
        powers = {}
        for method in methods:
            try:
                *pair, notes[method] = _powers(method, ends, both, mod, n_max,
                                               quad_tol)
                powers[method] = tuple(pair)
            except (FloqheatError, ValueError) as exc:
                powers[method] = str(exc)

    def rel_dev(a, b):
        # against a zero qme power, an equal zero deviates by 0, anything else by inf
        return max(abs(x - y) / abs(x) if x else (0.0 if y == 0.0 else math.inf)
                   for x, y in zip(a, b))

    deviations = {}
    passed = not any(isinstance(v, str) for v in powers.values())
    for other, tol in (("qle", TOL_QME_QLE), ("oracle", TOL_QME_ORACLE)):
        if not isinstance(powers["qme"], str) and not isinstance(powers[other], str):
            label = f"qme-vs-{other}"
            deviations[label] = rel_dev(powers["qme"], powers[other])
            passed = passed and deviations[label] <= tol
    return MethodComparison(powers=powers, deviations=deviations, passed=passed,
                            notes=notes)


def _write_csv(path, header, rows):
    """Write ``header`` and then each row of ``rows`` to ``path`` as CSV."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# inputs are written to 10 digits after the point, outputs to 12
_SWEEP_HEADER = ["method", "beta_rad_s", "Omega_rad_s", "theta_rad",
                 "P14_W", "P41_W", "E", "dP_W"]


def _sweep_fields(r):
    return [r.method, f"{r.beta:.10e}", f"{r.Omega:.10e}", f"{r.theta:.10e}",
            f"{r.P14:.12e}", f"{r.P41:.12e}", f"{r.E:.12e}", f"{r.dP:.12e}"]


def write_sweep_csv(path, rows):
    """Long-format sweep export, one row per point per method."""
    _write_csv(path, _SWEEP_HEADER + ["status"],
               (_sweep_fields(r) + [r.status] for r in rows))


def write_normalized_csv(path, rows):
    """Sweep export with P14 and P41 normalized by the P14 of the same
    method's computed beta = 0 row ("ok" or "ok; ...") at the same theta;
    NaN where there is none."""
    baselines = {}
    for r in rows:
        if r.status.startswith("ok") and r.beta == 0.0 and np.isfinite(r.P14):
            baselines.setdefault((r.method, round(r.theta, 12)), r.P14)

    def fields(r):
        base = baselines.get((r.method, round(r.theta, 12)))
        n14, n41 = (r.P14 / base, r.P41 / base) if base else (math.nan,) * 2
        return _sweep_fields(r) + [f"{n14:.8f}", f"{n41:.8f}", r.status]

    _write_csv(path, _SWEEP_HEADER + ["P14_norm", "P41_norm", "status"],
               map(fields, rows))


def write_spectrum_csv(path, grid, slices):
    """Spectrum export; ``slices`` maps (source, observer) 0-based pairs to
    per-grid-point spectral power densities.  Labels in the file are 1-based.
    """
    _write_csv(path, ["omega_rad_s", "source_bath", "observer",
                      "spectral_power_W_per_rad_s"],
               ([f"{w:.10e}", source + 1, observer + 1, f"{s:.12e}"]
                for (source, observer), values in slices.items()
                for w, s in zip(grid, values)))


def write_perturbation_csv(path, rows):
    """rows: iterables of (beta, theta, dP_exact, dP_pa1, dP_pa2, dP_closed)."""
    def fields(beta, theta, d_exact, d_pa1, d_pa2, d_closed):
        return [f"{beta:.10e}", f"{theta:.10e}", f"{d_exact:.12e}",
                f"{d_pa1:.12e}", f"{d_pa2:.12e}", f"{d_closed:.12e}"]

    _write_csv(path, ["beta", "theta", "dP_exact_W", "dP_pa1_W", "dP_pa2_W",
                      "dP_closed_W"], (fields(*r) for r in rows))
