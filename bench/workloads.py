"""Workload inputs, the operations each workload runs, and the correctness gate.

A workload is a fixed list of operations (one *pass*) generated from the
seed.  The benchmark repeats the pass as a closed loop: one serial caller,
each operation starting when the previous one has finished.  Every
operation of every pass is checked against reference values that the gate
computes once, outside the timed region.

Drive amplitudes are drawn stratified (one draw per equal-width stratum of
the range) so that the mix of cheap and expensive operating points, and
hence the cost of a pass, is nearly the same for every seed:

- strong-drive points need n_max 32 below beta ~ 0.251 omega_0 and 64 above;
- the RK4 oracle settles in 11 periods at small beta and 10 at large beta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from floqheat import (ModulationProtocol, ResonatorNetwork, langevin, master,
                      scenarios, validate)
from floqheat.scenarios import DEFAULT_OMEGA0, DEFAULT_T_HOT, SweepSpec

W0 = DEFAULT_OMEGA0
BETA_MAX = 0.06                        # chain sweep range, fraction of omega_0
STRONG_BETA = (0.2, 0.3)               # strong-drive range, fraction of omega_0
STRONG_OMEGA = 0.02                    # strong-drive frequency, fraction of omega_0
NETWORK_N_MAX = 10

# Reference operating point of the chain (criterion 4 and fig. 6)
REF_BETA, REF_THETA = 0.05, 0.5 * math.pi


@dataclass(frozen=True)
class Bounds:
    """Acceptance bounds of the gate, from the repository's criteria."""

    conservation: float = 3e-9     # qme energy balance, relative to P_em (crit. 6)
    qme_qle: float = 5e-3          # qle vs qme (crit. 2)
    qme_oracle: float = 1e-4       # RK4 oracle vs qme (crit. 3)
    spectrum: float = 1e-3         # trapezoid-integrated spectrum vs qme
    e_ref: float = 0.5673          # rectification at the reference point
    e_tol: float = 1e-4
    same_output: float = 1e-12     # a workload's qme vs the gate's own qme


# Workload composition: the number of each kind of operation in one pass.
COMPOSITION = {
    "qme_sweep": {"chain": 64, "network6": 1, "network8": 1, "strong": 2},
    "qle_spectra": {"chain": 6, "spectrum": 1},
    "crosscheck": {"chain": 2},
}


@dataclass
class Op:
    """One operation of a pass; ``chain`` ops feed the point percentiles."""

    kind: str
    point: int
    net: object
    mod: object
    chain: bool = False
    spec: object = None
    ref: dict = field(default_factory=dict)


def _stratified(rng, lo, hi, k):
    u = rng.uniform(0.0, 1.0, k)
    return lo + (hi - lo) * (np.arange(k) + u) / k


def _chain_points(rng, k, with_reference):
    """(beta, theta) pairs in rad/s and rad; the reference point leads."""
    pts = [(REF_BETA * W0, REF_THETA)] if with_reference else []
    k -= len(pts)
    betas = _stratified(rng, 0.0, BETA_MAX, k) * W0
    thetas = rng.uniform(-math.pi, math.pi, k)
    return pts + list(zip(betas, thetas))


def random_network(rng, n):
    """Random hermitian network with exactly two hot baths."""
    omega = W0 * (1.0 + 0.03 * rng.uniform(-1.0, 1.0, n))
    kappa = W0 * rng.uniform(0.008, 0.02, n)
    g = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            mag = 0.1 * kappa.min() * rng.uniform(0.2, 1.0)
            g[i, j] = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            g[j, i] = np.conj(g[i, j])
    temp = np.zeros(n)
    temp[rng.choice(n, 2, replace=False)] = rng.uniform(50.0, 400.0, 2)
    net = ResonatorNetwork(omega=omega, g=g, kappa=kappa, T=temp, hermitian=True)
    mod = ModulationProtocol(
        beta=rng.uniform(0.0, 0.05) * W0,
        Omega=rng.uniform(0.03, 0.08) * W0,
        theta=rng.uniform(-math.pi, math.pi, n),
        mask=rng.integers(0, 2, n),
    )
    return net, mod


def _sweep_spec(net, mod, methods):
    return SweepSpec(network=net, modulation=mod, parameter="beta",
                     values=[mod.beta], methods=methods)


def make_ops(workload, seed, composition=None):
    """The operations of one pass, generated from the seed alone."""
    comp = composition or COMPOSITION[workload]
    rng = np.random.default_rng([seed, sorted(COMPOSITION).index(workload)])
    ops = []

    def add(kind, net, mod, **kw):
        ops.append(Op(kind=kind, point=len(ops), net=net, mod=mod, **kw))

    if workload == "qme_sweep":
        methods = ("qme", "pert1", "pert2", "closed")
        for beta, theta in _chain_points(rng, comp["chain"], True):
            net, mod = scenarios.default_chain(beta, theta)
            add("qme_chain", net, mod, chain=True,
                spec=_sweep_spec(net, mod, methods))
        for n in (6, 8):
            for _ in range(comp.get(f"network{n}", 0)):
                add("network", *random_network(rng, n))
        for beta in _stratified(rng, *STRONG_BETA, comp["strong"]) * W0:
            theta = rng.uniform(-math.pi, math.pi)
            add("strong", *scenarios.default_chain(beta, theta,
                                                   Omega=STRONG_OMEGA * W0))
    elif workload == "qle_spectra":
        for beta, theta in _chain_points(rng, comp["chain"], True):
            net, mod = scenarios.default_chain(beta, theta)
            add("qle_chain", net, mod, chain=True,
                spec=_sweep_spec(net, mod, ("qle",)))
        for _ in range(comp["spectrum"]):
            beta = rng.uniform(0.0, BETA_MAX) * W0
            add("spectrum", *scenarios.default_chain(
                beta, rng.uniform(-math.pi, math.pi)))
    elif workload == "crosscheck":
        for beta, theta in _chain_points(rng, comp["chain"], False):
            add("crosscheck", *scenarios.default_chain(beta, theta), chain=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def validate_ops(ops):
    """Raise if any generated input violates a structural invariant."""
    for op in ops:
        errors = [v.message for v in validate(op.net, op.mod)
                  if v.severity == "error"]
        if errors:
            raise ValueError(f"input {op.point} ({op.kind}) invalid: {errors}")


def warm_up(workload):
    """One small solve through the workload's solver (caches, BLAS start-up)."""
    net, mod = scenarios.default_chain(REF_BETA * W0, REF_THETA)
    hot = net.with_hot_bath(0, DEFAULT_T_HOT)
    if workload in ("qme_sweep", "crosscheck"):
        master.power_matrix(hot, mod, 15)
    if workload in ("qle_spectra", "crosscheck"):
        langevin.spectral_correlations(hot, mod, W0, 10)


def run_op(op):
    """Execute one operation through the package's public API."""
    if op.kind in ("qme_chain", "qle_chain"):
        return scenarios.sweep(op.spec, workers=1)
    if op.kind == "network":
        return master.power_matrix(op.net, op.mod, NETWORK_N_MAX)
    if op.kind == "strong":
        return [master.converged_power_matrix(
            op.net.with_hot_bath(src, DEFAULT_T_HOT), op.mod)[0]
            for src in (0, op.net.N - 1)]
    if op.kind == "spectrum":
        return scenarios.spectrum_run(op.net, op.mod)
    if op.kind == "crosscheck":
        return scenarios.compare_methods(op.net, op.mod)
    raise ValueError(f"unknown operation kind {op.kind!r}")


# -- correctness gate -------------------------------------------------------

def _qme_reference(net, mod):
    """Both chain directions by the moment solver, with their balance defect."""
    out = {}
    for key, src, obs in (("p14", 0, 3), ("p41", 3, 0)):
        pm = master.power_matrix(net.with_hot_bath(src, DEFAULT_T_HOT), mod, 15)
        out[key] = pm.P[src, obs]
        out[f"cons_{key}"] = pm.conservation_residual(src) / pm.P_em[src]
    return out


def prepare_references(ops):
    """Reference values for every chain operation (outside the timed region)."""
    for op in ops:
        if op.kind in ("qme_chain", "qle_chain", "spectrum", "crosscheck"):
            op.ref = _qme_reference(op.net, op.mod)


def _rel(a, b):
    return abs(a / b - 1.0) if b != 0.0 else abs(a - b)


class Gate:
    """Checks outputs and keeps the largest deviations seen."""

    def __init__(self, bounds=Bounds()):
        self.bounds = bounds
        self.worst = {"conservation_max_rel": 0.0, "qme_qle_max_rel_dev": 0.0,
                      "qme_oracle_max_rel_dev": 0.0}

    def _note(self, key, value):
        self.worst[key] = max(self.worst[key], float(value))
        return value

    def check(self, op, out):
        """List of failure messages for one operation's output."""
        try:
            return getattr(self, f"_check_{op.kind}")(op, out)
        except (TypeError, ValueError, KeyError, IndexError,
                AttributeError, ZeroDivisionError) as exc:
            return [f"malformed output: {exc!r}"]

    def _balance(self, op):
        b = self.bounds
        return [f"qme energy balance {op.ref[k]:.2e} > {b.conservation:.0e}"
                for k in ("cons_p14", "cons_p41")
                if not self._note("conservation_max_rel", op.ref[k]) <= b.conservation]

    def _reference_e(self, op, p14, p41):
        if op.point != 0:
            return []
        e = scenarios.rectification(p14, p41)
        if not abs(e - self.bounds.e_ref) <= self.bounds.e_tol:
            return [f"E at the reference point {e:+.6f}, expected "
                    f"{self.bounds.e_ref:+.4f} +- {self.bounds.e_tol:.0e}"]
        return []

    def _check_qme_chain(self, op, rows):
        fails = self._balance(op)
        for row in rows:
            values = (row.dP,) if row.method == "closed" else (row.P14, row.P41)
            if row.status != "ok" or not np.all(np.isfinite(values)):
                fails.append(f"{row.method}: status {row.status!r}, {values}")
        qme = next(r for r in rows if r.method == "qme")
        for got, key in ((qme.P14, "p14"), (qme.P41, "p41")):
            if not _rel(got, op.ref[key]) <= self.bounds.same_output:
                fails.append(f"qme {key} {got:.12e} differs from the gate's "
                             f"{op.ref[key]:.12e}")
        return fails + self._reference_e(op, qme.P14, qme.P41)

    def _check_qle_chain(self, op, rows):
        (row,) = rows
        if row.status != "ok":
            return [f"qle: status {row.status!r}"]
        fails = self._balance(op)
        for got, key in ((row.P14, "p14"), (row.P41, "p41")):
            dev = self._note("qme_qle_max_rel_dev", _rel(got, op.ref[key]))
            if not dev <= self.bounds.qme_qle:
                fails.append(f"qle {key} off qme by {dev:.2e}")
        return fails + self._reference_e(op, row.P14, row.P41)

    def _check_spectrum(self, op, out):
        grid, fwd, bwd = out
        fails = self._balance(op)
        for spec, key in ((fwd, "p14"), (bwd, "p41")):
            if not (np.all(np.isfinite(spec)) and np.all(spec >= 0.0)):
                fails.append(f"{key} spectrum not finite and nonnegative")
                continue
            dev = _rel(np.trapezoid(spec, grid) / (2.0 * math.pi), op.ref[key])
            if not dev <= self.bounds.spectrum:
                fails.append(f"{key} integrated spectrum off qme by {dev:.2e}")
        return fails

    def _check_crosscheck(self, op, cmp):
        fails = self._balance(op)
        for method, val in cmp.powers.items():
            if isinstance(val, str):
                fails.append(f"{method} failed: {val}")
        if fails:
            return fails
        ref = (op.ref["p14"], op.ref["p41"])
        for method, key, bound in (("qle", "qme_qle_max_rel_dev", self.bounds.qme_qle),
                                   ("oracle", "qme_oracle_max_rel_dev",
                                    self.bounds.qme_oracle)):
            dev = self._note(key, max(_rel(a, b) for a, b in
                                      zip(cmp.powers[method], ref)))
            if not dev <= bound:
                fails.append(f"{method} off qme by {dev:.2e}")
        if not all(_rel(a, b) <= self.bounds.same_output
                   for a, b in zip(cmp.powers["qme"], ref)):
            fails.append("compare_methods qme differs from the gate's qme")
        return fails

    def _power_matrix_ok(self, pm, sources):
        fails = []
        if not (np.all(np.isfinite(pm.P)) and np.all(np.isfinite(pm.P_em))):
            return ["non-finite powers"]
        if np.any(pm.P < 0.0) or np.any(pm.P_em < 0.0):
            fails.append("negative power")
        for k in sources:
            rel = self._note("conservation_max_rel",
                             pm.conservation_residual(k) / pm.P_em[k])
            if not rel <= self.bounds.conservation:
                fails.append(f"energy balance of bath {k}: {rel:.2e}")
        return fails

    def _check_network(self, op, pm):
        return self._power_matrix_ok(pm, np.nonzero(op.net.T)[0])

    def _check_strong(self, op, pms):
        return [f for pm, src in zip(pms, (0, op.net.N - 1))
                for f in self._power_matrix_ok(pm, [src])]
