"""Brute-force time integration of the moment equations to the periodic state.

Structurally independent of the Fourier solver: the generator is assembled
directly from the coupled moment ODEs and stepped with fixed-step RK4.  The
periodic state is found by shooting (Aprille & Trick, IEEE Trans. Circuit
Theory 19, 1972): one period of [Y | one forced column y_k per occupied
bath] gives the monodromy matrix Phi = Y(T) and b_k = y_k(T).  The
equations are affine in the source, so bath k's share of the periodic
state is y0_k = (I - Phi)^-1 b_k, with cycle average Ybar y0_k + ybar_k
from the same period's trapezoid means.  The eigenvalues of Phi are the
Floquet multipliers; the largest must lie inside the unit circle for a
periodic steady state to exist and attract.  One more period, stepped from
sum_k y0_k, is stored as samples.  Exists to catch transcription errors
that a shared matrix assembly would repeat.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SI, ConvergenceError, ensure_valid, occupation
from .master import moment_index_map

__all__ = [
    "MomentSamples",
    "evolve_to_cycle",
    "cycle_averaged_moments",
    "cycle_average_power",
]


@dataclass(frozen=True)
class MomentSamples:
    """Moment-vector samples over one period, endpoints included, of all
    baths together, and each bath's share of their cycle average."""

    t: np.ndarray          # (S + 1,) [s]
    y: np.ndarray          # (S + 1, N^2) complex, MomentIndexMap order
    periods_used: int
    floquet_multiplier: float   # largest |eigenvalue| of the monodromy matrix
    bath_averages: np.ndarray   # (N^2, N): column k from bath k, 0 at 0 K


def _static_generator(net):
    """Time-independent part of dy/dt = G(t) y + s, plus the source vector."""
    N = net.N
    imap = moment_index_map(N)
    g = net.g
    gen = np.zeros((imap.size, imap.size), dtype=complex)
    src = np.zeros(imap.size, dtype=complex)
    nvec = net.occupations()
    for k in range(N):
        row = imap.index(k, k)
        gen[row, row] = -2.0 * net.kappa[k]
        src[row] = 2.0 * net.kappa[k] * nvec[k]
        for j in range(N):
            if j == k:
                continue
            gen[row, imap.index(k, j)] += -1j * g[k, j]
            gen[row, imap.index(j, k)] += 1j * g[j, k]
    for k in range(N):
        for l in range(N):
            if k == l:
                continue
            row = imap.index(k, l)
            gen[row, row] = 1j * (net.omega[k] - net.omega[l]) - net.kappa[k] - net.kappa[l]
            for j in range(N):
                if j == k or j == l:
                    continue
                gen[row, imap.index(k, j)] += -1j * g[l, j]
                gen[row, imap.index(j, l)] += 1j * g[j, k]
            gen[row, imap.index(k, k)] += -1j * g[l, k]
            gen[row, imap.index(l, l)] += 1j * g[l, k]
    return gen, src


def _drive_diagonal(mod, imap, t):
    """Time-dependent diagonal of the generator, i beta (c_bra - c_ket).

    t may be an array; the result then has one row per time.
    """
    c = mod.mask * np.cos(mod.Omega * np.asarray(t)[..., None] + mod.theta)
    return 1j * mod.beta * (c[..., imap.bra] - c[..., imap.ket])


def _rk4_period(gen0, src, drive, dt, y, store=None):
    """Step dy/dt = (gen0 + diag(drive)) y + src over one period by RK4.

    y has one column per trajectory; drive[j] is the drive diagonal at time
    j dt / 2, as a column, so step s reads rows 2s, 2s + 1 and 2s + 2.  With
    ``store`` given, store[s] receives the first column after s steps.
    Returns y after the period and the trapezoid mean of y over it.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    steps = (len(drive) - 1) // 2
    total = 0.5 * y
    if store is not None:
        store[0] = y[:, 0]
    for s in range(steps):
        d0, dh, d1 = drive[2 * s], drive[2 * s + 1], drive[2 * s + 2]
        k1 = gen0 @ y + d0 * y + src
        y2 = y + half * k1
        k2 = gen0 @ y2 + dh * y2 + src
        y3 = y + half * k2
        k3 = gen0 @ y3 + dh * y3 + src
        y4 = y + dt * k3
        k4 = gen0 @ y4 + d1 * y4 + src
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        total += y
        if store is not None:
            store[s + 1] = y[:, 0]
    return y, (total - 0.5 * y) / steps


def evolve_to_cycle(net, mod, steps_per_period=4096):
    """Periodic steady state by shooting over one drive period.

    One RK4 period of [Y | y_k for each occupied bath k], with Y(0) = I,
    y_k(0) = 0 and bath k's source entering only y_k, gives the monodromy
    matrix Phi = Y(T), b_k = y_k(T) and the trapezoid means Ybar, ybar_k.
    Bath k's periodic share y0_k = (I - Phi)^-1 b_k has the cycle average
    Ybar y0_k + ybar_k, column k of ``bath_averages``.  A second period
    stepped from sum_k y0_k is stored as the samples (``periods_used`` is
    2).  Raises ConvergenceError when the step is unstable, when Phi is not
    finite, or when the largest Floquet multiplier max |eig Phi| is not
    below 1, so that no periodic state attracts; the multiplier is reported
    as ``floquet_multiplier``.
    """
    ensure_valid(net, mod)
    if steps_per_period < 2000:
        raise ValueError("need at least 2000 steps per period")
    imap = moment_index_map(net.N)
    n = imap.size
    gen0, src = _static_generator(net)

    period = 2.0 * np.pi / mod.Omega
    dt = period / steps_per_period
    # RK4 stability: the stiffest rates are the moment detunings plus the
    # drive excursion; keep |lambda| dt well inside the stability region
    rate = (np.abs(np.diag(gen0)).max() + 2.0 * mod.beta) * dt
    if rate > 2.5:
        raise ConvergenceError(
            f"step size unstable: |lambda| dt = {rate:.2f} > 2.5; "
            "raise steps_per_period"
        )

    # the drive diagonal on the half-step grid of one period, as columns;
    # the generator is T-periodic, so the second period reads the same table
    half_steps = np.arange(2 * steps_per_period + 1) * (0.5 * dt)
    drive = _drive_diagonal(mod, imap, half_steps)[:, :, None]
    # bath k feeds only the occupation of resonator k
    hot = [k for k in range(net.N) if src[imap.index(k, k)] != 0.0]
    y_aug = np.zeros((n, n + len(hot)), dtype=complex)
    y_aug[:, :n] = np.eye(n)
    src_aug = np.zeros_like(y_aug)
    src_aug[:, n:] = np.diag(src)[:, [imap.index(k, k) for k in hot]]
    y_aug, mean = _rk4_period(gen0, src_aug, drive, dt, y_aug)
    phi, b = y_aug[:, :n], y_aug[:, n:]
    if not np.all(np.isfinite(y_aug)):
        raise ConvergenceError("monodromy matrix is not finite after one period")
    multiplier = float(np.abs(np.linalg.eigvals(phi)).max())
    if not multiplier < 1.0:
        raise ConvergenceError(
            f"no periodic steady state: largest Floquet multiplier "
            f"{multiplier:.6g} is not below 1"
        )
    y0 = np.linalg.solve(np.eye(n) - phi, b)
    shares = np.zeros((n, net.N), dtype=complex)
    shares[:, hot] = mean[:, :n] @ y0 + mean[:, n:]

    traj = np.empty((steps_per_period + 1, n), dtype=complex)
    _rk4_period(gen0, src[:, None], drive, dt, y0.sum(1, keepdims=True), traj)
    times = period + np.arange(steps_per_period + 1) * dt
    return MomentSamples(t=times, y=traj, periods_used=2,
                         floquet_multiplier=multiplier, bath_averages=shares)


def cycle_averaged_moments(samples):
    """Trapezoid average of every moment over the stored period."""
    # equal steps: the mean needs no dt, which t = T + s dt resolves only
    # to ~1e-13 relative
    return np.trapezoid(samples.y, axis=0) / (len(samples.t) - 1)


def cycle_average_power(samples, net, source):
    """Powers of the source bath alone: returns (row P_{source->l}, P_em).

    Reads only the source bath's share of the cycle average (the
    PowerMatrix contract).  Same prefactors as the Fourier route, with the
    zeroth coefficient replaced by the explicit period average.
    """
    N = net.N
    imap = moment_index_map(N)
    avg = samples.bath_averages[:, source]
    n_src = occupation(net.T[source], net.omega[source])
    pref = SI.hbar * net.omega[source]
    row = np.zeros(N)
    for l in range(N):
        if l != source:
            row[l] = pref * 2.0 * net.kappa[l] * avg[imap.index(l, l)].real
    p_em = pref * 2.0 * net.kappa[source] * (n_src - avg[imap.index(source, source)].real)
    return row, p_em
