"""Brute-force time integration of the moment equations to the periodic state.

Structurally independent of the Fourier solver: the generator is assembled
directly from the coupled moment ODEs and stepped with fixed-step RK4.  The
periodic state is found by shooting (Aprille & Trick, IEEE Trans. Circuit
Theory 19, 1972): one period of the augmented system [Y | y_p] gives the
monodromy matrix Phi = Y(T) and the forced response b = y_p(T), and the
state that repeats after one period solves (I - Phi) y0 = b.  The
eigenvalues of Phi are the Floquet multipliers; the largest must lie inside
the unit circle for a periodic steady state to exist and attract.  Cycle
averages are taken by trapezoid over one more period stepped from y0.
Exists to catch transcription errors that a shared matrix assembly would
repeat.
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
    """Moment-vector samples over one period, endpoints included."""

    t: np.ndarray          # (S + 1,) [s]
    y: np.ndarray          # (S + 1, N^2) complex, MomentIndexMap order
    periods_used: int
    floquet_multiplier: float   # largest |eigenvalue| of the monodromy matrix


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
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    if store is not None:
        store[0] = y[:, 0]
    for s in range((len(drive) - 1) // 2):
        d0, dh, d1 = drive[2 * s], drive[2 * s + 1], drive[2 * s + 2]
        k1 = gen0 @ y + d0 * y + src
        y2 = y + half * k1
        k2 = gen0 @ y2 + dh * y2 + src
        y3 = y + half * k2
        k3 = gen0 @ y3 + dh * y3 + src
        y4 = y + dt * k3
        k4 = gen0 @ y4 + d1 * y4 + src
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if store is not None:
            store[s + 1] = y[:, 0]
    return y


def evolve_to_cycle(net, mod, steps_per_period=4096):
    """Periodic steady state by shooting over one drive period.

    One RK4 period of the augmented system [Y | y_p], with Y(0) = I and
    y_p(0) = 0 and the source entering only y_p, gives the monodromy matrix
    Phi = Y(T) and b = y_p(T).  The periodic initial state is
    y0 = (I - Phi)^-1 b, and a second period stepped from y0 is stored as the
    samples (``periods_used`` is 2).  Raises ConvergenceError when the step
    is unstable, when Phi is not finite, or when the largest Floquet
    multiplier max |eig Phi| is not below 1, so that no periodic state
    attracts; the multiplier is reported as ``floquet_multiplier``.
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
    src_aug = np.zeros((n, n + 1), dtype=complex)
    src_aug[:, n] = src
    y_aug = np.zeros((n, n + 1), dtype=complex)
    y_aug[:, :n] = np.eye(n)
    y_aug = _rk4_period(gen0, src_aug, drive, dt, y_aug)
    phi, b = y_aug[:, :n], y_aug[:, n]
    if not np.all(np.isfinite(y_aug)):
        raise ConvergenceError("monodromy matrix is not finite after one period")
    multiplier = float(np.abs(np.linalg.eigvals(phi)).max())
    if not multiplier < 1.0:
        raise ConvergenceError(
            f"no periodic steady state: largest Floquet multiplier "
            f"{multiplier:.6g} is not below 1"
        )
    y0 = np.linalg.solve(np.eye(n) - phi, b)

    traj = np.empty((steps_per_period + 1, n), dtype=complex)
    _rk4_period(gen0, src[:, None], drive, dt, y0[:, None], traj)
    times = period + np.arange(steps_per_period + 1) * dt
    return MomentSamples(t=times, y=traj, periods_used=2,
                         floquet_multiplier=multiplier)


def cycle_averaged_moments(samples):
    """Trapezoid average of every moment over the stored period."""
    dt = samples.t[1] - samples.t[0]
    span = samples.t[-1] - samples.t[0]
    return np.trapezoid(samples.y, dx=dt, axis=0) / span


def cycle_average_power(samples, net, source):
    """Powers from converged samples: returns (row P_{source->l}, P_em).

    Same prefactors as the Fourier route, with the zeroth coefficient
    replaced by the explicit period average.
    """
    N = net.N
    imap = moment_index_map(N)
    avg = cycle_averaged_moments(samples)
    n_src = occupation(net.T[source], net.omega[source])
    pref = SI.hbar * net.omega[source]
    row = np.zeros(N)
    for l in range(N):
        if l != source:
            row[l] = pref * 2.0 * net.kappa[l] * avg[imap.index(l, l)].real
    p_em = pref * 2.0 * net.kappa[source] * (n_src - avg[imap.index(source, source)].real)
    return row, p_em
