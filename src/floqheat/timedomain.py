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

Each RK4 step is an affine map y -> P_s y + q_s.  The drive is a first
harmonic in Omega t and a step multiplies the generator at most four
times, so P_s and q_s are trigonometric polynomials of degree at most 4
in the step's start phase.  Their harmonics -4..4 differ by less than 9,
so nine equispaced samples alias none onto another: nine exact stage
evaluations, of the steps starting at the phases 2 pi j / 9, give every
step's map by discrete Fourier interpolation, and a step is then one
matrix product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (SI, ConvergenceError, ValidationError, check_bath_index,
                    ensure_valid, occupation)
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


# harmonics of the step maps
_HARMONICS = np.arange(-4, 5)
# steps per block of step maps; the blocks are formed one product each,
# and larger ones only raise the peak memory
_CHUNK = 64


def _phases(a, b, period):
    """exp(2 pi i a_r b_c / period) for integer vectors a and b; the
    product is reduced modulo ``period`` in integers, so the phase is exact."""
    return np.exp(2j * np.pi * (np.outer(a, b) % period) / period)


def _step_map_coefficients(gen0, src, mod, imap, dt):
    """Fourier coefficients of the RK4 step map in the step's start phase.

    src (n, m) holds one source column per forced trajectory.  A step takes
    the unforced columns Y to P Y and the forced columns y to P y + q, so
    A = [[P, q], [0, I]] acts on [[Y, y], [0, I]].  A - I has degree <= 4
    in the start phase (see the module docstring); its nine harmonics come
    from the steps starting at the phases 2 pi j / 9, which run the RK4
    stage formulas on [I | 0] with src entering only the last m columns.
    Returns the coefficients of A - I, (9, n + m, n + m), of the harmonics
    ``_HARMONICS``.
    """
    n, m = src.shape
    starts = np.arange(9) * (mod.period / 9.0)
    d0, dh, d1 = (_drive_diagonal(mod, imap, starts + f * dt)[:, :, None]
                  for f in (0.0, 0.5, 1.0))
    y = np.eye(n, n + m)
    src = np.hstack([np.zeros((n, n)), src])
    half = 0.5 * dt
    k1 = gen0 @ y + d0 * y + src
    y2 = y + half * k1
    k2 = gen0 @ y2 + dh * y2 + src
    y3 = y + half * k2
    k3 = gen0 @ y3 + dh * y3 + src
    y4 = y + dt * k3
    k4 = gen0 @ y4 + d1 * y4 + src
    increment = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # the rows [0, I] of A do not change
    increment = np.concatenate([increment, np.zeros((9, m, n + m))], 1)
    dft = _phases(_HARMONICS, -np.arange(9), 9) / 9.0
    return (dft @ increment.reshape(9, -1)).reshape(increment.shape)


def _step_maps(coef, steps, s, out=None):
    """Increments A_s - I of the RK4 steps s of a period of ``steps``.

    Step s starts at phase 2 pi s / steps, and one product of the phase
    matrix exp(i m phi_s) with the coefficients ``coef`` forms all of them.
    ``out`` (len(s), width**2) may take them; returns (len(s), width, width).
    """
    width = coef.shape[-1]
    phase = _phases(s, _HARMONICS, steps)
    return np.matmul(phase, coef.reshape(9, -1), out=out).reshape(-1, width, width)


def _rk4_period(coef, steps, z, store=None):
    """Step z = [[Y, y], [0, I]] over one period of RK4 steps, z -> A_s z.

    ``coef`` are the step maps' coefficients (``_step_map_coefficients``).
    The maps are formed ``_CHUNK`` steps at a time, and each step is one
    product.  It adds (A_s - I) z to z, as the RK4 stages add their
    increment, which keeps the rounding of z to one addition per step.
    Returns z after the period and its trapezoid mean.  With ``store``
    given, z is one column [y; 1], store[s] receives y after s steps, and
    no mean is kept (None is returned in its place).
    """
    buf = np.empty((_CHUNK, coef[0].size), dtype=complex)
    if store is None:
        total = 0.5 * z
    else:
        store[0] = z[:-1]
    for start in range(0, steps, _CHUNK):
        s = np.arange(start, min(start + _CHUNK, steps))
        maps = _step_maps(coef, steps, s, buf[:len(s)])
        if store is None:
            for d in maps:
                z = z + d @ z
                total += z
        else:
            for k, d in zip(s + 1, maps):
                z = z + d @ z
                store[k] = z[:-1]
    return z, None if store is not None else (total - 0.5 * z) / steps


def evolve_to_cycle(net, mod, steps_per_period=4096):
    """Periodic steady state by shooting over one drive period.

    One RK4 period of [Y | y_k for each occupied bath k], with Y(0) = I,
    y_k(0) = 0 and bath k's source entering only y_k, gives the monodromy
    matrix Phi = Y(T), b_k = y_k(T) and the trapezoid means Ybar, ybar_k.
    Bath k's periodic share y0_k = (I - Phi)^-1 b_k has the cycle average
    Ybar y0_k + ybar_k, column k of ``bath_averages``.  A second period
    stepped from sum_k y0_k is stored as the samples (``periods_used`` is
    2).  Each period takes its RK4 step maps from nine exact stage
    evaluations (``_step_map_coefficients``), so a step costs one product.
    Raises ConvergenceError when the step is unstable, when Phi is not
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

    # bath k feeds only the occupation of resonator k
    hot = [k for k in range(net.N) if src[imap.index(k, k)] != 0.0]
    coef = _step_map_coefficients(
        gen0, np.diag(src)[:, [imap.index(k, k) for k in hot]], mod, imap, dt)
    # the augmented period starts from [[Y, y_k], [0, I]] = I
    z, mean = _rk4_period(coef, steps_per_period,
                          np.eye(n + len(hot), dtype=complex))
    phi, b = z[:n, :n], z[:n, n:]
    if not np.all(np.isfinite(z)):
        raise ConvergenceError("monodromy matrix is not finite after one period")
    multiplier = float(np.abs(np.linalg.eigvals(phi)).max())
    if not multiplier < 1.0:
        raise ConvergenceError(
            f"no periodic steady state: largest Floquet multiplier "
            f"{multiplier:.6g} is not below 1"
        )
    y0 = np.linalg.solve(np.eye(n) - phi, b)
    shares = np.zeros((n, net.N), dtype=complex)
    shares[:, hot] = mean[:n, :n] @ y0 + mean[:n, n:]

    # all baths together drive the stored period
    traj = np.empty((steps_per_period + 1, n), dtype=complex)
    coef = _step_map_coefficients(gen0, src[:, None], mod, imap, dt)
    _rk4_period(coef, steps_per_period, np.append(y0.sum(1), 1.0), traj)
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
    zeroth coefficient replaced by the explicit period average.  Raises
    ValidationError unless the samples hold one share per bath of net, and
    ValueError unless source is a bath index of net.
    """
    N = net.N
    if samples.bath_averages.shape != (N * N, N):
        raise ValidationError(
            f"samples hold bath shares of shape {samples.bath_averages.shape}, "
            f"not ({N * N}, {N}) for a network of {N} resonators")
    check_bath_index(net, source)
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
