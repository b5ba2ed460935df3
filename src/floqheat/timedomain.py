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
periodic steady state to exist and attract.  One more period, from
sum_k y0_k, is stored as samples.  Exists to catch transcription errors
that a shared matrix assembly would repeat.

Each RK4 step is an affine map y -> P_s y + q_s.  The drive is a first
harmonic in Omega t and a step multiplies the generator at most four
times, so P_s and q_s are trigonometric polynomials of degree at most 4
in the step's start phase.  Their harmonics -4..4 differ by less than 9,
so nine equispaced samples alias none onto another: nine exact stage
evaluations, of the steps starting at the phases 2 pi j / 9, give every
step's map by discrete Fourier interpolation.

A period is cut into chunks of 64 steps that step side by side: round j
forms and applies the j-th step's map of every chunk as one batch.  The
shooting period steps each chunk's own map from I, and the chunk maps
then carry Y from chunk to chunk; the stored period starts every chunk
from the shooting period's state there.

The moment vector y is C_kl = <a_k^+ a_l> raveled row by row, C_kl at
slot k N + l.  For Hermitian g, C stays Hermitian, so in the basis x that
writes each pair y_kl, y_lk, k < l, as Re y_kl, Im y_kl the step maps
and the state are real, and both periods step in float64; results go
back to the moment basis before anything reads them.  Non-Hermitian g
runs the same loop in complex.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .model import (SI, ConvergenceError, PowerMatrix, ValidationError,
                    ensure_valid)

__all__ = [
    "MomentSamples",
    "evolve_to_cycle",
    "cycle_averaged_moments",
    "cycle_average_power",
]


@dataclass(frozen=True)
class MomentSamples:
    """Moment-vector samples over one period, endpoints included, of all
    baths together, and each bath's share of their cycle average.  Every
    moment vector is C_kl = <a_k^+ a_l> raveled row by row: a row of ``y``
    reshaped (N, N) is C, and ``bath_averages`` reshaped (N, N, N) holds
    bath j's share of C_kl at [k, l, j]."""

    t: np.ndarray          # (S + 1,) [s]
    y: np.ndarray          # (S + 1, N^2) complex
    periods_used: int
    floquet_multiplier: float   # largest |eigenvalue| of the monodromy matrix
    bath_averages: np.ndarray   # (N^2, N): column k from bath k, 0 at 0 K


def _static_generator(net):
    """Time-independent part of dy/dt = G(t) y + s, plus the source vector."""
    N = net.N
    slot = np.arange(N * N).reshape(N, N)    # slot[k, l] of C_kl
    g = net.g
    gen = np.zeros((N * N, N * N), dtype=complex)
    src = np.zeros(N * N, dtype=complex)
    nvec = net.occupations()
    for k in range(N):
        row = slot[k, k]
        gen[row, row] = -2.0 * net.kappa[k]
        src[row] = 2.0 * net.kappa[k] * nvec[k]
        for j in range(N):
            if j == k:
                continue
            gen[row, slot[k, j]] += -1j * g[k, j]
            gen[row, slot[j, k]] += 1j * g[j, k]
    for k in range(N):
        for l in range(N):
            if k == l:
                continue
            row = slot[k, l]
            gen[row, row] = 1j * (net.omega[k] - net.omega[l]) - net.kappa[k] - net.kappa[l]
            for j in range(N):
                if j == k or j == l:
                    continue
                gen[row, slot[k, j]] += -1j * g[l, j]
                gen[row, slot[j, l]] += 1j * g[j, k]
            gen[row, slot[k, k]] += -1j * g[l, k]
            gen[row, slot[l, l]] += 1j * g[l, k]
    return gen, src


def _drive_diagonal(mod, t):
    """Time-dependent diagonal of the generator, i beta (c_k - c_l) on
    slot k N + l.

    t may be an array; the result then has one row per time.
    """
    c = mod.mask * np.cos(mod.Omega * np.asarray(t)[..., None] + mod.theta)
    eta = c[..., :, None] - c[..., None, :]
    return 1j * mod.beta * eta.reshape(*c.shape[:-1], -1)


# harmonics of the step maps
_HARMONICS = np.arange(-4, 5)
# steps per chunk: a period of S steps takes _CHUNK batched rounds and
# S / _CHUNK chunk products, which balance near S = 4096
_CHUNK = 64
# imaginary parts of the real-basis coefficients up to this fraction of
# their largest entry are round-off
_PAIRING_TOL = 1e-14


def _hermitian_basis(N, m):
    """(T, T^-1) with y = T x for the N^2 moments and m trailing slots: x
    writes each pair y_kl, y_lk, k < l, as Re y_kl, Im y_kl."""
    k, l = np.triu_indices(N, 1)
    p, q = k * N + l, l * N + k
    t = np.eye(N * N + m, dtype=complex)
    t[q, p] = 1.0
    t[p, q], t[q, q] = 1j, -1j
    # each pair block [[1, i], [1, -i]] has the inverse half its adjoint
    t_inv = t.conj().T
    t_inv[p] *= 0.5
    t_inv[q] *= 0.5
    return t, t_inv


def _angles(a, b, period):
    """2 pi a_r b_c / period for integer vectors a and b; the product is
    reduced modulo ``period`` in integers, so the angle is exact."""
    return 2.0 * np.pi * (np.outer(a, b) % period) / period


def _step_map_coefficients(gen0, src, mod, dt, basis):
    """Fourier coefficients of the RK4 step map in the step's start phase.

    src (n, m) holds one source column per forced trajectory.  A step takes
    the unforced columns Y to P Y and the forced columns y to P y + q, so
    A = [[P, q], [0, I]] acts on [[Y, y], [0, I]].  A - I has degree <= 4
    in the start phase (see the module docstring); its nine harmonics c_j
    come from the steps starting at the phases 2 pi j / 9, which run the
    RK4 stage formulas on [I | 0] with src entering only the last m
    columns.  Returns them in the basis x of ``basis`` as the coefficients
    [c_0, c_j + c_-j, i (c_j - c_-j)] of 1, cos j phi and sin j phi,
    j = 1..4, (9, n + m, n + m): real where c_-j = conj(c_j) to round-off.
    """
    n, m = src.shape
    starts = np.arange(9) * (mod.period / 9.0)
    d0, dh, d1 = (_drive_diagonal(mod, starts + f * dt)[:, :, None]
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
    dft = np.exp(1j * _angles(_HARMONICS, -np.arange(9), 9)) / 9.0
    c = (dft @ increment.reshape(9, -1)).reshape(increment.shape)
    t, t_inv = basis
    c = t_inv @ c @ t
    up, down = c[5:], c[3::-1]
    coef = np.concatenate([c[4:5], up + down, 1j * (up - down)])
    if np.abs(coef.imag).max() <= _PAIRING_TOL * np.abs(coef).max():
        return coef.real
    return coef


def _step_phases(steps):
    """Rows [1, cos j phi_s, sin j phi_s], j = 1..4, phi_s = 2 pi s / steps,
    of the steps s of a period, (steps, 9), shared by both periods."""
    angle = _angles(np.arange(steps), np.arange(1, 5), steps)
    return np.hstack([np.ones((steps, 1)), np.cos(angle), np.sin(angle)])


def _step_maps(coef, phases, out=None):
    """Increments A_s - I, in x, of the steps s whose ``_step_phases`` rows
    are ``phases``, as their product with ``coef``; ``out`` (S, width**2)
    may take them.  Returns (S, width, width)."""
    width = coef.shape[-1]
    return np.matmul(phases, coef.reshape(9, -1), out=out).reshape(-1, width, width)


def _chunk_steps(coef, phases, z):
    """Step all chunks of one RK4 period side by side, in place.

    z (chunks, width, k) holds one state per chunk in x, in the dtype of
    ``coef``.  Round j adds (A_s - I) z for the j-th step s of every chunk,
    from its row of ``phases``, as the RK4 stages add their increment,
    which keeps the rounding of z to one addition per step.  Yields j and
    the chunks that stepped.
    """
    buf = np.empty((len(z), coef[0].size), dtype=coef.dtype)
    for j in range(_CHUNK):
        rows = phases[j::_CHUNK]
        live = z[:len(rows)]
        live += _step_maps(coef, rows, buf[:len(rows)]) @ live
        yield j, live


def _rk4_period(coef, phases, width):
    """Map z = [[Y, y], [0, I]] of one RK4 period from z = I, in x.

    Each chunk steps its own map from I and sums it; the chunk maps and
    sums, combined in order, give z after the period and its trapezoid
    mean.  Returns those and z at every chunk's start (chunks, width,
    width).
    """
    chunks = -(-len(phases) // _CHUNK)
    maps = np.tile(np.eye(width, dtype=coef.dtype), (chunks, 1, 1))
    sums = np.zeros_like(maps)
    for _, live in _chunk_steps(coef, phases, maps):
        sums[:len(live)] += live
    starts = np.empty_like(maps)
    z = np.eye(width, dtype=coef.dtype)
    total = 0.5 * z
    for c in range(chunks):
        starts[c] = z
        total += sums[c] @ z
        z = maps[c] @ z
    return z, (total - 0.5 * z) / len(phases), starts


def _sample_period(coef, phases, x, to_moments, store):
    """store[s] = ``to_moments`` @ x after s steps of one RK4 period.

    x (chunks, width) holds [x; 1, ..., 1] at every chunk's start; under
    the augmented maps ``coef`` all baths drive it together.
    """
    n = len(to_moments)
    store[0] = to_moments @ x[0, :n]
    for j, live in _chunk_steps(coef, phases, x[..., None]):
        np.matmul(live[:, :n, 0], to_moments.T, out=store[j + 1::_CHUNK])


def evolve_to_cycle(net, mod, steps_per_period=4096):
    """Periodic steady state by shooting over one drive period.

    One RK4 period of [Y | y_k for each occupied bath k], with Y(0) = I,
    y_k(0) = 0 and bath k's source entering only y_k, gives the monodromy
    matrix Phi = Y(T), b_k = y_k(T) and the trapezoid means Ybar, ybar_k.
    Bath k's periodic share y0_k = (I - Phi)^-1 b_k has the cycle average
    Ybar y0_k + ybar_k, column k of ``bath_averages``.  A second period
    from sum_k y0_k is stored as the samples (``periods_used`` is 2).  Both
    periods step in the basis x of the module docstring, in float64 for
    Hermitian g.  Raises ValueError unless steps_per_period is an integer
    (numpy integers pass) of at least 2000, and ConvergenceError when the
    step is unstable, when Phi is not finite, or when the largest Floquet
    multiplier max |eig Phi| is not below 1, so that no periodic state
    attracts; the multiplier is reported as ``floquet_multiplier``.
    """
    ensure_valid(net, mod)
    try:
        steps_per_period = operator.index(steps_per_period)
    except TypeError:
        raise ValueError(f"steps_per_period must be an integer, got "
                         f"{steps_per_period!r}") from None
    if steps_per_period < 2000:
        raise ValueError("need at least 2000 steps per period")
    n = net.N * net.N
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

    # bath k feeds only the occupation of resonator k, slot k (N + 1)
    occupied = np.flatnonzero(src)
    hot = occupied // (net.N + 1)
    basis = _hermitian_basis(net.N, len(hot))
    coef = _step_map_coefficients(gen0, np.diag(src)[:, occupied], mod, dt,
                                  basis)
    phases = _step_phases(steps_per_period)
    # the augmented period starts from [[Y, y_k], [0, I]] = I, in x as in y
    z, mean, starts = _rk4_period(coef, phases, n + len(hot))
    if not np.all(np.isfinite(z)):
        raise ConvergenceError("monodromy matrix is not finite after one period")
    # the period's map and its mean, back in the moment basis
    t, t_inv = basis
    z, mean = t @ z @ t_inv, t @ mean @ t_inv
    phi, b = z[:n, :n], z[:n, n:]
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
    x0 = t_inv @ np.append(y0.sum(1), np.ones(len(hot)))
    if not np.iscomplexobj(coef):
        x0 = x0.real    # y0 is Hermitian up to round-off
    traj = np.empty((steps_per_period + 1, n), dtype=complex)
    _sample_period(coef, phases, starts @ x0, t[:n, :n], traj)
    times = period + np.arange(steps_per_period + 1) * dt
    return MomentSamples(t=times, y=traj, periods_used=2,
                         floquet_multiplier=multiplier, bath_averages=shares)


def cycle_averaged_moments(samples):
    """Trapezoid average of every moment over the stored period."""
    # equal steps: the mean needs no dt, which t = T + s dt resolves only
    # to ~1e-13 relative
    return np.trapezoid(samples.y, axis=0) / (len(samples.t) - 1)


def cycle_average_power(samples, net):
    """PowerMatrix of every bath of net from its share of the cycle average.

    Row k reads only bath k's share, column k of ``bath_averages``, so a
    bath at 0 K has a zero row and P_em; P[k, k] = 0.  Same prefactors as
    the Fourier route, with the zeroth coefficient replaced by the
    explicit period average: P[k, l] = hbar omega_k 2 kappa_l
    Re<a_l^+ a_l>, and P_em[k] is the coupling current out of k,
    hbar omega_k Re sum_l i (g_kl C_kl - g_lk C_lk) with C_kl =
    <a_k^+ a_l>.  Raises ValidationError unless the samples hold one share
    per bath of net.
    """
    N = net.N
    if samples.bath_averages.shape != (N * N, N):
        raise ValidationError(
            f"samples hold bath shares of shape {samples.bath_averages.shape}, "
            f"not ({N * N}, {N}) for a network of {N} resonators")
    # share[k, l] and back[k, l] are bath k's shares of <a_k^+ a_l> and
    # <a_l^+ a_k>, occ[k, l] of <a_l^+ a_l>
    avg = samples.bath_averages.reshape(N, N, N)
    bath = np.arange(N)
    share, back = avg[bath, :, bath], avg[:, bath, bath].T
    occ = samples.bath_averages[::N + 1].T.real
    pref = SI.hbar * net.omega
    P = pref[:, None] * 2.0 * net.kappa * occ
    np.fill_diagonal(P, 0.0)
    # the l = k term, g_kk C_kk - g_kk C_kk, is exactly 0
    current = (net.g * share - net.g.T * back).sum(axis=1)
    return PowerMatrix(P=P, P_em=pref * (1j * current).real)
