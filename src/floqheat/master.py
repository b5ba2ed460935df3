"""Fourier-space solver for the second moments of the driven master equation.

The N^2 moments <a_k^dagger a_l> close under the dynamics; with the Fourier
ansatz <O>(t) = sum_n exp(-i n Omega t) <O>_n the periodic steady state is a
single block-tridiagonal linear solve over sidebands -n_max..n_max and no
frequency integration is needed for cycle-averaged powers.

Every moment vector is the matrix C_kl = <a_k^+ a_l> raveled row by row,
C_kl at slot k N + l.  The static block M_0 is then the Kronecker sum of
the bra and ket drift matrices (``assemble_Mn``), and the sideband
couplings G+- are diagonal in the drive contrasts (``contrast_vector``).
Every solve is one block elimination toward sideband 0 (``blocktri``),
which forms the blocks M_n = M_0 - i n Omega I from M_0, each hot bath one
right-hand-side column laid out by ``_sources`` alone; ``_powers_from``
turns a solve of those sources into the PowerMatrix of qme, pert1 and
pert2 (pert2 passes its Neumann step as the solve).  Powers read the
cycle averages <.>_0 alone, so ``power_matrix`` (and pert1 and
``converged_power_matrix`` through it) stops at the centre solve
(``blocktri.solve_centre``); only the tests' reference
``_solve_fourier_nvec`` solves all 2 n_max + 1 sidebands two-sided and
carries the solve outward (``blocktri.solve_thomas``).

When g is exactly Hermitian (``power_matrix`` and pert2's
``perturbation.assemble_Npert``; the sources are real), the moments form
a Hermitian matrix and <.>_-n = P conj(<.>_n), with P the transpose
(k, l) <-> (l, k) (``_moment_mirror``).  Given P, the kernel
forms and eliminates sidebands +n_max .. 0 alone and gathers the bottom
sweep from the top one; any other g, including one a rounding error off
Hermitian, runs both sweeps.
"""
from __future__ import annotations

import numpy as np

from . import blocktri
from .model import (MAX_SIDEBAND_ORDER, SI, ConvergenceError, PowerMatrix,
                    check_n_max, ensure_valid, sideband_order)

__all__ = [
    "assemble_Mn",
    "contrast_vector",
    "drive_order",
    "power_matrix",
    "converged_power_matrix",
]


def _moment_mirror(net):
    """The transpose permutation k N + l -> l N + k when g is exactly
    Hermitian, else None.

    Then C = <a_k^+ a_l> is a Hermitian matrix at every instant, and with
    P that swap (k, l) <-> (l, k): P conj(M_n) P = M_-n and
    P conj(G+) P = G-, so the moment equations carry the mirror of
    ``blocktri``.  The test is exact equality, not the 1e-15 tolerance of
    the ``hermitian`` flag: a g one ulp off takes the two-sided solve.
    """
    if np.array_equal(net.g, net.g.conj().T):
        N = net.N
        return np.arange(N * N).reshape(N, N).T.ravel()
    return None


def assemble_Mn(net):
    """Static block M_0 of the Fourier-component equations.

    C_kl = <a_k^+ a_l> obeys dC/dt = -(L C + C R^T) + source with
    L = diag(kappa - i omega) - i g^T on the bra index and
    R = diag(kappa + i omega) + i g on the ket index.  On C raveled row by
    row that is the Kronecker sum L (x) I + I (x) R: slot (k, l) couples
    to (a, b) through L[k, a] when l == b and through R[l, b] when
    k == a.  The bra side carries g^T, which is conj(g) only for Hermitian
    g; non-Hermitian g follows the same convention as the time-domain
    generator.  The diagonal of g is ignored; ``blocktri`` shifts M_0 into
    each sideband.
    """
    N = net.N
    left = -1j * net.g.T
    np.fill_diagonal(left, net.kappa - 1j * net.omega)
    right = 1j * net.g
    np.fill_diagonal(right, net.kappa + 1j * net.omega)
    # m[k, l, a, b] is the coefficient of C_ab in row C_kl
    m = np.zeros((N, N, N, N), dtype=complex)
    i = np.arange(N)
    m[:, i, :, i] = left
    m[i, :, i, :] += right
    return m.reshape(N * N, N * N)


def contrast_vector(mod):
    """Drive contrasts eta_kl = c_k - c_l, raveled row by row.

    c_k = m_k exp(i theta_k), so eta vanishes on the N diagonal moments and
    whenever resonators k and l are driven identically; a complex value on
    the (k, l) slot signals a synthetic magnetic field on that link.
    """
    c = mod.phasor
    return (c[:, None] - c).ravel()


def drive_order(mod):
    """Sideband order of the moment equations at this drive: the rule of
    ``model.sideband_order`` at r = beta max|eta| / Omega, with eta the
    contrasts that the stripes G+- carry."""
    return sideband_order(mod.beta * np.abs(contrast_vector(mod)).max() / mod.Omega)


def _sideband_blocks(net, mod, n_max):
    """The sideband system as ``blocktri`` takes it: (M_0, Omega, n_max,
    upper, lower), M_0 the static block of every sideband."""
    # The Fourier recursion couples <.>_n to <.>_{n+1} with -G+ and to
    # <.>_{n-1} with -G-, where G+ = (i beta/2) diag(eta) and
    # G- = (i beta/2) diag(conj(eta)); this sign keeps the reconstructed
    # time series in phase with the time-domain generator, and the opposite
    # one only remaps <.>_n -> (-1)^n <.>_n.  Blocks are stored from +n_max
    # down, so <.>_{n+1} sits one block row up (the "lower" stripe holds
    # its coefficient) and <.>_{n-1} one down.  Both stripes are diagonals,
    # the same in every block row.
    eta = contrast_vector(mod)
    half = 0.5j * mod.beta
    return (assemble_Mn(net), mod.Omega, n_max, -(half * eta.conj()),
            -(half * eta))


def _sources(net, nvecs):
    """Source block (N^2, C) of the bath occupation vectors ``nvecs``
    (C, N), one column each: 2 kappa_k n_k on the diagonal slot
    k N + k of sideband 0, zero elsewhere."""
    rhs = np.zeros((net.N ** 2, len(nvecs)), dtype=complex)
    rhs[::net.N + 1] = (2.0 * net.kappa[:, None]) * nvecs.T
    return rhs


def _solve_fourier_nvec(net, mod, n_max, nvecs):
    """Solve the sideband system for explicit bath-occupation vectors.

    ``nvecs`` is one occupation vector (N,) or C of them as rows (C, N);
    all C of them share one two-sided elimination over all 2 n_max + 1
    sidebands, carried out to every one.  Returns the coefficients shaped
    (2 n_max + 1, N^2), or (C, 2 n_max + 1, N^2), row n_max - n holding
    sideband n as C raveled row by row: ``reshape(N, N)`` gives C_kl.  No production path
    calls it: it is the tests' reference for the Fourier coefficients.
    """
    nvecs = np.asarray(nvecs, dtype=float)
    coeffs = blocktri.solve_thomas(
        *_sideband_blocks(net, mod, n_max),
        _sources(net, nvecs.reshape(-1, net.N))).transpose(2, 0, 1)
    return coeffs if nvecs.ndim == 2 else coeffs[0]


def power_matrix(net, mod, n_max):
    """Cycle-averaged pairwise and emitted powers, one elimination in all.

    P[k, l] = hbar omega_k 2 kappa_l Re<a_l^+ a_l>_0 with bath k alone hot;
    every hot bath is one right-hand-side column of the same block
    elimination, which stops at the centre solve: only sideband 0 is read.
    """
    ensure_valid(net, mod)
    check_n_max(n_max)
    return _powers_from(net, lambda rhs: blocktri.solve_centre(
        *_sideband_blocks(net, mod, n_max), rhs, _moment_mirror(net)))


def _powers_from(net, solve):
    """PowerMatrix of the hot baths of ``net``: ``solve`` maps their
    sources (``_sources``, one column each) to the moments <.>_0 (N^2,
    columns), C raveled row by row.  Baths at 0 K have zero rows by
    linearity and no column; with none hot, ``solve`` is not called.

    P[k, l] reads the occupation of l with bath k alone hot; P[k, k] = 0.
    P_em[k] is the coupling current out of k, hbar omega_k Re sum_j
    i (g_kj C_kj - g_jk C_jk) with C_kj = <a_k^+ a_j>_0.  The k-th
    diagonal moment equation, which no drive stripe reaches, equates it to
    2 kappa_k (n_k - <a_k^+ a_k>_0) but without that difference's
    cancellation, and it reads coherences, so that the balance against
    sum_l P[k, l] compares distinct moments.
    """
    N = net.N
    n_occ = net.occupations()
    hot = np.flatnonzero(n_occ)
    zeroth = (solve(_sources(net, np.diag(n_occ)[hot])) if hot.size
              else np.zeros((N * N, 0)))
    P = np.zeros((N, N))
    P_em = np.zeros(N)
    # sum_j (g_kj C_kj - g_jk C_jk) for every k and column, from
    # g_ab C_ab on every slot (a, b); Re i z = -Im z
    flow = (net.g.ravel()[:, None] * zeroth).reshape(N, N, -1)
    current = (flow.sum(axis=1) - flow.sum(axis=0)).imag
    # diagonal moments <a_l^+ a_l>_0 sit at stride N + 1
    for i, (k, occ) in enumerate(zip(hot, zeroth[::N + 1].real.T)):
        pref = SI.hbar * net.omega[k]
        P[k] = pref * 2.0 * net.kappa * occ
        P[k, k] = 0.0
        P_em[k] = -pref * current[k, i]
    return PowerMatrix(P=P, P_em=P_em)


def converged_power_matrix(net, mod, rtol=1e-4, n_max_start=4,
                           n_max_limit=MAX_SIDEBAND_ORDER):
    """Double the truncation order until the power matrix stops moving.

    Returns (PowerMatrix, n_max_used); successive orders must agree to rtol
    of the largest power before the result is accepted.  Raises
    SingularBlockError/ConvergenceError pathologies upward; a hit on
    n_max_limit means the drive needs more sidebands than allowed.
    """
    if rtol <= 0.0:
        raise ValueError("rtol must be positive")
    n = max(1, n_max_start)
    prev = power_matrix(net, mod, n)
    while 2 * n <= n_max_limit:
        n *= 2
        cur = power_matrix(net, mod, n)
        scale = max(np.abs(prev.P).max(), np.abs(prev.P_em).max(), 1e-300)
        drift = max(np.abs(cur.P - prev.P).max(),
                    np.abs(cur.P_em - prev.P_em).max())
        if drift <= rtol * scale:
            return cur, n
        prev = cur
    raise ConvergenceError(
        f"powers still moving at n_max = {n} (limit {n_max_limit})"
    )

