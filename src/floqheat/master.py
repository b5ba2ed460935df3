"""Fourier-space solver for the second moments of the driven master equation.

The N^2 moments <a_k^dagger a_l> close under the dynamics; with the Fourier
ansatz <O>(t) = sum_n exp(-i n Omega t) <O>_n the periodic steady state is a
single block-tridiagonal linear solve over sidebands -n_max..n_max and no
frequency integration is needed for cycle-averaged powers.

The static block M_0 is a Kronecker sum of the bra and ket drift matrices
permuted into MomentIndexMap order (``assemble_Mn``), and the sideband
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
a Hermitian matrix and <.>_-n = P conj(<.>_n), with P the swap (k, l)
<-> (l, k) of MomentIndexMap (``_moment_mirror``).  Given P, the kernel
forms and eliminates sidebands +n_max .. 0 alone and gathers the bottom
sweep from the top one; any other g, including one a rounding error off
Hermitian, runs both sweeps.
"""
from __future__ import annotations

import functools

import numpy as np

from . import blocktri
from .model import (MAX_SIDEBAND_ORDER, SI, ConvergenceError, PowerMatrix,
                    check_n_max, ensure_valid, sideband_order)

__all__ = [
    "MomentIndexMap",
    "moment_index_map",
    "assemble_Mn",
    "contrast_vector",
    "drive_order",
    "power_matrix",
    "converged_power_matrix",
]


class MomentIndexMap:
    """Flat ordering of the N^2 second moments.

    Diagonals <a_1^+ a_1> ... <a_N^+ a_N> come first, then the ordered pairs
    (k, l), k < l, each contributing the adjacent slots <a_k^+ a_l>,
    <a_l^+ a_k>.  Indices are 0-based.
    """

    def __init__(self, N):
        self.N = N
        self.size = N * N
        # (bra, ket) of every flat position as parallel arrays
        k, l = np.triu_indices(N, 1)
        self.bra = np.concatenate([np.arange(N), np.column_stack([k, l]).ravel()])
        self.ket = np.concatenate([np.arange(N), np.column_stack([l, k]).ravel()])
        self._index = {(int(a), int(b)): i
                       for i, (a, b) in enumerate(zip(self.bra, self.ket))}
        # coupling currents (_powers_from): each slot's (bra, ket) in a
        # raveled N x N matrix, and the signs [bra == k] - [ket == k] of its
        # term in the current out of k; complex, so that the product runs
        # on the complex BLAS kernel the solves page in, not a real one too
        self.pair = self.bra * N + self.ket
        k_col = np.arange(N)[:, None]
        self.outflow = (self.bra == k_col).astype(complex) - (self.ket == k_col)
        # Kronecker-sum gathers of assemble_Mn from the flat buffer
        # [L.ravel(), R.ravel(), 0]: slot (a, b) reads L[a, c] where its ket
        # matches that of (c, d), R[b, d] where the bras match, else the 0
        zero = 2 * self.size
        self.left_gather = np.where(self.ket[:, None] == self.ket,
                                    self.bra[:, None] * N + self.bra, zero)
        self.right_gather = np.where(self.bra[:, None] == self.bra,
                                     self.size + self.ket[:, None] * N
                                     + self.ket, zero)
        # slot of <a_l^+ a_k> for each <a_k^+ a_l>: the pair slots swap
        # in twos, the diagonal moments stay put
        self.swap = np.arange(self.size)
        self.swap[N::2] += 1
        self.swap[N + 1::2] -= 1

    def index(self, k, l):
        """Flat position of <a_k^dagger a_l>."""
        return self._index[(k, l)]


@functools.lru_cache(maxsize=None)
def moment_index_map(N):
    return MomentIndexMap(N)


def _moment_mirror(net):
    """The swap of MomentIndexMap when g is exactly Hermitian, else None.

    Then C = <a_k^+ a_l> is a Hermitian matrix at every instant, and with
    P the swap (k, l) <-> (l, k): P conj(M_n) P = M_-n and
    P conj(G+) P = G-, so the moment equations carry the mirror of
    ``blocktri``.  The test is exact equality, not the 1e-15 tolerance of
    the ``hermitian`` flag: a g one ulp off takes the two-sided solve.
    """
    if np.array_equal(net.g, net.g.conj().T):
        return moment_index_map(net.N).swap
    return None


def assemble_Mn(net):
    """Static block M_0 of the Fourier-component equations.

    C_kl = <a_k^+ a_l> obeys dC/dt = -(L C + C R^T) + source with
    L = diag(kappa - i omega) - i g^T on the bra index and
    R = diag(kappa + i omega) + i g on the ket index.  On vec(C) that is
    the Kronecker sum L (x) I + I (x) R, gathered straight into
    MomentIndexMap order: slot (a, b) couples to (c, d) through L[a, c]
    when b == d and through R[b, d] when a == c.  The gather indices
    depend only on N and live in the cached MomentIndexMap.  The bra side
    carries g^T, which is conj(g) only for Hermitian g; non-Hermitian g
    follows the same convention as the time-domain generator.  The
    diagonal of g is ignored; ``blocktri`` shifts M_0 into each sideband.
    """
    N = net.N
    imap = moment_index_map(N)
    buf = np.zeros(2 * N * N + 1, dtype=complex)
    left, right = buf[:-1].reshape(2, N, N)
    np.multiply(-1j, net.g.T, out=left)
    np.fill_diagonal(left, net.kappa - 1j * net.omega)
    np.multiply(1j, net.g, out=right)
    np.fill_diagonal(right, net.kappa + 1j * net.omega)
    return buf[imap.left_gather] + buf[imap.right_gather]


def contrast_vector(mod):
    """Drive contrasts eta = c_bra - c_ket in MomentIndexMap order.

    c_k = m_k exp(i theta_k), so eta vanishes on the N diagonal moments and
    whenever resonators k and l are driven identically; a complex value on
    the (k, l) slot signals a synthetic magnetic field on that link.
    """
    c = mod.phasor
    imap = moment_index_map(len(c))
    return c[imap.bra] - c[imap.ket]


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
    (C, N), one column each: 2 kappa_k n_k on the diagonal slot k of
    sideband 0, zero elsewhere."""
    rhs = np.zeros((net.N ** 2, len(nvecs)), dtype=complex)
    rhs[:net.N] = (2.0 * net.kappa[:, None]) * nvecs.T
    return rhs


def _solve_fourier_nvec(net, mod, n_max, nvecs):
    """Solve the sideband system for explicit bath-occupation vectors.

    ``nvecs`` is one occupation vector (N,) or C of them as rows (C, N);
    all C of them share one two-sided elimination over all 2 n_max + 1
    sidebands, carried out to every one.  Returns the coefficients shaped
    (2 n_max + 1, N^2), or (C, 2 n_max + 1, N^2).  No production path
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
    columns) in MomentIndexMap order.  Baths at 0 K have zero rows by
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
    imap = moment_index_map(N)
    current = (imap.outflow @ (net.g.take(imap.pair)[:, None] * zeroth)).imag
    # diagonal moments <a_l^+ a_l>_0 occupy the first N flat slots
    for i, (k, occ) in enumerate(zip(hot, zeroth[:N].real.T)):
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

