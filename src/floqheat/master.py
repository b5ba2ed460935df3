"""Fourier-space solver for the second moments of the driven master equation.

The N^2 moments <a_k^dagger a_l> close under the dynamics; with the Fourier
ansatz <O>(t) = sum_n exp(-i n Omega t) <O>_n the periodic steady state is a
single block-tridiagonal linear solve over sidebands -n_max..n_max and no
frequency integration is needed for cycle-averaged powers.

The solve is block elimination (``blocktri.solve_thomas``) and nothing
else: the static block M_0 is assembled once per operating point, the
sideband blocks M_n = M_0 - i n Omega I are shifted from it, and every hot
bath is one right-hand-side column of the same elimination.
"""
from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from . import blocktri
from .model import SI, ConvergenceError, PowerMatrix, ensure_valid, occupation

__all__ = [
    "MomentIndexMap",
    "moment_index_map",
    "FourierSolution",
    "assemble_Mn",
    "assemble_Gpm",
    "shift_Mn",
    "solve_fourier",
    "power_matrix",
    "converged_power_matrix",
    "periodic_expectations",
    "write_power_csv",
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
        self._pairs = [(k, l) for k in range(N) for l in range(k + 1, N)]
        self._index = {}
        for k in range(N):
            self._index[(k, k)] = k
        for p, (k, l) in enumerate(self._pairs):
            self._index[(k, l)] = N + 2 * p
            self._index[(l, k)] = N + 2 * p + 1
        # inverse map as parallel (k, l) arrays, handy for vectorized code
        inv = sorted(self._index, key=self._index.get)
        self.bra = np.array([k for k, _ in inv])
        self.ket = np.array([l for _, l in inv])

    def index(self, k, l):
        """Flat position of <a_k^dagger a_l>."""
        return self._index[(k, l)]

    def pair(self, idx):
        """(k, l) of flat position idx."""
        return int(self.bra[idx]), int(self.ket[idx])


@functools.lru_cache(maxsize=None)
def moment_index_map(N):
    return MomentIndexMap(N)


def assemble_Mn(net, n=0, Omega=0.0):
    """Static sideband block M_n of the Fourier-component equations.

    Encodes -i n Omega + 2 kappa_k on diagonal-moment rows,
    -i n Omega - Omega_kl with Omega_kl = i(omega_k - omega_l) - kappa_k -
    kappa_l on off-diagonal-moment rows, and every static coupling term,
    with <a_k a_j^+> = <a_j^+ a_k> for j != k.
    """
    N = net.N
    imap = moment_index_map(N)
    m = np.zeros((imap.size, imap.size), dtype=complex)
    shift = -1j * n * Omega
    g = net.g
    for k in range(N):
        row = imap.index(k, k)
        m[row, row] = shift + 2.0 * net.kappa[k]
        for j in range(N):
            if j == k:
                continue
            m[row, imap.index(k, j)] += 1j * g[k, j]
            m[row, imap.index(j, k)] += -1j * g[j, k]
    for k in range(N):
        for l in range(N):
            if k == l:
                continue
            row = imap.index(k, l)
            omega_kl = 1j * (net.omega[k] - net.omega[l]) - net.kappa[k] - net.kappa[l]
            m[row, row] = shift - omega_kl
            for j in range(N):
                if j == k or j == l:
                    continue
                m[row, imap.index(k, j)] += 1j * g[l, j]
                m[row, imap.index(j, l)] += -1j * g[j, k]
            m[row, imap.index(k, k)] += 1j * g[l, k]
            m[row, imap.index(l, l)] += -1j * g[l, k]
    return m


def modulation_contrast(mod, k, l):
    """eta_kl = m_k exp(i theta_k) - m_l exp(i theta_l).

    Zero whenever resonators k and l are driven identically; a complex value
    signals a synthetic magnetic field on the (k, l) link.
    """
    return (mod.mask[k] * np.exp(1j * mod.theta[k])
            - mod.mask[l] * np.exp(1j * mod.theta[l]))


def assemble_Gpm(mod):
    """Diagonal sideband-coupling matrices (G+, G-).

    G+ carries (i beta / 2) eta_kl on the slot of <a_k^+ a_l> (so -eta_kl on
    the swapped slot) and zeros on the N diagonal-moment slots; G- carries
    the complex conjugate of eta_kl in the same pattern.
    """
    N = len(mod.theta)
    imap = moment_index_map(N)
    dp = np.zeros(imap.size, dtype=complex)
    for k in range(N):
        for l in range(N):
            if k != l:
                dp[imap.index(k, l)] = 0.5j * mod.beta * modulation_contrast(mod, k, l)
    dm = np.zeros(imap.size, dtype=complex)
    for k in range(N):
        for l in range(N):
            if k != l:
                dm[imap.index(k, l)] = 0.5j * mod.beta * np.conj(modulation_contrast(mod, k, l))
    return np.diag(dp), np.diag(dm)


@dataclass(frozen=True)
class FourierSolution:
    """Fourier coefficients of all second moments.

    coeffs[r] holds sideband n = n_max - r (row 0 is +n_max, the last row is
    -n_max), each a flat complex vector in MomentIndexMap order.
    """

    n_max: int
    Omega: float
    coeffs: np.ndarray  # (2 n_max + 1, N^2)

    def coefficient(self, n):
        """Flat moment vector <.>_n."""
        if abs(n) > self.n_max:
            raise IndexError(f"sideband {n} outside truncation +-{self.n_max}")
        return self.coeffs[self.n_max - n]


def shift_Mn(m0, n, Omega):
    """Sideband blocks M_n = M_0 - i n Omega I from the static block M_0.

    ``n`` may be one sideband index or an array of them; an array gives the
    blocks stacked along a leading axis.  Equal to ``assemble_Mn(net, n,
    Omega)`` without rerunning the assembly loops.
    """
    n = np.asarray(n)
    return m0 - 1j * Omega * n[..., None, None] * np.eye(m0.shape[0])


def _sideband_blocks(net, mod, n_max):
    diag = shift_Mn(assemble_Mn(net, 0, mod.Omega),
                    np.arange(n_max, -n_max - 1, -1), mod.Omega)
    gp, gm = assemble_Gpm(mod)
    # The Fourier recursion couples <.>_n to <.>_{n+1} with -G+ and to
    # <.>_{n-1} with -G-; this sign keeps the reconstructed time series in
    # phase with the generator of the time-domain equations.  The opposite
    # global sign only remaps <.>_n -> (-1)^n <.>_n and leaves every
    # cycle-averaged quantity unchanged.  Blocks are stored from +n_max down
    # to -n_max, so <.>_{n+1} sits one block row up (the "lower" stripe
    # holds its coefficient) and <.>_{n-1} one down.
    upper = [-gm] * (2 * n_max)
    lower = [-gp] * (2 * n_max)
    return diag, upper, lower


def _solve_fourier_nvec(net, mod, n_max, nvecs):
    """Solve the sideband system for explicit bath-occupation vectors.

    ``nvecs`` is one occupation vector (N,) or C of them as rows (C, N);
    all C right-hand sides share one block elimination.  Returns the
    coefficients shaped (2 n_max + 1, N^2), or (C, 2 n_max + 1, N^2).
    """
    N = net.N
    imap = moment_index_map(N)
    nblocks = 2 * n_max + 1
    nvecs = np.asarray(nvecs, dtype=float)
    cols = nvecs.reshape(-1, N)
    rhs = np.zeros((nblocks, imap.size, cols.shape[0]), dtype=complex)
    rhs[n_max, :N] = (2.0 * net.kappa[:, None]) * cols.T

    diag, upper, lower = _sideband_blocks(net, mod, n_max)
    sol = blocktri.solve_thomas(diag, upper, lower,
                                rhs.reshape(nblocks * imap.size, -1))
    coeffs = np.moveaxis(sol.reshape(nblocks, imap.size, -1), -1, 0)
    return coeffs if nvecs.ndim == 2 else coeffs[0]


def solve_fourier(net, mod, n_max, source, consts=SI):
    """Periodic steady state with only bath ``source`` thermally occupied."""
    ensure_valid(net, mod, consts)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    nvec = np.zeros(net.N)
    nvec[source] = occupation(net.T[source], net.omega[source], consts)
    coeffs = _solve_fourier_nvec(net, mod, n_max, nvec)
    return FourierSolution(n_max=n_max, Omega=mod.Omega, coeffs=coeffs)


def power_matrix(net, mod, n_max, consts=SI):
    """Cycle-averaged pairwise and emitted powers, one elimination in all.

    P[k, l] = hbar omega_k 2 kappa_l Re<a_l^+ a_l>_0 with bath k alone hot;
    every hot bath is one right-hand-side column of the same block
    elimination.  Baths at 0 K contribute zero rows by linearity and are
    skipped.
    """
    ensure_valid(net, mod, consts)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    N = net.N
    P = np.zeros((N, N))
    P_em = np.zeros(N)
    n_occ = net.occupations(consts)
    hot = np.flatnonzero(n_occ)
    if hot.size == 0:
        return PowerMatrix(P=P, P_em=P_em)
    # diagonal moments <a_l^+ a_l>_0 occupy the first N flat slots
    zeroth = _solve_fourier_nvec(net, mod, n_max,
                                 np.diag(n_occ)[hot])[:, n_max, :N].real
    for k, occ in zip(hot, zeroth):
        pref = consts.hbar * net.omega[k]
        P[k] = pref * 2.0 * net.kappa * occ
        P[k, k] = 0.0
        P_em[k] = pref * 2.0 * net.kappa[k] * (n_occ[k] - occ[k])
    return PowerMatrix(P=P, P_em=P_em)


def converged_power_matrix(net, mod, rtol=1e-4, n_max_start=4, n_max_limit=256,
                           consts=SI):
    """Double the truncation order until the power matrix stops moving.

    Returns (PowerMatrix, n_max_used); successive orders must agree to rtol
    of the largest power before the result is accepted.  Raises
    SingularBlockError/ConvergenceError pathologies upward; a hit on
    n_max_limit means the drive needs more sidebands than allowed.
    """
    if rtol <= 0.0:
        raise ValueError("rtol must be positive")
    n = max(1, n_max_start)
    prev = power_matrix(net, mod, n, consts)
    while 2 * n <= n_max_limit:
        n *= 2
        cur = power_matrix(net, mod, n, consts)
        scale = max(np.abs(prev.P).max(), np.abs(prev.P_em).max(), 1e-300)
        drift = max(np.abs(cur.P - prev.P).max(),
                    np.abs(cur.P_em - prev.P_em).max())
        if drift <= rtol * scale:
            return cur, n
        prev = cur
    raise ConvergenceError(
        f"powers still moving at n_max = {n} (limit {n_max_limit})"
    )


def periodic_expectations(sol, t):
    """Reconstruct the moment vector at time t from the Fourier coefficients.

    Off-diagonal moments are genuinely complex; diagonal entries come out
    real to solver precision.
    """
    n = np.arange(sol.n_max, -sol.n_max - 1, -1)
    phases = np.exp(-1j * n * sol.Omega * t)
    return phases @ sol.coeffs


def write_power_csv(path, net, mod, pm, n_max):
    """Long-format power table; resonator labels are 1-based."""
    theta_txt = ";".join(f"{t:.17g}" for t in mod.theta)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["source", "observer", "P_watt", "P_em_watt",
                    "n_max", "beta", "Omega", "theta"])
        for k in range(net.N):
            for l in range(net.N):
                if k == l:
                    continue
                w.writerow([k + 1, l + 1, f"{pm.P[k, l]:.12e}",
                            f"{pm.P_em[k]:.12e}", n_max,
                            f"{mod.beta:.17g}", f"{mod.Omega:.17g}", theta_txt])
