"""Frequency-domain Floquet solver for the driven quantum Langevin equations.

The modulation couples each resonator amplitude a_k(omega) to its sidebands
a_k(omega +- Omega); truncating at |m| <= n_max turns the steady state into
one linear system per frequency, block-tridiagonal over the sidebands.  Its
diagonal blocks A(omega + m Omega) = A(omega) - i m Omega I are shifted from
one drift matrix, and it is solved as a dense matrix by pivoted LU
(``np.linalg.solve``).  With one frequency per quadrature node that is the
faster route: for one response row of the four-resonator chain at n_max = 10
(84 unknowns; 2-vCPU Xeon VM, one OpenBLAS thread) the dense solve took
350-480 us against about 680 us for block elimination
(``blocktri.solve_thomas``), the two agreeing to 1e-15.  Elimination pays
only once frequencies are batched.  Spectra come out per source bath,
powers by adaptive quadrature over the spectral window.
"""
from __future__ import annotations

import csv
import operator
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import blocktri
from .master import shift_Mn
from .model import (SI, QuadratureError, SingularBlockError, check_n_max,
                    ensure_valid, occupation)

__all__ = [
    "FloquetSpectrum",
    "assemble_A",
    "spectral_correlations",
    "occupation_spectrum",
    "heat_flux_spectrum",
    "integration_window",
    "integrate_power",
    "emitted_power",
    "write_spectrum_csv",
]


def assemble_A(net, omega):
    """Drift matrix at observation frequency omega.

    A[k, k] = i(omega_k - omega) + kappa_k and A[k, l] = i g_kl off the
    diagonal; its inverse is the unmodulated network response.
    """
    a = 1j * net.g.copy()
    np.fill_diagonal(a, 1j * (net.omega - omega) + net.kappa)
    return a


def _check_indices(net, n_max, *baths):
    """Reject a truncation order that is not a nonnegative integer and bath
    indices that are not integers in 0..N-1 (numpy integers pass)."""
    check_n_max(n_max)
    for k in baths:
        try:
            operator.index(k)
        except TypeError:
            raise ValueError(f"bath index {k!r} is not an integer") from None
        if not 0 <= k < net.N:
            raise ValueError(f"bath index {k} outside 0..{net.N - 1}")


def _check_frequencies(omega, ndim):
    """Observation frequencies as a float array of the given rank.

    Non-finite and negative frequencies are rejected; omega = 0 stays legal
    because clipped integration windows start there.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != ndim:
        raise ValueError(
            "frequency grid must be one-dimensional" if ndim == 1
            else "observation frequency must be a scalar")
    if not np.all(np.isfinite(omega)) or np.any(omega < 0.0):
        raise ValueError("observation frequencies must be finite and nonnegative")
    return omega


def _modulation_q(mod, sign):
    return np.diag(mod.mask * np.exp(sign * 1j * mod.theta))


def _frequency_operator(net, mod, omega, n_max):
    """Dense sideband operator with blocks A(omega + m Omega) on the diagonal,
    m = n_max (top) down to -n_max, and (i beta / 2) Q_+- on the first
    off-diagonals; its inverse maps stacked noise amplitudes to stacked
    resonator amplitudes.
    """
    # A(omega + m Omega) = A(omega) - i m Omega I: the shift of master's M_n
    diag = shift_Mn(assemble_A(net, omega), np.arange(n_max, -n_max - 1, -1),
                    mod.Omega)
    # a_k picks up e^{+i theta_k} towards the next sideband up; with blocks
    # ordered +n_max first, that coefficient lives on the lower stripe
    coupling_up = 0.5j * mod.beta * _modulation_q(mod, +1)
    coupling_dn = 0.5j * mod.beta * _modulation_q(mod, -1)
    return blocktri.assemble_dense(
        diag, [coupling_dn] * (2 * n_max), [coupling_up] * (2 * n_max)
    )


def _response_rows(net, mod, omega, n_max, observers):
    """Selected rows of the inverse sideband operator at one frequency."""
    op_h = _frequency_operator(net, mod, omega, n_max).conj().T
    N = net.N
    rhs = np.zeros((op_h.shape[0], len(observers)), dtype=complex)
    for c, l in enumerate(observers):
        rhs[n_max * N + l, c] = 1.0
    try:
        cols = np.linalg.solve(op_h, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(f"singular sideband operator: {exc}") from exc
    return cols.conj().T  # row per observer


def _bath_weights(net, mod, omega, n_max, observers):
    """Response weights at one frequency, summed over the sidebands.

    W[i, k] = sum_m |row observers[i] of the inverse operator, sideband m,
    resonator k|^2: how strongly bath k's noise reaches the observer.  Every
    spectrum and power of this module is built from this kernel.
    """
    rows = _response_rows(net, mod, omega, n_max, observers)
    weights = np.abs(rows.reshape(len(observers), 2 * n_max + 1, net.N)) ** 2
    return np.einsum("lmk->lk", weights)


def spectral_correlations(net, mod, omega, n_max, consts=SI):
    """Per-bath spectral occupations at one frequency.

    Returns S[l, k] >= 0, the contribution of bath k to <a_l^+ a_l>_omega,
    scaled by 2 kappa_k n_k; summing over k gives the total spectrum.
    """
    _check_indices(net, n_max)
    ensure_valid(net, mod, consts)
    omega = float(_check_frequencies(omega, 0))
    noise = 2.0 * net.kappa * net.occupations(consts)
    return _bath_weights(net, mod, omega, n_max, range(net.N)) * noise


@dataclass(frozen=True)
class FloquetSpectrum:
    """Spectral occupations on a frequency grid, resolved by source bath.

    S[i, l, k] is the bath-k contribution to <a_l^+ a_l>_omega at grid[i].
    """

    grid: np.ndarray           # (G,) [rad/s]
    S: np.ndarray              # (G, N, N) [s]


def occupation_spectrum(net, mod, grid, n_max, consts=SI):
    """spectral_correlations on a whole grid, returned sorted ascending."""
    _check_indices(net, n_max)
    ensure_valid(net, mod, consts)
    grid = np.sort(_check_frequencies(grid, 1))
    noise = 2.0 * net.kappa * net.occupations(consts)
    s = np.empty((grid.size, net.N, net.N))
    for i, w in enumerate(grid):
        s[i] = _bath_weights(net, mod, w, n_max, range(net.N)) * noise
    return FloquetSpectrum(grid=grid, S=s)


def heat_flux_spectrum(net, mod, source, observer, grid, n_max, consts=SI):
    """Spectral power density P_{source->observer, omega}, in grid order.

    Constant prefactor hbar * omega_source (the hot resonator's unmodulated
    frequency), not hbar * omega under the integral; this is what makes the
    integrated spectrum match the cycle-averaged power balance.  Only the
    observer's response row is solved for at each frequency.
    """
    if source == observer:
        raise ValueError("source and observer must differ")
    _check_indices(net, n_max, source, observer)
    ensure_valid(net, mod, consts)
    noise = 2.0 * net.kappa[source] * occupation(
        net.T[source], net.omega[source], consts)
    pref = consts.hbar * net.omega[source] * 2.0 * net.kappa[observer]
    return pref * np.array(
        [noise * _bath_weights(net, mod, w, n_max, [observer])[0, source]
         for w in _check_frequencies(grid, 1)])


def integration_window(net, mod, n_max):
    """Quadrature window and panel boundaries covering every expected peak.

    The window spans all resonances plus (n_max + 1) sidebands plus 30
    linewidths; panels split at each omega_k + m Omega so no Lorentzian is
    straddled unresolved.  Windows are clipped at omega = 0 with a warning.
    """
    _check_indices(net, n_max)
    margin = (n_max + 1) * mod.Omega + 30.0 * net.kappa.max()
    lo = net.omega.min() - margin
    hi = net.omega.max() + margin
    if lo <= 0.0:
        warnings.warn("integration window clipped at omega = 0", stacklevel=2)
        lo = 0.0
    points = np.unique(np.concatenate(
        [net.omega + m * mod.Omega for m in range(-n_max, n_max + 1)]
    ))
    points = points[(points > lo) & (points < hi)]
    return lo, hi, points


def _quad(fn, net, mod, n_max, quad_tol):
    lo, hi, points = integration_window(net, mod, n_max)
    value, bound = integrate.quad(
        fn, lo, hi, points=points, limit=max(200, 20 * len(points)),
        epsabs=0.0, epsrel=quad_tol, full_output=True,
    )[:2]
    converged = np.isfinite(value) and bound <= quad_tol * abs(value) * 1.001
    if not converged and not (value == 0.0 and bound == 0.0):
        raise QuadratureError(
            f"quadrature stalled at estimate {value:.6e} with bound {bound:.2e}",
            estimate=value, bound=bound,
        )
    return value


def integrate_power(net, mod, source, observer, n_max, quad_tol=1e-6, consts=SI):
    """Cycle-averaged power P_{source->observer} [W] by adaptive quadrature.

    Integrates hbar omega_source 2 kappa_observer <a_obs^+ a_obs>_omega^(bath
    source) / 2 pi over the spectral window to the requested relative
    tolerance.
    """
    if source == observer:
        raise ValueError("source and observer must differ")
    if quad_tol <= 0.0:
        raise ValueError("quad_tol must be positive")
    _check_indices(net, n_max, source, observer)
    ensure_valid(net, mod, consts)
    n_src = occupation(net.T[source], net.omega[source], consts)
    if n_src == 0.0:
        return 0.0
    pref = (consts.hbar * net.omega[source] * 2.0 * net.kappa[observer]
            * 2.0 * net.kappa[source] * n_src / (2.0 * np.pi))

    def integrand(w):
        return pref * float(_bath_weights(net, mod, w, n_max, [observer])[0, source])

    return _quad(integrand, net, mod, n_max, quad_tol)


def emitted_power(net, mod, source, n_max, quad_tol=1e-6, consts=SI):
    """Net power [W] emitted by the hot bath ``source``.

    The textbook form hbar omega_k 2 kappa_k (n_k - int <a_k^+ a_k>_omega)
    subtracts two nearly equal numbers (the weak-coupling deficit sits many
    orders below n_k), so it is evaluated through the identity
    A_full + A_full^+ = 2 diag(kappa): the deficit integrand reduces exactly
    to the positive cross-bath form 2 sum_{l != k} kappa_l |A_full^-1|^2 and
    the n_k sum rule integrates to 1 analytically.
    """
    if quad_tol <= 0.0:
        raise ValueError("quad_tol must be positive")
    _check_indices(net, n_max, source)
    ensure_valid(net, mod, consts)
    n_src = occupation(net.T[source], net.omega[source], consts)
    if n_src == 0.0:
        return 0.0
    pref = (consts.hbar * net.omega[source] * 2.0 * net.kappa[source]
            * n_src / (2.0 * np.pi))
    others = [l for l in range(net.N) if l != source]
    weights = 2.0 * net.kappa[others]

    def integrand(w):
        reach = _bath_weights(net, mod, w, n_max, [source])[0]
        return pref * float(weights @ reach[others])

    return _quad(integrand, net, mod, n_max, quad_tol)


def write_spectrum_csv(path, grid, slices):
    """Spectrum export; ``slices`` maps (source, observer) 0-based pairs to
    per-grid-point spectral power densities.  Labels in the file are 1-based.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["omega_rad_s", "source_bath", "observer",
                    "spectral_power_W_per_rad_s"])
        for (source, observer), values in slices.items():
            for wval, sval in zip(grid, values):
                w.writerow([f"{wval:.10e}", source + 1, observer + 1,
                            f"{sval:.12e}"])
