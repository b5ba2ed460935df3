"""Frequency-domain Floquet solver for the driven quantum Langevin equations.

The modulation couples each resonator amplitude a_k(omega) to its sidebands
a_k(omega +- Omega); truncating at |m| <= n_max turns the steady state into
one linear system per frequency, block-tridiagonal over the sidebands.  Its
diagonal blocks A(omega + m Omega) = A(omega) - i m Omega I are shifted from
one drift matrix by ``blocktri``; its stripes are the same at every frequency
and sideband.  Spectra and powers come from rows of the inverse operator.  An
observer row's source sits in sideband 0, so block elimination from both
ends toward that block (``blocktri.solve_thomas``) gives every observer
row of a call for a whole chunk of frequencies at once: on the chain at
n_max = 10 (2-vCPU Xeon VM, one OpenBLAS thread) about 26 us per frequency
for one observer row and 28 us for two, each response weight within 1e-14
of pivoted dense LU relative to itself, down to weights 1e-21 below the
largest.  Powers come from an adaptive Gauss-Kronrod 7/15 rule (``_quad``)
over the whole of ``integration_window``, below omega = 0 too where it
reaches there.  It evaluates all panels of a round in one batch, with an
error estimate from the integrand's known poles (``_gk15``): on the chain
at quad_tol = 1e-6 the first round's peak-aligned panels usually suffice,
270-390 nodes for both directions.  Both directions of the
forward/backward protocol, as (source, observer) pairs, share one
elimination per frequency chunk and, for powers, one panel tree: the
forward and backward spectra equal their one-pair computations to 1e-15
of their maximum, and each power meets quad_tol against its own value.
"""
from __future__ import annotations

import numpy as np

from . import blocktri
from .model import (SI, QuadratureError, check_bath_index, check_n_max,
                    ensure_valid, sideband_order)

__all__ = [
    "assemble_A",
    "drive_order",
    "spectral_correlations",
    "heat_flux_spectrum",
    "integration_window",
    "integrate_power",
    "emitted_power",
]

# frequencies per batched elimination; bounds the memory of its factors
_CHUNK = 128


def assemble_A(net, omega):
    """Drift matrix at observation frequency omega.

    A[k, k] = i(omega_k - omega) + kappa_k and A[k, l] = i g_kl off the
    diagonal; its inverse is the unmodulated network response.  An array of
    frequencies gives the matrices stacked along its axes.
    """
    omega = np.asarray(omega, dtype=float)
    a = np.broadcast_to(1j * net.g, omega.shape + net.g.shape).copy()
    k = np.arange(net.N)
    a[..., k, k] = 1j * (net.omega - omega[..., None]) + net.kappa
    return a


def _check_indices(net, n_max, *baths):
    """Reject a truncation order that is not a nonnegative integer and bath
    indices that are not integers in 0..N-1 (numpy integers pass)."""
    check_n_max(n_max)
    for k in baths:
        check_bath_index(net, k)


def _check_frequencies(omega, ndim):
    """Observation frequencies as a float array of the given rank.

    Non-finite and negative frequencies are rejected; omega = 0 is legal.
    The quadrature of powers does not come through here: its window may
    reach below omega = 0.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != ndim:
        raise ValueError(
            "frequency grid must be one-dimensional" if ndim == 1
            else "observation frequency must be a scalar")
    if not np.all(np.isfinite(omega)) or np.any(omega < 0.0):
        raise ValueError("observation frequencies must be finite and nonnegative")
    return omega


def _sideband_blocks(net, mod, omega, n_max):
    """The sideband operator at the frequencies ``omega`` (F,), as
    ``blocktri`` takes it: (A(omega) (F, N, N), Omega, n_max, upper, lower).
    Sideband m couples to m + 1, one block row up, through the lower stripe
    (i beta / 2) diag(c), and to m - 1 through the upper stripe
    (i beta / 2) diag(c*): each given by its diagonal.
    """
    c = mod.phasor
    return (assemble_A(net, omega), mod.Omega, n_max, 0.5j * mod.beta * c.conj(),
            0.5j * mod.beta * c)


def drive_order(mod):
    """Sideband order of the Langevin equations at this drive: the rule of
    ``model.sideband_order`` at r = beta max|c| / Omega, with c the phasors
    that the stripes of ``_sideband_blocks`` carry."""
    return sideband_order(mod.beta * np.abs(mod.phasor).max() / mod.Omega)


def _response_rows(net, mod, omega, n_max, observers):
    """Selected rows of the inverse sideband operator at the frequencies
    ``omega`` (F,), shaped (F, len(observers), 2 n_max + 1, N): sideband
    block, then resonator.

    Row l of op^-1 solves op^T x = e_l, whose source sits in sideband 0,
    and the stripes are diagonal, so every row at every frequency comes
    from one batched elimination.
    """
    static, Omega, n, upper, lower = _sideband_blocks(net, mod, omega, n_max)
    rhs = np.eye(net.N)[:, observers]
    x = blocktri.solve_thomas(static.swapaxes(-1, -2), Omega, n, lower, upper,
                              rhs)
    return np.moveaxis(x, -1, 1)


def _bath_weights(net, mod, omega, n_max, observers):
    """Response weights at the frequencies ``omega`` (F,), summed over the
    sidebands.

    W[f, i, k] = sum_m |row observers[i] of the inverse operator at
    omega[f], sideband m, resonator k|^2: how strongly bath k's noise
    reaches the observer.  Every spectrum and power is built from this.
    Each elimination takes _CHUNK frequencies; its factors do not depend
    on the number of observers.
    """
    weights = np.empty((omega.size, len(observers), net.N))
    for lo in range(0, omega.size, _CHUNK):
        rows = _response_rows(net, mod, omega[lo:lo + _CHUNK], n_max, observers)
        weights[lo:lo + _CHUNK] = np.einsum("flmk->flk", np.abs(rows) ** 2)
    return weights


def _pairs(net, n_max, source, observer):
    """(sources, observers) as equal-length 1-d index arrays.

    Two indices make one pair, two equal-length sequences one pair per
    position; every index must be a bath of net and differ from its partner.
    """
    sources, observers = np.atleast_1d(source), np.atleast_1d(observer)
    if (np.ndim(source) != np.ndim(observer) or sources.ndim != 1
            or sources.shape != observers.shape):
        raise ValueError(
            "source and observer must be two indices or two equal-length "
            "sequences of indices")
    _check_indices(net, n_max, *sources, *observers)
    if np.any(sources == observers):
        raise ValueError("source and observer must differ")
    return sources, observers


def spectral_correlations(net, mod, omega, n_max):
    """Per-bath spectral occupations at one frequency.

    Returns S[l, k] >= 0, the contribution of bath k to <a_l^+ a_l>_omega,
    scaled by 2 kappa_k n_k; summing over k gives the total spectrum.
    """
    _check_indices(net, n_max)
    ensure_valid(net, mod)
    omega = _check_frequencies(omega, 0)
    noise = 2.0 * net.kappa * net.occupations()
    return _bath_weights(net, mod, omega[None], n_max, range(net.N))[0] * noise


def heat_flux_spectrum(net, mod, source, observer, grid, n_max):
    """Spectral power density P_{source->observer, omega}, in grid order.

    Constant prefactor hbar * omega_source (the hot resonator's unmodulated
    frequency), not hbar * omega under the integral; this is what makes the
    integrated spectrum match the cycle-averaged power balance.  Only the
    observers' response rows are solved for.  Two indices give one spectrum
    (G,); two equal-length sequences give one spectrum per (source,
    observer) pair, (pairs, G), all from one elimination per frequency
    chunk, whose observer rows are solved together.
    """
    sources, observers = _pairs(net, n_max, source, observer)
    ensure_valid(net, mod)
    noise = 2.0 * net.kappa[sources] * net.occupations()[sources]
    pref = SI.hbar * net.omega[sources] * 2.0 * net.kappa[observers]
    weights = _bath_weights(net, mod, _check_frequencies(grid, 1), n_max,
                            observers)
    spectra = (pref * (noise * weights[:, np.arange(sources.size), sources])).T
    return spectra if np.ndim(source) else spectra[0]


def integration_window(net, mod, n_max):
    """Quadrature window and panel boundaries covering every expected peak.

    The window spans all resonances plus (n_max + 1) sidebands plus 30
    linewidths, and reaches below omega = 0 where that margin does: with
    white-noise baths the flux spectrum integrated over the whole line is
    the master-equation power.  Panels split at every omega_k + m Omega,
    |m| <= n_max, all of which lie inside, so no Lorentzian is straddled
    unresolved.
    """
    _check_indices(net, n_max)
    margin = (n_max + 1) * mod.Omega + 30.0 * net.kappa.max()
    points = np.unique(np.concatenate(
        [net.omega + m * mod.Omega for m in range(-n_max, n_max + 1)]
    ))
    return net.omega.min() - margin, net.omega.max() + margin, points


# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15): 15 Kronrod nodes in
# ascending order with their weights, and the 7-point Gauss weights on
# every second of them
_XGK = np.array([0.991455371120812639206854697526329,
                 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926,
                 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013,
                 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970,
                 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518,
                 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550,
                 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649,
                 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082,
                0.279705391489276667901467771423780,
                0.381830050505118944950369775488975,
                0.417959183673469387755102040816327])
_X15 = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_WK15 = np.concatenate((_WGK[:-1], _WGK[::-1]))
_WG15 = np.zeros(15)
_WG15[1::2] = np.concatenate((_WG[:-1], _WG[::-1]))
_EPS = np.finfo(float).eps


def _legendre_rows(degrees):
    """Rows mapping a panel's 15 Kronrod samples to the coefficients of the
    given degrees of their interpolant, in the polynomials orthogonal under
    the K15 weights, each scaled to 1 at x = 1 (Stieltjes recurrence; the
    nodes are symmetric).  Up to degree 11 these are the Legendre
    polynomials; above, they differ only by the rule's own inexactness."""
    rows = []
    prev, cur = np.zeros(15), np.ones(15)
    prev_at1, at1, prev_norm = 0.0, 1.0, 1.0
    for j in range(max(degrees) + 1):
        norm = np.sum(_WK15 * cur * cur)
        if j in degrees:
            rows.append(at1 * _WK15 * cur / norm)
        ratio = norm / prev_norm if j else 0.0
        prev, cur = cur, _X15 * cur - ratio * prev
        prev_at1, at1 = at1, at1 - ratio * prev_at1
        prev_norm = norm
    return np.array(rows)


# coefficients 9, 10, 13 and 14 of a panel's interpolant, whose decay
# confirms its pole rate
_DECAY_ROWS = _legendre_rows((9, 10, 13, 14))


def _pole_rho(net, mod, n_max, a, b):
    """Bernstein-ellipse parameter of each panel [a_i, b_i], mapped to
    [-1, 1], through the integrand's nearest pole among the uncoupled
    resonances omega_k + m Omega + i kappa_k, |m| <= n_max (their mirror
    images below the axis lie on the same ellipses).  A pole whose
    distances to the two ends sum to s (b - a) lies on rho = s + sqrt(s^2 - 1).
    """
    m = np.arange(-n_max, n_max + 1)[:, None]
    poles = (net.omega + m * mod.Omega + 1j * net.kappa).ravel()
    s = (np.abs(poles - a[:, None]) + np.abs(poles - b[:, None])).min(axis=1)
    with np.errstate(divide="ignore"):      # a panel bisected to one float
        s = s / (b - a)
    return s + np.sqrt(s * s - 1.0)


def _gk15(fn, a, b, rho):
    """Integral and error estimate of fn on every panel [a_i, b_i].

    The 15 nodes of all P panels go to fn in one call; fn returns (F,) or,
    for a vector integrand, (F, C), and the results are (P,) or (P, C).
    ``rho`` (P,) is each panel's Bernstein-ellipse parameter through fn's
    nearest pole.  Inside that ellipse G7 converges like rho^-14 and K15
    like rho^-23 (Trefethen, SIAM Rev. 50, 2008), so K15's error is
    estimated, per component, as rho^-9 times G7's.  G7's error is read as
    the larger of |K15 - G7| and (|c13| + |c14|) (b - a) / 2, with c_j the
    Legendre coefficients of the samples' interpolant; the second keeps it
    when the two poles of a conjugate pair cancel in K15 - G7.  The rate
    holds only where G7 is in its asymptotic regime, rho >= 2, and where
    the samples confirm it, ((|c13| + |c14|) / (|c9| + |c10|))^(1/4) <=
    1.5 / rho.  Elsewhere (a wide tail panel, a singularity nearer than
    the network's, an unresolved integrand) G7's error e is scaled as
    QUADPACK's qk15 does, resasc min(1, (200 e / resasc)^1.5) with resasc
    the integral of |f - mean f|.  Neither goes below the round-off floor
    50 eps resabs.
    """
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    f = fn((centre[:, None] + half[:, None] * _X15).ravel())
    f = f.reshape((a.size, 15) + f.shape[1:])
    shape = (1,) * (f.ndim - 2)
    half, rho = half.reshape(half.shape + shape), rho.reshape(rho.shape + shape)

    def rule(values, weights):
        return np.einsum("pn...,n->p...", values, weights)

    kronrod, gauss = rule(f, _WK15), rule(f, _WG15)
    resabs = rule(np.abs(f), _WK15) * half
    resasc = rule(np.abs(f - 0.5 * kronrod[:, None]), _WK15) * half
    c9, c10, c13, c14 = np.abs(np.einsum("pn...,jn->jp...", f, _DECAY_ROWS))
    err = np.maximum(np.abs(kronrod - gauss), c13 + c14) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        decay = ((c13 + c14) / (c9 + c10)) ** 0.25
        quadpack = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    quadpack = np.where((resasc != 0.0) & (err != 0.0), quadpack, err)
    err = np.where((rho >= 2.0) & (decay <= 1.5 / rho), err * rho ** -9.0,
                   quadpack)
    return kronrod * half, np.maximum(50.0 * _EPS * resabs, err)


def _quad(fn, net, mod, n_max, quad_tol):
    """Adaptive G7K15 quadrature of a vectorised integrand over the window.

    fn may be scalar, returning (F,) at F nodes, or vector-valued, returning
    (F, C); the result is a float or (C,).  All components share one panel
    tree (the h-adaptive vector scheme of Genz & Malik 1980), so every
    round costs one call of fn however many components there are.  Starts
    from ``integration_window``'s peak-aligned panels.  Each round ranks
    the panels by their largest error relative to each component's target
    quad_tol |value_c|, bisects as few of the worst as leave every
    component's summed estimate over the rest under half its target, and
    evaluates all their halves in one call of fn.  Each panel's estimate
    comes from ``_gk15`` with the Bernstein ellipse of the nearest
    network pole (``_pole_rho``).  It stops once every component's summed
    estimate is within its target, and raises
    QuadratureError, naming the first component that misses its target
    and carrying that component's estimate and bound, when that needs more
    than max(200, 20 len(points)) panels.  A component that is exactly zero
    on every node integrates to 0.
    """
    lo, hi, points = integration_window(net, mod, n_max)
    limit = max(200, 20 * len(points))
    edges = np.concatenate(([lo], points, [hi]))
    a, b = edges[:-1], edges[1:]

    def panels(a, b):
        return _gk15(fn, a, b, _pole_rho(net, mod, n_max, a, b))

    part, err = panels(a, b)
    while True:
        value, bound = part.sum(axis=0), err.sum(axis=0)
        target = quad_tol * np.abs(value)
        met = np.isfinite(value) & (bound <= target)
        if np.all(met):
            return value
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(err > 0.0, err / target, 0.0)
        order = np.argsort(score.reshape(a.size, -1).max(axis=1))[::-1]
        left = bound - np.cumsum(err[order], axis=0)
        short = (left > 0.5 * target).reshape(a.size, -1).any(axis=1)
        nsplit = min(1 + np.count_nonzero(short), a.size, limit - a.size)
        if not np.all(np.isfinite(value + bound)) or nsplit < 1:
            c = int(np.argmax(np.ravel(~met)))
            estimate, worst = float(np.ravel(value)[c]), float(np.ravel(bound)[c])
            raise QuadratureError(
                f"quadrature stalled on component {c} at estimate "
                f"{estimate:.6e} with bound {worst:.2e}",
                estimate=estimate, bound=worst,
            )
        split, keep = order[:nsplit], order[nsplit:]
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate((a[split], mid))
        new_b = np.concatenate((mid, b[split]))
        new_part, new_err = panels(new_a, new_b)
        a, b = np.concatenate((a[keep], new_a)), np.concatenate((b[keep], new_b))
        part = np.concatenate((part[keep], new_part))
        err = np.concatenate((err[keep], new_err))


def _check_quad_tol(quad_tol):
    if not 0.0 < quad_tol < np.inf:
        raise ValueError("quad_tol must be positive and finite")


def integrate_power(net, mod, source, observer, n_max, quad_tol=1e-6):
    """Cycle-averaged power P_{source->observer} [W] by adaptive quadrature.

    Integrates hbar omega_source 2 kappa_observer <a_obs^+ a_obs>_omega^(bath
    source) / 2 pi over the spectral window to the requested relative
    tolerance by ``_quad``'s adaptive G7K15 rule (an error estimate from
    the network's poles, see ``_gk15``; at most max(200, 20 len(points))
    panels, else QuadratureError).  Two indices give one power; two
    equal-length sequences give one power per (source, observer) pair, as
    an array.  The pairs share one panel tree and one elimination per
    round, which solves every observer's row; each power still meets
    quad_tol against its own value, so the powers of one call and of
    one-pair calls agree within it.
    """
    _check_quad_tol(quad_tol)
    sources, observers = _pairs(net, n_max, source, observer)
    ensure_valid(net, mod)
    pref = (SI.hbar * net.omega[sources] * 2.0 * net.kappa[observers]
            * 2.0 * net.kappa[sources] * net.occupations()[sources]
            / (2.0 * np.pi))
    pairs = np.arange(sources.size)

    def integrand(w):
        return pref * _bath_weights(net, mod, w, n_max, observers)[:, pairs, sources]

    powers = _quad(integrand, net, mod, n_max, quad_tol) if np.any(pref) else pref
    return powers if np.ndim(source) else float(powers[0])


def emitted_power(net, mod, source, n_max, quad_tol=1e-6):
    """Net power [W] emitted by the hot bath ``source``.

    The textbook form hbar omega_k 2 kappa_k (n_k - int <a_k^+ a_k>_omega)
    subtracts two nearly equal numbers (the weak-coupling deficit sits many
    orders below n_k), so it is evaluated through the identity
    A_full + A_full^+ = 2 diag(kappa): the deficit integrand reduces exactly
    to the positive cross-bath form 2 sum_{l != k} kappa_l |A_full^-1|^2 and
    the n_k sum rule integrates to 1 analytically.
    """
    _check_quad_tol(quad_tol)
    _check_indices(net, n_max, source)
    ensure_valid(net, mod)
    n_src = net.occupations()[source]
    if n_src == 0.0:
        return 0.0
    pref = (SI.hbar * net.omega[source] * 2.0 * net.kappa[source]
            * n_src / (2.0 * np.pi))
    others = [l for l in range(net.N) if l != source]
    weights = 2.0 * net.kappa[others]

    def integrand(w):
        reach = _bath_weights(net, mod, w, n_max, [source])[:, 0]
        return pref * (reach[:, others] @ weights)

    return float(_quad(integrand, net, mod, n_max, quad_tol))
