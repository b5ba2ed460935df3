"""Second-order sideband elimination and weak-coupling closed forms.

Eliminating the n = +-1 Fourier blocks leaves an effective zeroth-sideband
matrix N = M_0 + D (``assemble_Npert``), the Schur complement that
``master.power_matrix`` forms and solves at n_max = 1: the "pert1"
estimate is that call, and ``power_second_order`` keeps the inverse of N
to first order in D ("pert2").  In the weak-coupling
limit the forward/backward flux difference of the symmetric four-chain
collapses to a closed expression proportional to sin(theta).
"""
from __future__ import annotations

import numpy as np

from .blocktri import schur_centre
from .master import (_moment_mirror, _powers_from, _sideband_blocks,
                     assemble_Mn)
from .model import SI, ValidationError, ensure_valid, occupation

__all__ = [
    "assemble_Npert",
    "power_second_order",
    "delta_n14_general",
    "delta_n14_closed_form",
    "delta_power_weak_coupling",
    "closed_form_delta_power",
]


def assemble_Npert(net, mod):
    """Effective zeroth-sideband matrix after eliminating n = +-1.

    N = M_0 + (beta^2/4) (Gt M_+1^-1 Gt* + Gt* M_-1^-1 Gt) with
    Gt = diag(eta) from ``master.contrast_vector``, so that G+ = (i beta/2)
    Gt; blocks with |n| >= 2 are discarded.  That is the Schur complement
    of sideband 0 in the moment system at n_max = 1, the one pert1 solves
    (``blocktri.schur_centre``); for exactly Hermitian g only M_+1 is
    inverted (the mirror of ``master._moment_mirror``).
    """
    ensure_valid(net, mod)
    return schur_centre(*_sideband_blocks(net, mod, 1), _moment_mirror(net))


def power_second_order(net, mod):
    """Neumann-expanded second-order powers, as a PowerMatrix.

    Applies N = M_0 + D from ``assemble_Npert``, inverted to first order
    in D as [1 - M_0^-1 D] M_0^-1, to master's sources of the hot baths:
    cheaper than the full elimination but valid over a smaller modulation
    range.  Same contract and read-out as ``master.power_matrix``: one row
    per hot bath of ``net``, P[k, k] = 0, and the same prefactors.
    """
    npert = assemble_Npert(net, mod)
    m0 = assemble_Mn(net)
    m0_inv = np.linalg.inv(m0)
    ninv = (np.eye(m0.shape[0]) - m0_inv @ (npert - m0)) @ m0_inv
    return _powers_from(net, lambda rhs: ninv @ rhs)


def _an(kappa, Omega, n):
    return 2.0 * kappa - 1j * n * Omega


def delta_n14_general(g, kappa, beta, Omega, eta):
    """Weak-coupling end-to-end asymmetry kernel for an arbitrary phase pattern.

    ``eta`` maps the 1-based pairs (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)
    of a four-resonator chain to the complex drive contrasts eta_kl; only
    patterns with complex products break reciprocity.  Printed term
    structure evaluated as-is.
    """
    e12, e13, e14 = eta[(1, 2)], eta[(1, 3)], eta[(1, 4)]
    e23, e24, e34 = eta[(2, 3)], eta[(2, 4)], eta[(3, 4)]
    a0 = 2.0 * kappa
    a1 = _an(kappa, Omega, 1)
    mag2 = abs(a1) ** 2

    def xim(a, b):
        return (a * np.conj(b)).imag

    term2 = (mag2 * (a1**2).imag / a0**3) * (
        4.0 * (xim(e13, e12) + xim(e34, e24))
        + 3.0 * (xim(e23, e13) + xim(e24, e23))
        + xim(e14, e13) + xim(e24, e14)
    )
    term3 = ((a1**3).imag / a0**2) * (
        xim(e14, e12) + 2.0 * xim(e24, e13) + xim(e34, e14)
        - 3.0 * xim(e12, e23) - 3.0 * xim(e23, e34)
    )
    term4 = (2.0 * (a1**4).imag / (mag2 * a0)) * (xim(e24, e12) + xim(e34, e13))
    term5 = (2.0 * (a1**5).imag / mag2**2) * xim(e12, e34)
    pref = beta**2 * g**2 / (8.0 * mag2**3) * (g / kappa) ** 4
    return float(pref * (term2 + term3 + term4 - term5))


def delta_n14_closed_form(g, kappa, beta, Omega, theta):
    """Chain-specific reduction of the asymmetry kernel, printed form.

    (beta^2 g^6 / 4 kappa^4) sin(theta) [7 Im(A1^2)/(|A1|^4 A0^3)
    + 4 Im(A1^3)/(|A1|^6 A0^2) - Im(A1^5)/|A1|^10], A_n = 2 kappa - i n Omega.
    """
    a0 = _an(kappa, Omega, 0).real
    a1 = _an(kappa, Omega, 1)
    mag = abs(a1)
    bracket = (7.0 * (a1**2).imag / (mag**4 * a0**3)
               + 4.0 * (a1**3).imag / (mag**6 * a0**2)
               - (a1**5).imag / mag**10)
    return float(beta**2 * g**6 / (4.0 * kappa**4) * np.sin(theta) * bracket)


def delta_power_weak_coupling(omega0, n_occ, g, kappa, beta, Omega, theta):
    """Weak-coupling flux-difference closed form [W], printed normalization.

    beta^2 (g^5/kappa^5) [7/8 Im(A^2)/|A|^4 + kappa Im(A^3)/|A|^6
    - kappa^3 Im(A^5)/|A|^10] sin(theta) times hbar omega0 n g, with
    A = 2 kappa - i Omega.  Algebraically identical to
    4 hbar omega0 n kappa^2 times ``delta_n14_closed_form``.
    """
    a = 2.0 * kappa - 1j * Omega
    mag = abs(a)
    bracket = (0.875 * (a**2).imag / mag**4
               + kappa * (a**3).imag / mag**6
               - kappa**3 * (a**5).imag / mag**10)
    return float(SI.hbar * omega0 * n_occ * g
                 * beta**2 * (g / kappa) ** 5 * bracket * np.sin(theta))


# Orientation of the closed forms: evaluated as printed they carry the
# element order of the backward flux, so the forward-minus-backward
# difference is minus the printed value.  Pinned numerically against the
# full solvers and the direct second-order matrix algebra (see
# tests/test_perturbation.py); flipping it is equivalent to swapping which
# end is called "1".
CLOSED_FORM_ORIENTATION = -1.0


def _require_symmetric_chain(net, mod):
    if net.N != 4:
        raise ValidationError("closed forms require the four-resonator chain")
    # np.allclose(x, x[0]) for omega and kappa, one expression for both
    rates = np.stack([net.omega, net.kappa])
    ref = rates[:, :1]
    if not (np.abs(rates - ref) <= 1e-8 + 1e-5 * np.abs(ref)).all():
        raise ValidationError("closed forms require identical resonators")
    if not np.array_equal(mod.mask, [0, 1, 1, 0]):
        raise ValidationError("closed forms require the inner resonators modulated")


def closed_form_delta_power(net, mod, T_hot=300.0):
    """Weak-coupling flux difference P14 - P41 of the symmetric four-chain [W]."""
    _require_symmetric_chain(net, mod)
    ensure_valid(net, mod)
    n_occ = occupation(T_hot, net.omega[0])
    return CLOSED_FORM_ORIENTATION * delta_power_weak_coupling(
        net.omega[0], n_occ, net.g[0, 1].real, net.kappa[0],
        mod.beta, mod.Omega, mod.theta[2] - mod.theta[1],
    )
