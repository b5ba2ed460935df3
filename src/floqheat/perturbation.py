"""Second-order sideband elimination and weak-coupling closed forms.

Eliminating the n = +-1 Fourier blocks gives an effective zeroth-sideband
matrix whose inverse already captures the leading nonreciprocity; in the
weak-coupling limit the forward/backward flux difference of the symmetric
four-chain collapses to a closed expression proportional to sin(theta).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .master import assemble_Mn, contrast_vector, moment_index_map, shift_Mn
from .model import (SI, SingularBlockError, ValidationError, ensure_valid,
                    occupation)

__all__ = [
    "PerturbationResult",
    "assemble_Npert",
    "second_order_inverse",
    "power_second_order",
    "delta_n14_general",
    "delta_n14_closed_form",
    "delta_power_weak_coupling",
    "closed_form_delta_power",
    "perturbation_result",
    "write_perturbation_csv",
]


def _eliminate_first_sidebands(m0, mod):
    """``assemble_Npert`` for a given static block M_0; M_+-1 are shifted
    from it."""
    if mod.beta == 0.0:
        return m0
    eta = contrast_vector(mod)
    gt, gts = np.diag(eta), np.diag(eta.conj())
    try:
        inv_p = np.linalg.inv(shift_Mn(m0, +1, mod.Omega))
        inv_m = np.linalg.inv(shift_Mn(m0, -1, mod.Omega))
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(f"singular first-sideband block: {exc}") from exc
    return m0 + 0.25 * mod.beta**2 * (gt @ inv_p @ gts + gts @ inv_m @ gt)


def assemble_Npert(net, mod):
    """Effective zeroth-sideband matrix after eliminating n = +-1.

    N = M_0 + (beta^2/4) (Gt M_+1^-1 Gt* + Gt* M_-1^-1 Gt) with
    Gt = diag(eta) from ``master.contrast_vector``, so that G+ = (i beta/2)
    Gt; blocks with |n| >= 2 are discarded.
    """
    ensure_valid(net, mod)
    return _eliminate_first_sidebands(assemble_Mn(net), mod)


def second_order_inverse(net, mod, variant="matrix_inverse"):
    """Inverse of the effective matrix, exact or Neumann-expanded.

    "matrix_inverse" inverts the eliminated system directly;
    "neumann" keeps only the first-order correction
    [1 - (beta^2/4) M_0^-1 (...)] M_0^-1, cheaper but valid over a smaller
    modulation range.
    """
    if variant == "matrix_inverse":
        return np.linalg.inv(assemble_Npert(net, mod))
    ensure_valid(net, mod)
    if variant == "neumann":
        m0 = assemble_Mn(net)
        m0_inv = np.linalg.inv(m0)
        correction = m0_inv @ (_eliminate_first_sidebands(m0, mod) - m0)
        return (np.eye(m0.shape[0]) - correction) @ m0_inv
    raise ValueError(f"unknown variant {variant!r}")


def power_second_order(net, mod, variant="matrix_inverse", T_hot=300.0, consts=SI):
    """Second-order forward/backward powers between the chain ends.

    Returns (P_fwd, P_bwd): end resonator 1 hot at T_hot for the forward
    run, end resonator N hot for the backward run, all other baths at 0 K.
    """
    ninv = second_order_inverse(net, mod, variant)
    imap = moment_index_map(net.N)
    first, last = 0, net.N - 1

    def transfer(source, observer):
        n_src = occupation(T_hot, net.omega[source], consts)
        occ = (ninv[imap.index(observer, observer), imap.index(source, source)]
               * 2.0 * net.kappa[source] * n_src)
        return consts.hbar * net.omega[source] * 2.0 * net.kappa[observer] * occ.real

    return transfer(first, last), transfer(last, first)


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


def delta_power_weak_coupling(omega0, n_occ, g, kappa, beta, Omega, theta,
                              consts=SI):
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
    return float(consts.hbar * omega0 * n_occ * g
                 * beta**2 * (g / kappa) ** 5 * bracket * np.sin(theta))


# Orientation of the closed forms: evaluated as printed they carry the
# element order of the backward flux, so the forward-minus-backward
# difference is minus the printed value.  Pinned numerically against the
# full solvers and the direct second-order matrix algebra (see
# tests/test_perturbation.py); flipping it is equivalent to swapping which
# end is called "1".
CLOSED_FORM_ORIENTATION = -1.0


def chain_contrasts(mod):
    """Drive contrasts eta_kl of a four-resonator protocol, 1-based pairs."""
    phase = mod.phasor
    return {(k + 1, l + 1): complex(phase[k] - phase[l])
            for k in range(4) for l in range(k + 1, 4)}


@dataclass(frozen=True)
class PerturbationResult:
    """Forward/backward powers and three flux-difference estimates [W]."""

    P14: float
    P41: float
    deltaP_matrixform: float   # full inverse of the eliminated system
    deltaP_expansion: float    # Neumann-expanded inverse
    deltaP_closedform: float   # weak-coupling closed form, oriented forward-backward


def _require_symmetric_chain(net, mod):
    if net.N != 4:
        raise ValidationError("closed forms require the four-resonator chain")
    if not (np.allclose(net.omega, net.omega[0]) and np.allclose(net.kappa, net.kappa[0])):
        raise ValidationError("closed forms require identical resonators")
    if not np.array_equal(mod.mask, [0, 1, 1, 0]):
        raise ValidationError("closed forms require the inner resonators modulated")


def closed_form_delta_power(net, mod, T_hot=300.0, consts=SI):
    """Weak-coupling flux difference P14 - P41 of the symmetric four-chain [W]."""
    _require_symmetric_chain(net, mod)
    ensure_valid(net, mod)
    n_occ = occupation(T_hot, net.omega[0], consts)
    return CLOSED_FORM_ORIENTATION * delta_power_weak_coupling(
        net.omega[0], n_occ, net.g[0, 1].real, net.kappa[0],
        mod.beta, mod.Omega, mod.theta[2] - mod.theta[1], consts,
    )


def perturbation_result(net, mod, T_hot=300.0, consts=SI):
    """All second-order estimates for the symmetric four-chain protocol."""
    closed = closed_form_delta_power(net, mod, T_hot, consts)
    p14_m, p41_m = power_second_order(net, mod, "matrix_inverse", T_hot, consts)
    p14_n, p41_n = power_second_order(net, mod, "neumann", T_hot, consts)
    return PerturbationResult(
        P14=p14_m, P41=p41_m,
        deltaP_matrixform=p14_m - p41_m,
        deltaP_expansion=p14_n - p41_n,
        deltaP_closedform=closed,
    )


def write_perturbation_csv(path, rows):
    """rows: iterables of (beta, theta, dP_exact, dP_pa1, dP_pa2, dP_closed)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["beta", "theta", "dP_exact_W", "dP_pa1_W",
                    "dP_pa2_W", "dP_closed_W"])
        for beta, theta, d_exact, d_pa1, d_pa2, d_closed in rows:
            w.writerow([f"{beta:.10e}", f"{theta:.10e}", f"{d_exact:.12e}",
                        f"{d_pa1:.12e}", f"{d_pa2:.12e}", f"{d_closed:.12e}"])
