import dataclasses
import logging

import numpy as np
import pytest

from floqheat import build_chain4
from floqheat.scenarios import (DEFAULT_COUPLING_FRAC, DEFAULT_DRIVE_FRAC,
                                DEFAULT_KAPPA_FRAC, DEFAULT_OMEGA0)

OMEGA0 = DEFAULT_OMEGA0
KAPPA = DEFAULT_KAPPA_FRAC * OMEGA0
COUPLING = DEFAULT_COUPLING_FRAC * KAPPA
DRIVE = DEFAULT_DRIVE_FRAC * OMEGA0
T_HOT = 300.0

# frozen reference values, computed with independent routes before the
# solvers were written (static moment solve vs direct response integral,
# agreeing to 2e-12; see tests for the in-suite recomputation)
OCC_300K = 0.013715221568093535          # occupation at 300 K, omega_0
P14_STATIC = 5.943074812815e-22          # W, unmodulated chain, T_hot = 300 K


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(autouse=True)
def _clipped_windows_are_marked(request):
    """Fail a test whose quadrature window was clipped at omega = 0 unless
    it carries the ``clips_window`` marker: the clipped spectral mass is
    dropped from every power, so each such test states that it is small."""
    handler = _Records()
    logger = logging.getLogger("floqheat.langevin")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    clipped = [r for r in handler.records
               if "integration window clipped" in r.getMessage()]
    if clipped and request.node.get_closest_marker("clips_window") is None:
        pytest.fail(f"{len(clipped)} integration window(s) clipped at "
                    "omega = 0; mark the test clips_window with the reason",
                    pytrace=False)


def chain(beta_frac=0.0, theta_pi=0.5, drive_frac=DEFAULT_DRIVE_FRAC):
    return build_chain4(OMEGA0, COUPLING, KAPPA, beta_frac * OMEGA0,
                        drive_frac * OMEGA0, theta_pi * np.pi)


@pytest.fixture(scope="session")
def chain_static():
    return chain(0.0)


@pytest.fixture(scope="session")
def chain_modulated():
    # the strongly nonreciprocal operating point
    return chain(0.05, 0.5)


def random_network(rng, n):
    """Small random network inside the validity regime."""
    from floqheat import ModulationProtocol, ResonatorNetwork

    omega = OMEGA0 * (1.0 + 0.03 * rng.uniform(-1, 1, n))
    kappa = OMEGA0 * rng.uniform(0.008, 0.02, n)
    g = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            mag = 0.1 * kappa.min() * rng.uniform(0.2, 1.0)
            phase = rng.uniform(0, 2 * np.pi)
            g[i, j] = mag * np.exp(1j * phase)
            g[j, i] = np.conj(g[i, j])
    temp = rng.uniform(50.0, 400.0, n) * rng.integers(0, 2, n)
    if not np.any(temp > 0):
        temp[rng.integers(0, n)] = 300.0
    net = ResonatorNetwork(omega=omega, g=g, kappa=kappa, T=temp, hermitian=True)
    mod = ModulationProtocol(
        beta=rng.uniform(0.0, 0.05) * OMEGA0,
        Omega=rng.uniform(0.03, 0.08) * OMEGA0,
        theta=rng.uniform(-np.pi, np.pi, n),
        mask=rng.integers(0, 2, n),
    )
    return net, mod


def centre_cases():
    """(name, net, mod, n_max) for centre-read checks: the chain at its
    drive order, random Hermitian N = 2-6 networks at theirs (the mirrored
    elimination), a non-Hermitian g (both sweeps) and a strong drive."""
    from floqheat.master import drive_order

    rng = np.random.default_rng(24)
    net, mod = chain(0.05, 0.5)
    skewed = np.array(net.g)
    skewed[0, 1] *= 1.5
    cases = ([("chain", net, mod)]
             + [(f"random N={n}", *random_network(rng, n))
                for n in range(2, 7) for _ in range(2)]
             + [("non-Hermitian g",
                 dataclasses.replace(net, g=skewed, hermitian=False), mod)])
    return ([(name, net, mod, drive_order(mod)) for name, net, mod in cases]
            + [("strong drive", *chain(0.3, 0.5, drive_frac=0.02), 64)])


def assemble_dense(diag, upper, lower):
    """Dense matrix of one block-tridiagonal system: diagonal blocks
    ``diag`` (R, B, B), and the coupling blocks one block row above and
    below the diagonal, ``upper`` and ``lower`` (R - 1, B, B) each."""
    nblocks, b = len(diag), diag[0].shape[0]
    full = np.zeros((nblocks * b, nblocks * b), dtype=complex)
    for r in range(nblocks):
        full[r * b:(r + 1) * b, r * b:(r + 1) * b] = diag[r]
        if r + 1 < nblocks:
            full[r * b:(r + 1) * b, (r + 1) * b:(r + 2) * b] = upper[r]
            full[(r + 1) * b:(r + 2) * b, r * b:(r + 1) * b] = lower[r]
    return full


def sideband_ladder(static, Omega, n):
    """Diagonal blocks (..., 2 n + 1, B, B) of the order-n sideband system
    on the static block (..., B, B), from the definition: the block of
    sideband m is static - i m Omega I, m = n in the top block row down to
    -n, each formed on its own."""
    eye = np.eye(np.shape(static)[-1])
    return np.stack([static - 1j * m * Omega * eye
                     for m in range(n, -n - 1, -1)], axis=-3)


def periodic_expectations(coeffs, Omega, t):
    """Moment vector at time t from Fourier coefficients (2 n_max + 1, N^2)
    whose row n_max - n holds sideband n.

    Off-diagonal moments are genuinely complex; diagonal entries come out
    real to solver precision.
    """
    n_max = (len(coeffs) - 1) // 2
    n = np.arange(n_max, -n_max - 1, -1)
    phases = np.exp(-1j * n * Omega * t)
    return phases @ coeffs
