"""System description: resonator networks, modulation protocols, occupations.

All quantities are SI: angular frequencies and rates in rad/s, temperatures
in K, powers in W.  hbar and kB are the CODATA SI values and live only in
``SI`` below; every solver and driver reads them from there, and nothing
overrides them.  Resonator indices in the Python API are 0-based; the
text formats (config files, CSV output) label resonators 1-based.

Networks and protocols check their invariants when built and are immutable,
so solvers only compare their lengths (``ensure_valid``); ``validate``
reports the white-noise regime findings of a pair.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SI",
    "ResonatorNetwork",
    "ModulationProtocol",
    "PowerMatrix",
    "Violation",
    "occupation",
    "validate",
    "ensure_valid",
    "check_n_max",
    "sideband_order",
    "MAX_SIDEBAND_ORDER",
    "check_bath_index",
    "build_chain4",
    "FloqheatError",
    "ValidationError",
    "SingularBlockError",
    "QuadratureError",
    "ConvergenceError",
]


class FloqheatError(Exception):
    """Base class for solver errors."""


class ValidationError(FloqheatError):
    """Inputs violate a structural invariant (zero damping, bad shapes, ...)."""


class SingularBlockError(FloqheatError):
    """A frequency-domain block is numerically singular; valid inputs with
    strictly positive damping cannot produce this."""


class QuadratureError(FloqheatError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the best estimate and the error bound reported by the
    integrator.
    """

    def __init__(self, message, estimate, bound):
        super().__init__(message)
        self.estimate = estimate
        self.bound = bound


class ConvergenceError(FloqheatError):
    """Time stepping did not reach a periodic steady state."""


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar and kB in SI units (CODATA); ``SI`` is the only instance."""

    hbar: float = 1.054571817e-34  # J s
    kB: float = 1.380649e-23       # J/K


SI = PhysicalConstants()


def occupation(T, omega):
    """Bose-Einstein occupation 1/(exp(hbar*omega/kB*T) - 1) of a bath mode.

    Returns exactly 0.0 at T = 0.  Raises ValueError for omega <= 0 or
    negative temperature.
    """
    if omega <= 0.0:
        raise ValueError(f"occupation requires omega > 0, got {omega}")
    if T < 0.0:
        raise ValueError(f"occupation requires T >= 0, got {T}")
    if T == 0.0:
        return 0.0
    x = SI.hbar * omega / (SI.kB * T)
    if x > 700.0:
        # exp would overflow; the occupation is below ~1e-304 anyway
        return 0.0
    return 1.0 / math.expm1(x)


def _frozen_array(value, dtype):
    arr = np.array(value, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _require(finite, checks):
    """Raise one ValidationError naming each non-finite field of ``finite``
    and each failed (failed, message) check."""
    errors = [f"{name} must be finite" for name, v in finite.items()
              if not (np.isfinite(v).all() if isinstance(v, np.ndarray)
                      else math.isfinite(v))]
    errors += [message for failed, message in checks if failed]
    if errors:
        raise ValidationError("; ".join(errors))


def _temperature_check(temp):
    return (temp < 0.0).any(), "temperatures must be nonnegative"


@dataclass(frozen=True)
class ResonatorNetwork:
    """A static network of damped resonators, each with its own heat bath.

    omega : (N,) resonance frequencies [rad/s]
    g     : (N, N) complex coupling matrix [rad/s], zero diagonal
    kappa : (N,) damping rates [rad/s], strictly positive
    T     : (N,) bath temperatures [K], nonnegative
    hermitian : when True, the constructor additionally enforces g = g^dagger

    Entries must be finite; the constructor raises ValidationError otherwise.
    """

    omega: np.ndarray
    g: np.ndarray
    kappa: np.ndarray
    T: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        omega = _frozen_array(self.omega, float)
        g = _frozen_array(self.g, complex)
        kappa = _frozen_array(self.kappa, float)
        temp = _frozen_array(self.T, float)
        if omega.ndim != 1:
            raise ValueError("omega must be a 1-d array")
        n = omega.shape[0]
        if g.shape != (n, n):
            raise ValueError(f"g must be shaped ({n}, {n}), got {g.shape}")
        if kappa.shape != (n,) or temp.shape != (n,):
            raise ValueError("kappa and T must have the same length as omega")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "T", temp)
        _require(dict(omega=omega, g=g, kappa=kappa, T=temp), [
            ((omega <= 0.0).any(), "omega must be strictly positive"),
            (g.diagonal().any(), "coupling matrix must have zero diagonal (g_ii = 0)"),
            ((kappa <= 0.0).any(), "kappa must be strictly positive"),
            _temperature_check(temp),
            # to 1e-15 of the largest coupling; a non-finite g is reported as such
            (self.hermitian and np.isfinite(g).all() and abs(g - g.conj().T).max()
             > 1e-15 * max(1.0, abs(g).max()), "hermitian flag set but g != conj(g).T"),
        ])

    @property
    def N(self):
        return self.omega.shape[0]

    def occupations(self):
        """Per-bath occupation evaluated at the unmodulated resonance."""
        return np.array([occupation(t, w) for t, w in zip(self.T, self.omega)])

    def with_temperatures(self, T):
        """Copy of the network with the bath temperature vector replaced.

        Only the new temperatures are checked (shape, finiteness, T >= 0);
        the rest of the network was checked when it was built.
        """
        temp = _frozen_array(T, float)
        if temp.shape != self.omega.shape:
            raise ValueError("kappa and T must have the same length as omega")
        _require(dict(T=temp), [_temperature_check(temp)])
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, T=temp)
        return copy

    def with_hot_bath(self, k, T_hot):
        """Copy with bath k at T_hot and every other bath at 0 K; raises
        ValueError unless k is a bath index (``check_bath_index``)."""
        check_bath_index(self, k)
        temp = np.zeros(self.N)
        temp[k] = T_hot
        return self.with_temperatures(temp)


@dataclass(frozen=True)
class ModulationProtocol:
    """Periodic frequency modulation omega_k -> omega_k + m_k beta cos(Omega t + theta_k).

    beta  : modulation amplitude [rad/s], >= 0
    Omega : drive frequency [rad/s], > 0
    theta : (N,) per-resonator phases [rad]
    mask  : (N,) 0/1 switches selecting which resonators are modulated

    beta, Omega and theta must be finite (ValidationError when built).
    """

    beta: float
    Omega: float
    theta: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        theta = _frozen_array(self.theta, float)
        mask = np.asarray(self.mask)
        if theta.ndim != 1 or mask.shape != theta.shape:
            raise ValueError("theta and mask must be 1-d arrays of equal length")
        # checked before the integer cast, which would truncate 0.5 to 0
        _require(dict(theta=theta, beta=self.beta, Omega=self.Omega), [
            (not set(mask.tolist()) <= {0, 1}, "mask entries must be exactly 0 or 1"),
            (self.beta < 0.0, "beta must be nonnegative"),
            (self.Omega <= 0.0, "Omega must be strictly positive"),
        ])
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "mask", _frozen_array(mask, int))

    @property
    def period(self):
        return 2.0 * math.pi / self.Omega

    @property
    def phasor(self):
        """Drive phasors c_k = m_k exp(i theta_k); every solver takes its
        sideband couplings from these."""
        return self.mask * np.exp(1j * self.theta)


@dataclass(frozen=True)
class PowerMatrix:
    """Cycle-averaged pairwise powers P[k, l] = P_{k->l} and emitted powers."""

    P: np.ndarray      # (N, N), zero diagonal [W]
    P_em: np.ndarray   # (N,) [W]

    def __post_init__(self):
        object.__setattr__(self, "P", _frozen_array(self.P, float))
        object.__setattr__(self, "P_em", _frozen_array(self.P_em, float))

    def conservation_residual(self, k):
        """|P_em[k] - sum_l P[k, l]|, the energy balance defect for source k."""
        return abs(self.P_em[k] - self.P[k].sum())


@dataclass(frozen=True)
class Violation:
    severity: str  # "warning": invalid inputs raise ValidationError instead
    message: str


def ensure_valid(net, mod):
    """Raise ValidationError unless mod has one phase and mask entry per
    resonator of net; each object checked the rest when it was built."""
    if len(mod.theta) != net.N:
        raise ValidationError(f"theta and mask have length {len(mod.theta)}, "
                              f"network has {net.N} resonators")


def validate(net, mod):
    """White-noise regime findings for a network/protocol pair.

    Runs the pair check (``ensure_valid``), then returns one
    Violation("warning", ...) per white-noise assumption the pair strains:
    constant bath occupations need beta << omega_k and hbar*Omega << kB*T
    for every thermally occupied bath.  Empty inside the regime.  No solver
    calls it; the drivers log its findings.
    """
    ensure_valid(net, mod)
    out = []
    if net.N and mod.beta >= 0.1 * net.omega.min():
        out.append(Violation("warning", "white-noise regime questionable: "
                             f"beta = {mod.beta:.3e} >= 0.1 * min(omega)"))
    hot = net.T[net.T > 0.0]
    if hot.size and SI.hbar * mod.Omega >= 0.1 * SI.kB * hot.min():
        out.append(Violation("warning", "white-noise regime questionable: "
                             f"hbar*Omega = {SI.hbar * mod.Omega:.3e} J >= "
                             "0.1 * kB * min nonzero T"))
    return out


def check_n_max(n_max):
    """Raise ValueError unless the truncation order is a nonnegative integer
    (numpy integers pass)."""
    try:
        operator.index(n_max)
    except TypeError:
        raise ValueError(f"n_max must be an integer, got {n_max!r}") from None
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")


# the most sidebands any solve truncates at by itself: the drive's order
# above it is refused, and converged_power_matrix doubles up to it
MAX_SIDEBAND_ORDER = 256


def sideband_order(index):
    """Truncation order that resolves a drive of modulation index ``index``.

    By Jacobi-Anger the sideband weights fall like J_n(r), faster than
    exponentially once n exceeds r (Carson's rule); the order is
    ceil(r + 3 r^(1/3) + 4), which held the qme powers to 1e-9 relative of
    n_max = 160 at every calibration point (chain up to r = 35, random
    networks).  An undriven system (r = 0) gets 4.
    """
    return math.ceil(index + 3.0 * index ** (1.0 / 3.0) + 4.0)


def check_bath_index(net, k):
    """Raise ValueError unless k is an integer bath index of net in 0..N-1
    (numpy integers pass)."""
    try:
        operator.index(k)
    except TypeError:
        raise ValueError(f"bath index {k!r} is not an integer") from None
    if not 0 <= k < net.N:
        raise ValueError(f"bath index {k} outside 0..{net.N - 1}")


def build_chain4(omega0, g, kappa, beta, Omega, theta):
    """Four identical resonators in a line with equal nearest-neighbor coupling.

    Resonators 2 and 3 (1-based) are modulated, with resonator 3 dephased by
    theta.  Bath temperatures start at 0 K; callers pick the hot bath.
    """
    gm = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 1), (1, 2), (2, 3)):
        gm[i, j] = gm[j, i] = g
    net = ResonatorNetwork(
        omega=np.full(4, float(omega0)),
        g=gm,
        kappa=np.full(4, float(kappa)),
        T=np.zeros(4),
        hermitian=True,
    )
    mod = ModulationProtocol(
        beta=float(beta),
        Omega=float(Omega),
        theta=np.array([0.0, 0.0, float(theta), 0.0]),
        mask=np.array([0, 1, 1, 0]),
    )
    return net, mod
