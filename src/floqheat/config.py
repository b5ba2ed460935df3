"""YAML run configuration: network and modulation.

Unknown keys anywhere in the document are rejected so a typo cannot
silently fall back to a default.  Resonator indices in ``couplings`` are
1-based, matching the labels used in the CSV output.
"""
from __future__ import annotations

import numpy as np

from .model import FloqheatError, ModulationProtocol, ResonatorNetwork

__all__ = ["ConfigError", "load_config", "parse_config"]


class ConfigError(FloqheatError):
    """Malformed or inconsistent run configuration."""


_TOP_KEYS = {"network", "modulation"}
_NET_KEYS = {"N", "omega", "kappa", "T", "couplings", "hermitian"}
_MOD_KEYS = {"beta", "Omega", "theta", "mask"}


def _check_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {', '.join(unknown)}")


def _vector(section, mapping, key, n=None, required=True):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing {section}.{key}")
        return None
    try:
        vec = np.asarray(mapping[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{key} must be a list of numbers") from exc
    if vec.ndim != 1:
        raise ConfigError(f"{section}.{key} must be a flat list")
    if n is not None and vec.size != n:
        raise ConfigError(f"{section}.{key} must have {n} entries, got {vec.size}")
    return vec


def _scalar(section, mapping, key):
    if key not in mapping:
        raise ConfigError(f"missing {section}.{key}")
    value = mapping[key]
    if isinstance(value, bool):
        raise ConfigError(f"{section}.{key} must be a number")
    try:
        # YAML 1.1 reads unsigned exponents like 8.45e12 as strings;
        # accept anything float() does
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{key} must be a number") from exc


def parse_config(doc):
    """Build (network, modulation) from a parsed YAML mapping."""
    _check_keys("top level", doc, _TOP_KEYS)
    for key in ("network", "modulation"):
        if key not in doc:
            raise ConfigError(f"missing section {key!r}")

    net_map = doc["network"]
    _check_keys("network", net_map, _NET_KEYS)
    omega = _vector("network", net_map, "omega")
    n = omega.size
    size = net_map.get("N", n)
    if type(size) is not int or size != n:
        raise ConfigError(f"network.N must be the integer len(omega) = {n}, got {size!r}")
    kappa = _vector("network", net_map, "kappa", n)
    temp = _vector("network", net_map, "T", n, required=False)
    if temp is None:
        temp = np.zeros(n)
    hermitian = net_map.get("hermitian", False)
    if not isinstance(hermitian, bool):
        raise ConfigError(f"network.hermitian must be true or false, got {hermitian!r}")
    couplings = net_map.get("couplings") or []
    if not isinstance(couplings, list):
        raise ConfigError("network.couplings must be a list of [i, j, re, im]")

    g = np.zeros((n, n), dtype=complex)
    explicit = set()
    for entry in couplings:
        try:
            i, j, re, im = entry
            value = complex(float(re), float(im))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"coupling entries must be [i, j, re, im], got {entry!r}"
            ) from exc
        if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                   for k in (i, j)):
            raise ConfigError(f"coupling indices must be integers: {entry!r}")
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ConfigError(f"coupling indices out of range or diagonal: {entry!r}")
        g[i - 1, j - 1] = value
        explicit.add((i - 1, j - 1))
    for (i, j) in sorted(p for p in explicit if p[::-1] not in explicit):
        if not hermitian:
            raise ConfigError(f"coupling [{i + 1}, {j + 1}] has no [{j + 1}, "
                              f"{i + 1}] entry; list both or set hermitian: true")
        g[j, i] = np.conj(g[i, j])

    net = ResonatorNetwork(omega=omega, g=g, kappa=kappa, T=temp,
                           hermitian=hermitian)

    mod_map = doc["modulation"]
    _check_keys("modulation", mod_map, _MOD_KEYS)
    theta = _vector("modulation", mod_map, "theta", n)
    mask_vec = _vector("modulation", mod_map, "mask", n)
    if not np.all(np.isin(mask_vec, (0.0, 1.0))):
        raise ConfigError("modulation.mask entries must be 0 or 1")
    mod = ModulationProtocol(
        beta=_scalar("modulation", mod_map, "beta"),
        Omega=_scalar("modulation", mod_map, "Omega"),
        theta=theta,
        mask=mask_vec.astype(int),
    )
    return net, mod


def load_config(path):
    """Read and parse a YAML configuration file."""
    import yaml     # here, not at module level: only --config reads YAML

    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} does not contain a configuration mapping")
    return parse_config(doc)
