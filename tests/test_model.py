import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import floqheat
from floqheat import (ModulationProtocol, ResonatorNetwork, SI, build_chain4,
                      occupation, validate)
from floqheat.model import ensure_valid, ValidationError
from floqheat.scenarios import SweepSpec

from conftest import OMEGA0, OCC_300K, chain


class TestOccupation:
    def test_zero_temperature(self):
        assert occupation(0.0, 1e14) == 0.0
        assert occupation(0.0, 1.0) == 0.0

    def test_ln2_gives_unit_occupation(self):
        # hbar*omega/kB*T = ln 2 forces exp(x) - 1 = 1
        omega = 1e14
        T = SI.hbar * omega / (SI.kB * math.log(2.0))
        assert occupation(T, omega) == pytest.approx(1.0, rel=1e-12)

    def test_room_temperature_reference(self):
        assert occupation(300.0, OMEGA0) == pytest.approx(OCC_300K, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            occupation(300.0, 0.0)
        with pytest.raises(ValueError):
            occupation(300.0, -1e14)
        with pytest.raises(ValueError):
            occupation(-1.0, 1e14)

    def test_extreme_ratio_underflows_to_zero(self):
        assert occupation(1e-6, 1e15) == 0.0

    def test_monotone_in_temperature_and_frequency(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            omega = 10 ** rng.uniform(12, 15)
            T = rng.uniform(1.0, 600.0)
            dT = rng.uniform(0.1, 50.0)
            dw = omega * rng.uniform(0.01, 0.5)
            assert occupation(T + dT, omega) > occupation(T, omega)
            assert occupation(T, omega + dw) < occupation(T, omega)


class TestNetworkTypes:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            ResonatorNetwork(omega=[1.0, 2.0], g=np.zeros((3, 3)),
                             kappa=[0.1, 0.1], T=[0, 0])
        with pytest.raises(ValueError):
            ResonatorNetwork(omega=[1.0], g=np.zeros((1, 1)),
                             kappa=[0.1, 0.2], T=[0])
        with pytest.raises(ValueError):
            ModulationProtocol(beta=0.0, Omega=1.0, theta=[0.0, 0.0], mask=[1])
        with pytest.raises(ValueError, match="1-d"):
            ResonatorNetwork(omega=1.0, g=np.zeros((1, 1)), kappa=[0.1], T=[0])

    def test_arrays_are_frozen(self, chain_static):
        net, mod = chain_static
        with pytest.raises(ValueError):
            net.omega[0] = 1.0
        with pytest.raises(ValueError):
            mod.mask[0] = 1

    def test_with_hot_bath(self, chain_static):
        net, _ = chain_static
        hot = net.with_hot_bath(0, 300.0)
        assert hot.T[0] == 300.0 and np.all(hot.T[1:] == 0.0)
        assert np.all(net.T == 0.0)  # original untouched

    def test_with_temperatures_replaces_only_T(self, chain_modulated):
        # the copy shares every checked array of the original and carries
        # a new frozen T
        net, _ = chain_modulated
        warm = net.with_temperatures([300.0, 0.0, 0.0, 120.0])
        assert type(warm) is ResonatorNetwork and warm.hermitian
        for field in ("omega", "g", "kappa"):
            assert getattr(warm, field) is getattr(net, field)
        assert np.array_equal(warm.T, [300.0, 0.0, 0.0, 120.0])
        assert np.all(net.T == 0.0)
        with pytest.raises(ValueError):
            warm.T[0] = 1.0

    @pytest.mark.parametrize("T, error, message", [
        ([300.0, 0.0, 0.0], ValueError,
         "^kappa and T must have the same length as omega$"),
        ([[300.0, 0.0, 0.0, 0.0]], ValueError,
         "^kappa and T must have the same length as omega$"),
        ([300.0, np.nan, 0.0, 0.0], ValidationError, "^T must be finite$"),
        ([np.inf, -1.0, 0.0, 0.0], ValidationError,
         "^T must be finite; temperatures must be nonnegative$"),
    ])
    def test_with_temperatures_checks_T(self, chain_static, T, error, message):
        # the same errors as the constructor raises for the same T
        net, _ = chain_static
        fields = dict(omega=net.omega, g=net.g, kappa=net.kappa, T=T)
        for build in (lambda: net.with_temperatures(T),
                      lambda: ResonatorNetwork(**fields)):
            with pytest.raises(error, match=message):
                build()


class TestValidate:
    def test_reference_chain_is_clean(self, chain_static):
        net, mod = chain_static
        assert validate(net, mod) == []

    def test_zero_damping_is_an_error(self):
        net, mod = chain(0.0)
        kappa = np.array(net.kappa)
        kappa[1] = 0.0
        with pytest.raises(ValidationError,
                           match="^kappa must be strictly positive$"):
            ResonatorNetwork(omega=net.omega, g=net.g, kappa=kappa, T=net.T)

    def test_strong_drive_warns(self):
        net, mod = chain(0.5)
        report = validate(net, mod)
        assert [v.severity for v in report] == ["warning"]
        assert "beta" in report[0].message

    def test_fast_drive_vs_temperature_warns(self):
        net, mod = chain(0.0)
        warm = net.with_temperatures([300.0, 0.0, 0.0, 0.0])
        report = validate(warm, mod)
        assert any(v.severity == "warning" and "hbar*Omega" in v.message
                   for v in report)

    def test_bad_mask_and_lengths(self):
        net, mod = chain(0.0)
        for mask in ([0, 2, 1, 0], [0, 0.5, 1, 0], [0, -1, 1, 0]):
            # 0.5 must not be truncated to 0 on the way to an integer mask
            with pytest.raises(ValidationError,
                               match="^mask entries must be exactly 0 or 1$"):
                ModulationProtocol(beta=mod.beta, Omega=mod.Omega,
                                   theta=mod.theta, mask=mask)
        short = ModulationProtocol(beta=mod.beta, Omega=mod.Omega,
                                   theta=[0.0, 0.0], mask=[1, 1])
        for check in (ensure_valid, validate):
            with pytest.raises(ValidationError,
                               match="theta and mask have length 2, network has 4"):
                check(net, short)

    def test_hermitian_flag_enforced(self):
        net, mod = chain(0.0)
        g = np.array(net.g)
        g[0, 1] = 1e9 * (1 + 1j)  # mirror entry left at the real value
        with pytest.raises(ValidationError, match="hermitian"):
            ResonatorNetwork(omega=net.omega, g=g, kappa=net.kappa,
                             T=net.T, hermitian=True)
        ResonatorNetwork(omega=net.omega, g=g, kappa=net.kappa, T=net.T)

    def test_diagonal_coupling_rejected(self):
        net, mod = chain(0.0)
        g = np.array(net.g)
        g[2, 2] = 1e9
        with pytest.raises(ValidationError, match="zero diagonal"):
            ResonatorNetwork(omega=net.omega, g=g, kappa=net.kappa, T=net.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["omega", "g", "kappa", "T", "theta",
                                       "beta", "Omega"])
    def test_non_finite_entries_rejected(self, field, bad):
        net, mod = chain(0.05)
        net_fields = {"omega": net.omega, "g": net.g, "kappa": net.kappa,
                      "T": net.T}
        mod_fields = {"beta": mod.beta, "Omega": mod.Omega,
                      "theta": mod.theta, "mask": mod.mask}
        with pytest.raises(ValidationError, match=f"^{field} must be finite$"):
            if field in net_fields:
                value = np.array(net_fields[field])
                value.flat[1] = bad
                ResonatorNetwork(**{**net_fields, field: value})
            elif field == "theta":
                ModulationProtocol(**{**mod_fields, "theta": [0.0, bad, 0.0, 0.0]})
            else:
                ModulationProtocol(**{**mod_fields, field: bad})

    @pytest.mark.parametrize("changes, message", [
        ({"T": [300.0, -1.0, 0.0, 0.0]}, "temperatures must be nonnegative"),
        ({"omega": [1.0, 0.0, 1.0, 1.0]}, "omega must be strictly positive"),
        ({"beta": -1.0}, "beta must be nonnegative"),
        ({"Omega": 0.0}, "Omega must be strictly positive"),
    ])
    def test_every_copy_is_checked(self, changes, message):
        # replace and with_temperatures build new objects, and check them
        net, mod = chain(0.05)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            if "T" in changes:
                net.with_temperatures(changes["T"])
            elif "omega" in changes:
                dataclasses.replace(net, **changes)
            else:
                dataclasses.replace(mod, **changes)

    def test_errors_joined_in_one_message(self):
        with pytest.raises(ValidationError, match="^omega must be strictly "
                           "positive; kappa must be strictly positive$"):
            ResonatorNetwork(omega=[-1.0, 1.0], g=np.zeros((2, 2)),
                             kappa=[0.0, 1.0], T=[0.0, 0.0])


class TestBuildChain4:
    def test_layout(self):
        net, mod = build_chain4(OMEGA0, 2.4e10, 2.2e12, 1e12, 8.45e12, 0.3)
        assert net.N == 4
        assert np.allclose(net.omega, OMEGA0)
        expected = np.zeros((4, 4), dtype=complex)
        for i, j in ((0, 1), (1, 2), (2, 3)):
            expected[i, j] = expected[j, i] = 2.4e10
        assert np.array_equal(net.g, expected)
        assert np.array_equal(mod.mask, [0, 1, 1, 0])
        assert np.allclose(mod.theta, [0.0, 0.0, 0.3, 0.0])
        assert np.all(net.T == 0.0)

    def test_coupling_matrix_symmetric_tridiagonal(self):
        net, _ = build_chain4(OMEGA0, 3e10, 2e12, 0.0, 8e12, 0.0)
        assert np.array_equal(net.g, net.g.T)
        assert net.g[0, 2] == 0 and net.g[0, 3] == 0 and net.g[1, 3] == 0

    def test_random_inputs_validate_clean(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            omega0 = 10 ** rng.uniform(13, 15)
            kappa = omega0 * rng.uniform(0.001, 0.05)
            net, mod = build_chain4(
                omega0, kappa * rng.uniform(0.0, 0.5), kappa,
                omega0 * rng.uniform(0.0, 0.09), omega0 * rng.uniform(0.01, 0.2),
                rng.uniform(-np.pi, np.pi),
            )
            assert validate(net, mod) == []


def test_constants_are_not_a_parameter():
    # hbar and kB live only in model.SI: no function, method or sweep spec
    # of the package takes a set of constants
    taking = []
    for info in pkgutil.iter_modules(floqheat.__path__):
        module = importlib.import_module(f"floqheat.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", member)
                            for attr, member in vars(obj).items() if callable(member)]
            for label, member in members:
                if not callable(member):
                    continue
                try:
                    params = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                if "consts" in params:
                    taking.append(f"{module.__name__}.{label}")
    assert taking == []
    assert "consts" not in {f.name for f in dataclasses.fields(SweepSpec)}
    assert "PhysicalConstants" not in floqheat.__dict__


def test_public_names_resolve():
    # every name a module lists in __all__ exists, and every name the
    # package re-exports is public in the module it is imported from
    missing = []
    for info in pkgutil.iter_modules(floqheat.__path__):
        module = importlib.import_module(f"floqheat.{info.name}")
        missing += [f"{module.__name__}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    tree = ast.parse(inspect.getsource(floqheat))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"floqheat.{node.module}")
        missing += [f"floqheat.{alias.name} (not in {module.__name__}.__all__)"
                    for alias in node.names if alias.name not in module.__all__]
    assert missing == []
