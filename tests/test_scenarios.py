import csv
import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from floqheat import (SI, ModulationProtocol, ResonatorNetwork,
                      SingularBlockError, ValidationError, build_chain4,
                      langevin, master, perturbation, scenarios, timedomain)
from floqheat.model import MAX_SIDEBAND_ORDER, sideband_order
from floqheat.scenarios import (MethodComparison, SweepRow, SweepSpec,
                                compare_methods, default_chain,
                                operating_point, rectification, spectrum_run,
                                sweep, write_normalized_csv,
                                write_perturbation_csv, write_spectrum_csv,
                                write_sweep_csv)

from conftest import DRIVE, KAPPA, OMEGA0, T_HOT, chain, random_network


def _same_row(a, b):
    """Rows equal field by field, bit for bit (NaN equal to NaN)."""
    return all(x == y or (x != x and y != y)
               for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b),
                               strict=True))


class TestRunForwardBackward:
    def test_static_chain_is_reciprocal(self, chain_static):
        net, mod = chain_static
        row = operating_point(net, mod, "qme")
        assert row.P14 == pytest.approx(row.P41, rel=1e-10)

    def test_uncoupled_chain_transfers_nothing(self):
        net, mod = build_chain4(OMEGA0, 0.0, KAPPA, 0.02 * OMEGA0, DRIVE, 0.5)
        row = operating_point(net, mod, "qme")
        assert row.P14 == 0.0 and row.P41 == 0.0
        with pytest.raises(ZeroDivisionError):
            rectification(row.P14, row.P41)

    def test_methods_share_the_protocol(self, chain_modulated):
        net, mod = chain_modulated
        qme = operating_point(net, mod, "qme")
        pert1 = operating_point(net, mod, "pert1")
        # second order misses higher harmonics but must land in the
        # same ballpark and preserve the asymmetry direction
        assert np.sign(pert1.P14 - pert1.P41) == np.sign(qme.P14 - qme.P41)
        assert pert1.P14 == pytest.approx(qme.P14, rel=0.5)

    @pytest.mark.parametrize("method", ["qme", "pert1", "pert2", "oracle"])
    def test_rows_read_the_solvers_power_matrix(self, method, monkeypatch):
        # each moment-type solver answers with one PowerMatrix of the
        # network with both ends hot; the row holds its two end entries
        # exactly, and the oracle's is read once
        solvers = {
            "qme": lambda both, mod: master.power_matrix(
                both, mod, master.drive_order(mod)),
            "pert1": lambda both, mod: master.power_matrix(both, mod, 1),
            "pert2": perturbation.power_second_order,
            "oracle": lambda both, mod: timedomain.cycle_average_power(
                timedomain.evolve_to_cycle(both, mod), both),
        }
        read = timedomain.cycle_average_power
        reads = []
        monkeypatch.setattr(timedomain, "cycle_average_power",
                            lambda *a: reads.append(a) or read(*a))
        for net, mod in (chain(0.05, 0.5),
                         random_network(np.random.default_rng(8), 4)):
            reads.clear()
            row = operating_point(net, mod, method)
            assert len(reads) == (method == "oracle")
            last = net.N - 1
            temps = np.zeros(net.N)
            temps[[0, last]] = T_HOT
            pm = solvers[method](net.with_temperatures(temps), mod)
            assert row.P14 == pm.P[0, last] and row.P41 == pm.P[last, 0]

    def test_unknown_method(self, chain_static):
        net, mod = chain_static
        with pytest.raises(ValueError):
            operating_point(net, mod, "magic")


class TestOneResonator:
    # the protocol needs two distinct ends; every driver refuses before
    # any solve, and a sweep flags the row
    @pytest.fixture
    def single(self):
        net = ResonatorNetwork(omega=[OMEGA0], g=np.zeros((1, 1)), kappa=[KAPPA],
                               T=[0.0])
        mod = ModulationProtocol(beta=0.02 * OMEGA0, Omega=DRIVE, theta=[0.0],
                                 mask=[1])
        return net, mod

    @pytest.mark.parametrize("method", ["qme", "qle", "oracle", "pert1", "pert2"])
    def test_run_forward_backward_raises(self, single, method):
        with pytest.raises(ValidationError, match="at least two resonators"):
            operating_point(*single, method)

    def test_spectrum_and_compare_raise(self, single, monkeypatch):
        def no_solve(*a, **k):
            raise AssertionError("solver reached")
        monkeypatch.setattr(langevin, "heat_flux_spectrum", no_solve)
        monkeypatch.setattr(master, "power_matrix", no_solve)
        for call in (spectrum_run, compare_methods):
            with pytest.raises(ValidationError, match="at least two resonators"):
                call(*single)

    def test_sweep_flags_the_row(self, single):
        net, mod = single
        (row,) = sweep(SweepSpec(network=net, modulation=mod, parameter="beta",
                                 values=[mod.beta], methods=("pert1",)))
        assert row.status == ("error: the forward/backward protocol needs at "
                              "least two resonators")


class TestRectification:
    def test_limits(self):
        assert rectification(1.0e-22, 1.0e-22) == 0.0
        assert rectification(3.0e-22, 0.0) == 1.0
        assert rectification(0.0, 3.0e-22) == -1.0
        assert abs(rectification(2.0e-22, 1.0e-22)) <= 1.0


class TestSweep:
    def test_single_point_matches_direct_call(self, chain_modulated):
        net, mod = chain_modulated
        spec = SweepSpec(network=net, modulation=mod, parameter="beta",
                         values=[mod.beta], methods=("qme",))
        (row,) = sweep(spec)
        ref = operating_point(net, mod, "qme")
        assert row.P14 == pytest.approx(ref.P14, rel=1e-12)
        assert row.P41 == pytest.approx(ref.P41, rel=1e-12)
        assert row.E == pytest.approx(rectification(ref.P14, ref.P41), rel=1e-12)
        assert row.status == "ok"

    def test_ordering_and_methods(self, chain_static):
        net, mod = chain_static
        values = np.array([0.0, 0.01, 0.02]) * OMEGA0
        spec = SweepSpec(network=net, modulation=mod, parameter="beta",
                         values=values, methods=("qme", "pert1"))
        rows = sweep(spec)
        assert [(r.beta, r.method) for r in rows] == \
            [(v, m) for v in values for m in ("qme", "pert1")]

    def test_workers_other_than_one_raise(self, chain_static):
        # sweeps run in one process; workers=1 alone is still accepted
        net, mod = chain_static
        spec = SweepSpec(network=net, modulation=mod, parameter="beta",
                         values=[0.0], methods=("qme",))
        assert _same_row(sweep(spec, workers=1)[0], sweep(spec)[0])
        for workers in (2, 0):
            with pytest.raises(ValueError, match="process pool was removed"):
                sweep(spec, workers=workers)

    def test_failures_flag_rows_without_aborting(self, chain_static):
        net, mod = chain_static
        spec = SweepSpec(network=net, modulation=mod, parameter="beta",
                         values=[0.0, 0.02 * OMEGA0], methods=("closed", "qme"))
        rows = sweep(spec)
        # "closed" needs the modulated-chain shape; beta = 0 rows still work
        assert all(r.status == "ok" for r in rows if r.method == "qme")
        assert len(rows) == 4

    def test_flagged_error_row(self):
        net, mod = chain(0.02, 0.5)
        bad = SweepSpec(network=net, modulation=mod, parameter="Omega",
                        values=[-1.0], methods=("qme",))
        (row,) = sweep(bad)
        assert row.status.startswith("error:")
        assert np.isnan(row.P14)

    @pytest.mark.parametrize("parameter, value, message", [
        ("Omega", -1.0, "Omega must be strictly positive"),
        ("Omega", 0.0, "Omega must be strictly positive"),
        ("beta", -1.0, "beta must be nonnegative"),
    ])
    def test_rejected_value_flagged_in_its_column(self, parameter, value, message):
        # a rejected value flags the row of every method at that value
        net, mod = chain(0.02, 0.5)
        good = getattr(mod, parameter)
        k = len(scenarios.METHODS)
        rows = sweep(SweepSpec(network=net, modulation=mod, parameter=parameter,
                               values=[value, good], methods=scenarios.METHODS,
                               quad_tol=1e-4))
        for row in rows[:k]:
            assert row.status == f"error: {message}"
            assert getattr(row, parameter) == value
            assert np.isnan([row.P14, row.P41, row.E, row.dP]).all()
        assert [r.status for r in rows[k:]] == ["ok"] * k

    def test_failing_method_flags_only_its_row(self, monkeypatch):
        net, mod = chain(0.02, 0.5)

        def singular(*args, **kwargs):
            raise SingularBlockError("singular first-sideband block")
        monkeypatch.setattr(perturbation, "power_second_order", singular)
        methods = ("qme", "pert2", "pert1", "closed")
        rows = sweep(SweepSpec(network=net, modulation=mod, parameter="beta",
                               values=np.array([0.01, 0.03]) * OMEGA0,
                               methods=methods))
        assert [r.status for r in rows] == \
            ["ok", "error: singular first-sideband block", "ok", "ok"] * 2
        for row in rows[1::4]:
            assert np.isnan([row.P14, row.P41, row.E, row.dP]).all()
        for row, method in zip(rows[4:], methods, strict=True):
            if method != "pert2":
                direct = operating_point(net, dataclasses.replace(
                    mod, beta=0.03 * OMEGA0), method)
                assert _same_row(row, direct)

    def test_closed_rows_do_no_second_order_solve(self, monkeypatch):
        net, mod = chain(0.02, 0.5)
        calls = []
        solve = perturbation.power_second_order
        monkeypatch.setattr(perturbation, "power_second_order",
                            lambda *a, **k: calls.append(a) or solve(*a, **k))
        betas = np.array([0.0, 0.02, 0.04]) * OMEGA0
        rows = sweep(SweepSpec(network=net, modulation=mod, parameter="beta",
                               values=betas, methods=("closed",)))
        assert calls == []
        for row, beta in zip(rows, betas, strict=True):
            expected = perturbation.closed_form_delta_power(
                net, dataclasses.replace(mod, beta=beta), T_HOT)
            assert row.status == "ok"
            assert row.dP == expected
            assert np.isnan([row.P14, row.P41, row.E]).all()
        operating_point(net, mod, "pert2")
        assert len(calls) == 1                # the spy does see a pert2 row
        (bad,) = sweep(SweepSpec(network=net, modulation=mod, parameter="Omega",
                                 values=[-1.0], methods=("closed",)))
        assert bad.status.startswith("error:") and np.isnan(bad.dP)

    def test_sweep_rows_are_operating_points(self, chain_modulated):
        # every method of a swept value reads the one network that the
        # value prepares, and gets the row that operating_point gives
        net, mod = chain_modulated
        methods = scenarios.METHODS
        for parameter, values in (("beta", [0.01 * OMEGA0, mod.beta]),
                                  ("theta", [0.1 * np.pi, -0.7 * np.pi]),
                                  ("Omega", [0.03 * OMEGA0, 0.08 * OMEGA0])):
            spec = SweepSpec(network=net, modulation=mod, parameter=parameter,
                             values=values, methods=methods, quad_tol=1e-4)
            rows = sweep(spec)
            assert len(rows) == len(values) * len(methods)
            for i, value in enumerate(values):
                swept = scenarios._apply_parameter(mod, parameter, value)
                for row, method in zip(rows[i * len(methods):], methods):
                    direct = operating_point(net, swept, method, quad_tol=1e-4)
                    assert _same_row(row, direct)
                    assert row.status == "ok"

    def test_operating_point_raises_and_flags_zero_total(self):
        net, mod = build_chain4(OMEGA0, 0.0, KAPPA, 0.02 * OMEGA0, DRIVE, 0.5)
        row = operating_point(net, mod, "qme")
        assert row.P14 == 0.0 and row.P41 == 0.0 and np.isnan(row.E)
        with pytest.raises(ValueError, match="unknown method"):
            operating_point(net, mod, "magic")

    def test_qme_directions_share_one_solve(self, monkeypatch):
        # both end baths hot in one power_matrix call: the sideband operator
        # is the same, and each hot bath is its own right-hand side
        cases = [(chain(0.05, 0.5), 15),
                 (random_network(np.random.default_rng(6), 6), 15),
                 (chain(0.2, 0.5, drive_frac=0.02), 32)]      # strong drive
        solve = master.power_matrix
        calls = []
        monkeypatch.setattr(master, "power_matrix",
                            lambda *a, **k: calls.append(a) or solve(*a, **k))
        for (net, mod), n_max in cases:
            calls.clear()
            row = operating_point(net, mod, "qme", n_max)
            assert len(calls) == 1
            last = net.N - 1
            p14 = solve(net.with_hot_bath(0, T_HOT), mod, n_max).P[0, last]
            p41 = solve(net.with_hot_bath(last, T_HOT), mod, n_max).P[last, 0]
            assert abs(row.P14 / p14 - 1.0) <= 1e-14
            assert abs(row.P41 / p41 - 1.0) <= 1e-14

    def test_solves_per_row(self, monkeypatch):
        # pert1 is one first-sideband moment solve, pert2 one Neumann
        # solve, and qle integrates both directions in one quadrature of
        # the network with both ends hot
        net, mod = chain(0.02, 0.5)
        calls = {}

        def spy(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **k: calls.setdefault(
                name, []).append(a) or fn(*a, **k))

        spy(master, "power_matrix")
        spy(perturbation, "power_second_order")
        spy(langevin, "integrate_power")
        spy(timedomain, "evolve_to_cycle")
        for method, name, count in (("pert1", "power_matrix", 1),
                                    ("pert2", "power_second_order", 1),
                                    ("oracle", "evolve_to_cycle", 1),
                                    ("qle", "integrate_power", 1)):
            calls.clear()
            operating_point(net, mod, method, n_max=4, quad_tol=1e-4)
            assert list(calls) == [name] and len(calls[name]) == count
            if method == "pert1":
                assert calls[name][0][2] == 1   # n_max does not reach pert1
            if method == "oracle":
                # one shooting period for both directions
                assert np.array_equal(calls[name][0][0].T,
                                      [T_HOT, 0.0, 0.0, T_HOT])
        (both, _, sources, observers, *_), = calls["integrate_power"]
        assert np.array_equal(both.T, [T_HOT, 0.0, 0.0, T_HOT])
        assert list(zip(sources, observers)) == [(0, 3), (3, 0)]

    def test_spec_validation(self, chain_static):
        net, mod = chain_static
        with pytest.raises(ValueError):
            SweepSpec(network=net, modulation=mod, parameter="gamma",
                      values=[1.0])
        with pytest.raises(ValueError):
            SweepSpec(network=net, modulation=mod, parameter="beta", values=[])
        with pytest.raises(ValueError, match="sweep values must be 1-d"):
            SweepSpec(network=net, modulation=mod, parameter="beta",
                      values=[[1e12, 2e12]])
        with pytest.raises(ValueError):
            SweepSpec(network=net, modulation=mod, parameter="beta",
                      values=[1.0], methods=())
        with pytest.raises(ValueError):
            SweepSpec(network=net, modulation=mod, parameter="beta",
                      values=[1.0], methods=("qme", "wat"))

    @pytest.mark.parametrize("field, value, message", [
        ("n_max", -1, "n_max must be nonnegative"),
        ("n_max", 2.5, "n_max must be an integer"),
        ("n_max", "8", "n_max must be an integer"),
        ("n_max", True, "n_max must be an integer"),
        ("quad_tol", 0.0, "quad_tol must be positive and finite"),
        ("quad_tol", -1e-6, "quad_tol must be positive and finite"),
        ("quad_tol", math.inf, "quad_tol must be positive and finite"),
        ("quad_tol", math.nan, "quad_tol must be positive and finite"),
        ("T_hot", -1.0, "T_hot must be nonnegative and finite"),
        ("T_hot", math.inf, "T_hot must be nonnegative and finite"),
        ("T_hot", math.nan, "T_hot must be nonnegative and finite"),
        ("quad_tol", "1e-6", "quad_tol must be positive and finite"),
        ("quad_tol", 1e-6j, "quad_tol must be positive and finite"),
        ("T_hot", np.array([300.0]), "T_hot must be nonnegative and finite"),
        ("T_hot", True, "T_hot must be nonnegative and finite"),
    ])
    def test_spec_rejects_bad_settings(self, chain_static, field, value,
                                       message):
        # a bad setting fails the spec when it is built, not every row
        net, mod = chain_static
        with pytest.raises(ValueError, match=message):
            SweepSpec(network=net, modulation=mod, parameter="beta",
                      values=[1.0], **{field: value})

    def test_csv_roundtrip(self, tmp_path, chain_static):
        net, mod = chain_static
        spec = SweepSpec(network=net, modulation=mod, parameter="beta",
                         values=[0.0, 0.01 * OMEGA0], methods=("qme",))
        rows = sweep(spec)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        with open(path) as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == 2
        assert float(got[0]["P14_W"]) == pytest.approx(rows[0].P14, rel=1e-10)
        assert got[0]["status"] == "ok"
        assert set(got[0]) == {"method", "beta_rad_s", "Omega_rad_s",
                               "theta_rad", "P14_W", "P41_W", "E", "dP_W",
                               "status"}


class TestDriveOrder:
    # n_max None: each solver truncates at the sideband order of its own
    # stripes, ceil(r + 3 r^(1/3) + 4), at every operating point
    @pytest.mark.parametrize("case, reference, bound", [
        # the calibration points of the ROADMAP table: chain at
        # Omega = 0.02 omega_0, r = beta / Omega, theta in pi
        pytest.param((0.10, 0.5, 0.02), 160, 1e-9, id="r5-theta0.5"),
        pytest.param((0.30, 0.5, 0.02), 160, 1e-9, id="r15-theta0.5"),
        pytest.param((0.50, 0.5, 0.02), 160, 1e-9, id="r25-theta0.5"),
        pytest.param((0.20, 1.0, 0.02), 160, 1e-9, id="r10-theta1"),
        pytest.param((0.50, 0.1, 0.02), 160, 1e-9, id="r25-theta0.1"),
        pytest.param(6, 160, 1e-9, id="network6"),
        pytest.param(8, 160, 1e-9, id="network8"),
        # the strongest chain points of the figures and the benchmark
        pytest.param((0.06, 1.0, 0.05), 40, 1e-12, id="bench-theta1"),
        pytest.param((0.06, 0.5, 0.05), 40, 1e-12, id="bench-theta0.5"),
        pytest.param((0.06, 0.1, 0.05), 40, 1e-12, id="bench-theta0.1"),
    ])
    def test_qme_at_the_drive_order_is_converged(self, case, reference, bound):
        if isinstance(case, int):
            net, mod = random_network(np.random.default_rng(case), case)
        else:
            net, mod = chain(*case)
        got = operating_point(net, mod, "qme")
        ref = operating_point(net, mod, "qme", reference)
        for x, y in ((got.P14, ref.P14), (got.P41, ref.P41)):
            assert abs(x / y - 1.0) <= bound

    def test_qle_spectra_at_the_drive_order_are_converged(self):
        net, mod = chain(0.06, 1.0)
        grid = scenarios.default_spectrum_grid(net, mod,
                                               langevin.drive_order(mod))
        _, fwd, bwd = spectrum_run(net, mod, grid=grid)
        _, fwd16, bwd16 = spectrum_run(net, mod, grid=grid, n_max=16)
        for got, ref in ((fwd, fwd16), (bwd, bwd16)):
            assert np.max(np.abs(got - ref)) <= 1e-9 * ref.max()

    @pytest.fixture
    def orders(self, monkeypatch):
        """The n_max that reaches each solver, in call order."""
        seen = {"qme": [], "qle": []}
        for module, name, method, at in ((master, "power_matrix", "qme", 2),
                                         (langevin, "integrate_power", "qle", 4)):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, fn=fn, m=method, i=at, **k:
                                seen[m].append(a[i]) or fn(*a, **k))
        return seen

    def test_each_solver_reads_its_own_stripes(self, orders):
        # an in-phase drive has no contrast, so the moment stripes vanish,
        # but the amplitude stripes carry beta |c| / Omega = 0.4
        net, _ = chain()
        mod = ModulationProtocol(beta=0.02 * OMEGA0, Omega=DRIVE,
                                 theta=[0.3] * 4, mask=[1] * 4)
        for method in ("qme", "qle"):
            operating_point(net, mod, method, quad_tol=1e-4)
        assert orders == {"qme": [4], "qle": [7]}
        assert master.drive_order(mod) == 4 == sideband_order(0.0)
        assert langevin.drive_order(mod) == 7 == sideband_order(0.4)

    def test_sweep_resolves_the_order_per_point(self, orders):
        # on the chain max|eta| = max(1, 2 |sin(theta / 2)|): r_eff 1 -> 2
        net, mod = chain(0.05, 0.5)
        thetas = np.array([0.1, 1.0]) * np.pi
        rows = sweep(SweepSpec(network=net, modulation=mod, parameter="theta",
                               values=thetas, methods=("qme", "qle"),
                               quad_tol=1e-4))
        assert all(r.status == "ok" for r in rows)
        assert orders == {"qme": [sideband_order(1.0), sideband_order(2.0)],
                          "qle": [sideband_order(1.0)] * 2}
        assert orders["qme"] == [8, 10]

    def test_explicit_order_is_used_as_given(self, orders):
        net, mod = chain(0.05, 0.5)
        for method in ("qme", "qle"):
            operating_point(net, mod, method, 3, quad_tol=1e-4)
        assert orders == {"qme": [3], "qle": [3]}

    def test_order_below_the_drive_is_logged(self, caplog):
        net, mod = chain(0.3, 0.5, drive_frac=0.02)
        with caplog.at_level("WARNING", "floqheat"):
            operating_point(net, mod, "qme", 8, T_hot=3000.0)
            spectrum_run(net, mod, grid=[OMEGA0], n_max=2, T_hot=3000.0)
        notices = [r.getMessage() for r in caplog.records
                   if not r.getMessage().startswith("white-noise")]
        assert notices == ["n_max = 8 below the drive's sideband order 34 (qme)",
                           "n_max = 2 below the drive's sideband order 27 (qle)"]
        assert {r.name for r in caplog.records} == {"floqheat.scenarios"}

    def test_order_below_the_drive_sets_the_status(self):
        # the row keeps its powers and says that its order is short; at
        # the drive's order, at beta = 0 (no sideband couples) and for
        # pert1 (order 1 is the method) it is plain ok
        net, mod = chain(0.05, 0.5)
        below = "ok; n_max below drive order"
        for method in ("qme", "qle"):
            row = operating_point(net, mod, method, 3, quad_tol=1e-4)
            assert row.status == below, method
            assert np.isfinite([row.P14, row.P41]).all()
            assert operating_point(net, mod, method, quad_tol=1e-4).status == "ok"
            assert operating_point(*chain(0.0), method, 1,
                                   quad_tol=1e-4).status == "ok"
        assert operating_point(net, mod, "pert1").status == "ok"
        rows = sweep(SweepSpec(network=net, modulation=mod, parameter="beta",
                               values=[0.0, mod.beta],
                               methods=("qme", "pert1"), n_max=3))
        assert [r.status for r in rows] == ["ok", "ok", below, "ok"]

    def test_unbounded_drive_order_is_refused(self, monkeypatch):
        # at Omega = 1e-6 omega_0 the chain's drive needs 70839 moment and
        # 50115 amplitude sidebands; n_max None refuses before any block
        net, mod = chain(0.05, 0.5, drive_frac=1e-6)
        assert (master.drive_order(mod), langevin.drive_order(mod)) == \
            (70839, 50115)

        def no_solve(*a, **k):
            raise AssertionError("solver reached")
        for module, name in ((master, "power_matrix"),
                             (langevin, "integrate_power"),
                             (langevin, "heat_flux_spectrum"),
                             (langevin, "integration_window")):
            monkeypatch.setattr(module, name, no_solve)
        for method, order in (("qme", 70839), ("qle", 50115)):
            with pytest.raises(ValidationError,
                               match=f"needs {order} sidebands \\({method}\\)"):
                operating_point(net, mod, method)
        with pytest.raises(ValidationError, match="needs 50115 sidebands"):
            spectrum_run(net, mod)
        rows = sweep(SweepSpec(network=net, modulation=mod, parameter="beta",
                               values=[mod.beta], methods=("qme", "qle")))
        assert [r.status for r in rows] == [
            f"error: the drive needs {n} sidebands ({m}), more than "
            f"{MAX_SIDEBAND_ORDER}; pass n_max to truncate explicitly"
            for m, n in (("qme", 70839), ("qle", 50115))]
        assert inspect.signature(master.converged_power_matrix).parameters[
            "n_max_limit"].default == MAX_SIDEBAND_ORDER

    def test_explicit_order_beyond_the_limit_is_used(self, orders):
        net, mod = chain(0.05, 0.5, drive_frac=1e-6)
        operating_point(net, mod, "qme", 3)
        assert orders["qme"] == [3]

    @pytest.mark.parametrize("beta_frac, method, n_max", [
        (0.02, "qme", None),      # the drive's own order
        (0.02, "qme", 8),         # equal to it
        (0.02, "qme", 40),
        (0.02, "pert1", 40),      # pert1 always runs at one sideband
        (0.0, "qme", 1),          # undriven: every order is exact
    ])
    def test_no_notice_at_or_above_the_drive_order(self, caplog, beta_frac,
                                                   method, n_max):
        assert master.drive_order(chain(0.02, 0.5)[1]) == 8
        net, mod = chain(beta_frac, 0.5)
        with caplog.at_level("WARNING", "floqheat"):
            operating_point(net, mod, method, n_max, T_hot=3000.0)
        assert caplog.records == []


def _oracle_one_direction_at_a_time(net, mod, source, observer):
    """The oracle power of one direction as it was computed before the
    per-bath shares: one evolve per hot bath, read from the trapezoid of
    the sampled trajectory."""
    hot = net.with_hot_bath(source, T_HOT)
    avg = timedomain.cycle_averaged_moments(timedomain.evolve_to_cycle(hot, mod))
    occ = avg[observer * (net.N + 1)].real
    return SI.hbar * net.omega[source] * 2.0 * net.kappa[observer] * occ


@pytest.mark.parametrize("beta_frac", [0.01, 0.05])
@pytest.mark.parametrize("theta_pi", [0.1, 0.5, 1.0])
def test_oracle_matches_one_direction_at_a_time(beta_frac, theta_pi):
    # both directions from one shooting period agree with one evolve per
    # direction to rounding
    net, mod = default_chain(beta_frac * scenarios.DEFAULT_OMEGA0,
                             theta_pi * math.pi)
    row = operating_point(net, mod, "oracle")
    assert row.P14 == pytest.approx(
        _oracle_one_direction_at_a_time(net, mod, 0, 3), rel=1e-12, abs=0.0)
    assert row.P41 == pytest.approx(
        _oracle_one_direction_at_a_time(net, mod, 3, 0), rel=1e-12, abs=0.0)


class TestRegimeFindings:
    def test_logged_once_per_operating_point_never_warned(self, caplog):
        # the reference chain at 300 K: hbar*Omega >= 0.1 kB T_hot
        net, mod = chain(0.0, 0.5)
        spec = SweepSpec(network=net, modulation=mod, parameter="beta",
                         values=np.array([0.01, 0.02, 0.03]) * OMEGA0,
                         methods=("qme", "pert1", "pert2", "closed"))
        with warnings.catch_warnings(), caplog.at_level("WARNING", "floqheat"):
            warnings.simplefilter("error")
            rows = sweep(spec)
            spectrum_run(net, mod, grid=[OMEGA0], n_max=1)
        assert all(r.status == "ok" for r in rows)
        # every swept value logs its network's finding once, for all four
        # methods, closed included
        assert len(caplog.records) == 3 + 1
        assert {(r.name, r.getMessage().split(" = ")[0]) for r in caplog.records} \
            == {("floqheat.scenarios", "white-noise regime questionable: hbar*Omega")}

    def test_inside_the_regime_logs_nothing(self, caplog):
        net, mod = chain(0.02, 0.5)
        with caplog.at_level("WARNING", "floqheat"):
            operating_point(net, mod, "pert1", T_hot=3000.0)
        assert caplog.records == []


class TestRectificationCurve:
    def test_antisymmetric_in_dephasing(self):
        for theta_pi in (0.1, 0.3, 0.5):
            net, mod = chain(0.05, theta_pi)
            e_plus = operating_point(net, mod, "qme").E
            net, mod = chain(0.05, -theta_pi)
            e_minus = operating_point(net, mod, "qme").E
            assert abs(e_plus + e_minus) <= 1e-6

    def test_zero_at_mirror_symmetric_points(self):
        for theta_pi in (0.0, 1.0):
            net, mod = chain(0.05, theta_pi)
            assert abs(operating_point(net, mod, "qme").E) <= 1e-9
        net, mod = chain(0.0, 0.5)
        assert abs(operating_point(net, mod, "qme").E) <= 1e-9

    def test_extremum_near_quarter_turn(self):
        # coarse-to-fine scan of theta in (0, pi); |E| peaks within
        # 0.05 pi of pi/2 for moderate drive
        net, mod = chain(0.03, 0.5)
        thetas = np.arange(0.01, 1.0, 0.01) * np.pi
        spec = SweepSpec(network=net, modulation=mod, parameter="theta",
                         values=thetas, methods=("qme",))
        rows = sweep(spec)
        best = max(rows, key=lambda r: abs(r.E))
        assert abs(best.theta - 0.5 * np.pi) <= 0.05 * np.pi

    def test_separation_grows_with_dephasing(self):
        net1, mod1 = chain(0.05, 0.1)
        net5, mod5 = chain(0.05, 0.5)
        d1 = abs(operating_point(net1, mod1, "qme").dP)
        d5 = abs(operating_point(net5, mod5, "qme").dP)
        assert d5 > d1


class TestSpectrumRun:
    def test_static_spectra_coincide(self, chain_static):
        net, mod = chain_static
        grid = OMEGA0 + KAPPA * np.linspace(-5, 5, 101)
        _, fwd, bwd = spectrum_run(net, mod, grid=grid, n_max=4)
        assert np.max(np.abs(fwd - bwd)) <= 1e-12 * fwd.max()

    def test_unsorted_grid_kept_in_given_order(self, chain_modulated):
        from floqheat.langevin import heat_flux_spectrum
        net, mod = chain_modulated
        grid = np.array([OMEGA0 + 2 * KAPPA, OMEGA0 - KAPPA,
                         OMEGA0 + 0.5 * KAPPA])
        out_grid, fwd, bwd = spectrum_run(net, mod, grid=grid, n_max=4)
        assert np.array_equal(out_grid, grid)
        for values, src, obs in ((fwd, 0, 3), (bwd, 3, 0)):
            hot = net.with_hot_bath(src, T_HOT)
            pointwise = [heat_flux_spectrum(hot, mod, src, obs, [w], 4)[0]
                         for w in grid]
            assert np.array_equal(values, pointwise)

    def test_matches_one_spectrum_per_direction(self, chain_modulated):
        # both directions come from one elimination with two observer rows
        from floqheat.langevin import heat_flux_spectrum
        net, mod = chain_modulated
        both = net.with_temperatures([T_HOT, 0.0, 0.0, T_HOT])
        grid, fwd, bwd = spectrum_run(net, mod, n_max=10)
        for values, src, obs in ((fwd, 0, 3), (bwd, 3, 0)):
            alone = heat_flux_spectrum(both, mod, src, obs, grid, 10)
            assert np.max(np.abs(values - alone)) <= 1e-15 * alone.max()

    def test_default_grid_starts_at_zero(self, chain_modulated):
        # at n_max 14 qle's window reaches below omega = 0; the default
        # grid keeps the part at omega >= 0, where spectra are defined
        net, mod = chain_modulated
        assert langevin.integration_window(net, mod, 14)[0] < 0.0
        grid = scenarios.default_spectrum_grid(net, mod, 14)
        assert grid[0] == 0.0 and np.all(np.diff(grid) > 0.0)
        _, fwd, bwd = spectrum_run(net, mod, n_max=14)
        assert np.all(np.isfinite(fwd)) and np.all(np.isfinite(bwd))

    def test_integrals_consistent_with_powers(self, chain_modulated):
        from floqheat.scenarios import default_spectrum_grid
        net, mod = chain_modulated
        grid = default_spectrum_grid(net, mod, 10)
        grid, fwd, bwd = spectrum_run(net, mod, grid=grid, n_max=10)
        row = operating_point(net, mod, "qle", n_max=10)
        int_fwd = np.trapezoid(fwd, grid) / (2 * np.pi)
        int_bwd = np.trapezoid(bwd, grid) / (2 * np.pi)
        assert int_fwd == pytest.approx(row.P14, rel=2e-3)
        assert int_bwd == pytest.approx(row.P41, rel=2e-3)
        assert int_fwd > 1.5 * int_bwd  # strongly nonreciprocal point


class TestCompareMethods:
    def test_nonreciprocal_point_passes(self, chain_modulated):
        net, mod = chain_modulated
        report = compare_methods(net, mod)
        assert isinstance(report, MethodComparison)
        assert report.passed
        assert report.deviations["qme-vs-qle"] <= 5e-3
        assert report.deviations["qme-vs-oracle"] <= 1e-4
        text = "\n".join(report.lines())
        assert "PASS" in text

    def test_static_point_agrees_tightly(self, chain_static):
        net, mod = chain_static
        report = compare_methods(net, mod, n_max=4)
        assert report.passed
        assert report.deviations["qme-vs-qle"] <= 3e-6

    def test_truncation_starvation_fails(self):
        net, mod = chain(0.06, 0.5)
        report = compare_methods(net, mod, n_max=1)
        assert not report.passed
        assert report.deviations["qme-vs-qle"] > 5e-3
        assert "FAIL" in report.lines()[-1]

    def test_zero_powers_agree(self, chain_modulated):
        # with no hot bath every method returns exactly zero; two equal zeros
        # deviate by 0
        net, mod = chain_modulated
        report = compare_methods(net, mod, T_hot=0.0)
        assert report.powers["qme"] == (0.0, 0.0)
        assert report.deviations == {"qme-vs-qle": 0.0, "qme-vs-oracle": 0.0}
        assert report.passed
        assert report.lines()[-1] == "cross-validation PASS"

    def test_nonzero_against_zero_qme_fails(self, chain_modulated, monkeypatch):
        fake = {"qme": (0.0, 0.0), "qle": (1e-20, 0.0), "oracle": (0.0, 0.0)}
        monkeypatch.setattr(scenarios, "_powers",
                            lambda method, *args: (*fake[method], ()))
        report = compare_methods(*chain_modulated)
        assert report.deviations == {"qme-vs-qle": math.inf, "qme-vs-oracle": 0.0}
        assert not report.passed

    def test_findings_logged_once_per_point(self, caplog):
        # one network with both ends hot serves all three methods, so the
        # hbar*Omega finding of the reference point is logged once, not
        # once per method
        with caplog.at_level("WARNING", "floqheat"):
            report = compare_methods(*default_chain(0.05 * OMEGA0))
        assert report.passed
        messages = [r.getMessage() for r in caplog.records]
        assert messages and len(messages) == len(set(messages))

    def test_unprepared_point_fails_every_method(self, chain_modulated):
        report = compare_methods(*chain_modulated, T_hot=-1.0)
        errors = set(report.powers.values())
        assert len(errors) == 1 and isinstance(errors.pop(), str)
        assert set(report.powers) == {"qme", "qle", "oracle"}
        assert report.deviations == {} and not report.passed


class TestWriters:
    """The exact bytes of each CSV format: header, digits (10 after the
    point for inputs, 12 for outputs), 1-based labels and csv quoting."""

    ROW = SweepRow("qle", 8.45e12, 8.45e12, 0.5 * math.pi, 1.5e-22, 1.0e-22,
                   0.2, 5e-23, "error: a, b")

    def test_sweep(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [self.ROW])
        assert path.read_bytes() == (
            b"method,beta_rad_s,Omega_rad_s,theta_rad,P14_W,P41_W,E,dP_W,"
            b"status\r\n"
            b"qle,8.4500000000e+12,8.4500000000e+12,1.5707963268e+00,"
            b"1.500000000000e-22,1.000000000000e-22,2.000000000000e-01,"
            b"5.000000000000e-23,\"error: a, b\"\r\n")

    def test_normalized(self, tmp_path):
        # the row is its own beta = 0 baseline
        path = tmp_path / "norm.csv"
        write_normalized_csv(path, [SweepRow(
            "qme", 0.0, 8.45e12, 0.5 * math.pi, 1.6e-22, 1.2e-22, 1 / 7,
            4e-23)])
        assert path.read_bytes() == (
            b"method,beta_rad_s,Omega_rad_s,theta_rad,P14_W,P41_W,E,dP_W,"
            b"P14_norm,P41_norm,status\r\n"
            b"qme,0.0000000000e+00,8.4500000000e+12,1.5707963268e+00,"
            b"1.600000000000e-22,1.200000000000e-22,1.428571428571e-01,"
            b"4.000000000000e-23,1.00000000,0.75000000,ok\r\n")

    def test_spectrum(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        # one row per grid point
        write_spectrum_csv(path, np.array([1.69e14, 1.7e14]),
                           {(0, 3): [2.5e-36, 3.25e-36]})
        assert path.read_bytes() == (
            b"omega_rad_s,source_bath,observer,spectral_power_W_per_rad_s\r\n"
            b"1.6900000000e+14,1,4,2.500000000000e-36\r\n"
            b"1.7000000000e+14,1,4,3.250000000000e-36\r\n")

    def test_perturbation(self, tmp_path):
        path = tmp_path / "pert.csv"
        write_perturbation_csv(path, [(8.45e11, 0.5 * math.pi, 5.2e-24,
                                       5.3e-24, 5.1e-24, 5.0e-24)])
        assert path.read_bytes() == (
            b"beta,theta,dP_exact_W,dP_pa1_W,dP_pa2_W,dP_closed_W\r\n"
            b"8.4500000000e+11,1.5707963268e+00,5.200000000000e-24,"
            b"5.300000000000e-24,5.100000000000e-24,5.000000000000e-24\r\n")

    @staticmethod
    def read_back(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_spectrum_from_a_solve(self, tmp_path, chain_modulated):
        # both directions of a real qle spectrum: one row per frequency and
        # direction, 1-based labels, and the values to the 12 digits written
        net, mod = chain_modulated
        grid = np.array([OMEGA0 - KAPPA, OMEGA0, OMEGA0 + KAPPA])
        spectra = {(s, o): langevin.heat_flux_spectrum(
            net.with_hot_bath(s, T_HOT), mod, s, o, grid, 2)
            for s, o in ((0, 3), (3, 0))}
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(path, grid, spectra)
        header, *rows = self.read_back(path)
        assert header == ["omega_rad_s", "source_bath", "observer",
                          "spectral_power_W_per_rad_s"]
        assert len(rows) == 2 * grid.size
        for (s, o), spectrum in spectra.items():
            mine = [r for r in rows if (r[1], r[2]) == (str(s + 1), str(o + 1))]
            assert [float(r[0]) for r in mine] == pytest.approx(grid, rel=1e-10)
            assert [float(r[3]) for r in mine] == pytest.approx(spectrum, rel=1e-12)

    def test_perturbation_from_a_solve(self, tmp_path):
        # one row of dP by every method at one chain point, as the
        # perturbation demo writes it
        net, mod = default_chain(0.01 * scenarios.DEFAULT_OMEGA0, 0.5 * math.pi)
        record = (mod.beta, 0.5 * math.pi,
                  *(operating_point(net, mod, m).dP
                    for m in ("qme", "pert1", "pert2", "closed")))
        path = tmp_path / "pert.csv"
        write_perturbation_csv(path, [record])
        header, *rows = self.read_back(path)
        assert header == ["beta", "theta", "dP_exact_W", "dP_pa1_W",
                          "dP_pa2_W", "dP_closed_W"]
        assert len(rows) == 1
        assert [float(v) for v in rows[0]] == pytest.approx(record, rel=1e-10)
