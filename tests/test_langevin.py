import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import floqheat
from floqheat import (ModulationProtocol, QuadratureError, ResonatorNetwork,
                      SI, langevin, occupation)
from floqheat.langevin import (assemble_A, drive_order, emitted_power,
                               heat_flux_spectrum, integrate_power,
                               integration_window, spectral_correlations,
                               _bath_weights, _quad, _response_rows,
                               _sideband_blocks)
from floqheat.master import power_matrix
from floqheat.model import ValidationError
from floqheat.scenarios import write_spectrum_csv

from conftest import (KAPPA, OMEGA0, T_HOT, assemble_dense, chain,
                      random_network, sideband_ladder)


def toy_network():
    """Two resonators at omega 10 and 11 driven at Omega = 4: qle's window
    at the drive's order reaches below omega = 0."""
    net = ResonatorNetwork(omega=[10.0, 11.0], g=[[0.0, 0.3], [0.3, 0.0]],
                           kappa=[1.0, 1.2], T=[T_HOT, 0.0])
    mod = ModulationProtocol(beta=2.0, Omega=4.0, theta=[0.0, 1.0], mask=[1, 1])
    return net, mod


def solo_resonator(T=T_HOT):
    net = ResonatorNetwork(omega=[OMEGA0], g=[[0.0]], kappa=[KAPPA], T=[T])
    mod = ModulationProtocol(beta=0.0, Omega=0.05 * OMEGA0, theta=[0.0], mask=[0])
    return net, mod


class TestAssembleA:
    def test_single_resonator_on_resonance(self):
        net, _ = solo_resonator()
        a = assemble_A(net, OMEGA0)
        assert a.shape == (1, 1)
        assert a[0, 0] == pytest.approx(KAPPA)

    def test_uncoupled_is_diagonal(self):
        rng = np.random.default_rng(2)
        omega = OMEGA0 * (1 + 0.02 * rng.standard_normal(3))
        kappa = OMEGA0 * rng.uniform(0.005, 0.02, 3)
        net = ResonatorNetwork(omega=omega, g=np.zeros((3, 3)), kappa=kappa,
                               T=np.zeros(3))
        w = 0.99 * OMEGA0
        a = assemble_A(net, w)
        assert np.allclose(a, np.diag(1j * (omega - w) + kappa))

    def test_chain_structure(self, chain_static):
        net, _ = chain_static
        a = assemble_A(net, OMEGA0)
        g = net.g[0, 1]
        assert np.allclose(np.diag(a), KAPPA)
        for i, j in ((0, 1), (1, 2), (2, 3)):
            assert a[i, j] == pytest.approx(1j * g)
            assert a[j, i] == pytest.approx(1j * g)
        assert a[0, 2] == 0 and a[0, 3] == 0


def reference_operator(net, mod, omega, n_max):
    """Sideband operator with each diagonal block A(omega + m Omega) assembled
    on its own, m = n_max in the top block row down to -n_max.

    Row of sideband m couples with (i beta / 2) Q_+ to sideband m + 1, one
    block row up (``lower`` stripe), and with (i beta / 2) Q_- to m - 1.
    """
    diag = [assemble_A(net, omega + m * mod.Omega)
            for m in range(n_max, -n_max - 1, -1)]
    q_plus = 0.5j * mod.beta * np.diag(mod.mask * np.exp(1j * mod.theta))
    q_minus = 0.5j * mod.beta * np.diag(mod.mask * np.exp(-1j * mod.theta))
    return assemble_dense(diag, [q_minus] * (2 * n_max),
                          [q_plus] * (2 * n_max))


def batched_operators(net, mod, omega, n_max):
    """Dense sideband operators at the frequencies omega, written out from
    the frequency-stacked static blocks and the two diagonal stripes that
    the batched elimination works on."""
    static, Omega, n, upper, lower = _sideband_blocks(
        net, mod, np.asarray(omega, float), n_max)
    return [assemble_dense(sideband_ladder(s, Omega, n),
                           [np.diag(upper)] * (2 * n), [np.diag(lower)] * (2 * n))
            for s in static]


def max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestSidebandSystem:
    def test_operator_matches_per_block_reference(self, chain_modulated):
        rng = np.random.default_rng(21)
        grid = [OMEGA0 + 0.3 * KAPPA, 0.97 * OMEGA0]
        for net, mod in (chain_modulated, random_network(rng, 3)):
            for n_max in (3, 10):
                ops = batched_operators(net, mod, grid, n_max)
                for w, op in zip(grid, ops):
                    assert max_rel(op, reference_operator(net, mod, w, n_max)) <= 1e-15

    def test_zero_drive_is_block_diagonal(self, chain_static):
        net, mod = chain_static
        op, = batched_operators(net, mod, [OMEGA0], 2)
        for r in range(5):
            off = np.delete(op[4 * r:4 * r + 4], np.s_[4 * r:4 * r + 4], axis=1)
            assert np.all(off == 0.0)

    def test_order_zero(self, chain_modulated):
        net, mod = chain_modulated
        op, = batched_operators(net, mod, [OMEGA0], 0)
        assert np.array_equal(op, assemble_A(net, OMEGA0))

    def test_two_resonator_block_count(self):
        net = ResonatorNetwork(omega=[OMEGA0, OMEGA0],
                               g=[[0, 2e10], [2e10, 0]],
                               kappa=[KAPPA, KAPPA], T=[0.0, 0.0])
        mod = ModulationProtocol(beta=0.02 * OMEGA0, Omega=0.05 * OMEGA0,
                                 theta=[0.0, 0.4], mask=[1, 1])
        op, = batched_operators(net, mod, [OMEGA0], 1)
        assert op.shape == (6, 6)
        nonzero = 0
        for r in range(3):
            for c in range(3):
                if r == c:
                    continue
                if np.any(op[2 * r:2 * r + 2, 2 * c:2 * c + 2] != 0):
                    nonzero += 1
        assert nonzero == 4

    def test_block_ordering_top_is_highest_sideband(self, chain_modulated):
        net, mod = chain_modulated
        w = OMEGA0 + 1.7 * KAPPA
        op, = batched_operators(net, mod, [w], 2)
        assert np.allclose(op[:4, :4], assemble_A(net, w + 2 * mod.Omega),
                           rtol=1e-15, atol=0.0)
        assert np.allclose(op[16:, 16:], assemble_A(net, w - 2 * mod.Omega),
                           rtol=1e-15, atol=0.0)

    def test_response_rows_match_inverse(self, chain_modulated):
        # the solved rows against an explicit inverse of the per-block
        # reference operator
        rng = np.random.default_rng(22)
        grid, n_max = np.array([OMEGA0 + 0.3 * KAPPA, 0.97 * OMEGA0]), 3
        for net, mod in (chain_modulated, random_network(rng, 3)):
            observers = list(range(net.N))
            batch = _response_rows(net, mod, grid, n_max, observers)
            for w, rows in zip(grid, batch.reshape(grid.size, net.N, -1)):
                inverse = np.linalg.inv(reference_operator(net, mod, w, n_max))
                expected = inverse[[n_max * net.N + l for l in observers]]
                assert max_rel(rows, expected) <= 1e-12

    def test_elimination_bounded_in_frequencies(self, chain_modulated,
                                                monkeypatch):
        # each elimination takes _CHUNK frequencies: its factors do not
        # depend on how many observers share it
        net, mod = chain_modulated
        sizes = []
        solve = langevin._response_rows
        monkeypatch.setattr(langevin, "_response_rows", lambda net, mod, w, *a:
                            sizes.append(w.size) or solve(net, mod, w, *a))
        grid = OMEGA0 + KAPPA * np.linspace(-5, 5, 300)
        for observers in ([3], [3, 0], [0, 1, 2, 3]):
            sizes.clear()
            weights = _bath_weights(net, mod, grid, 2, observers)
            assert weights.shape == (grid.size, len(observers), net.N)
            assert max(sizes) == langevin._CHUNK
            assert sum(sizes) == grid.size

    def test_invalid_network_rejected(self, chain_modulated):
        net, mod = chain_modulated
        with pytest.raises(ValidationError, match="kappa"):
            ResonatorNetwork(omega=net.omega, g=net.g, kappa=np.zeros(4),
                             T=net.T)
        # a valid protocol of the wrong length is left to the solvers
        short = ModulationProtocol(beta=mod.beta, Omega=mod.Omega,
                                   theta=[0.0, 0.0], mask=[1, 1])
        with pytest.raises(ValidationError):
            spectral_correlations(net, short, OMEGA0, 2)
        with pytest.raises(ValidationError):
            heat_flux_spectrum(net, short, 0, 3, [OMEGA0], 2)


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda net, mod: integrate_power(net, mod, 0, 3, -1), "nonnegative"),
        (lambda net, mod: emitted_power(net, mod, 0, -1), "nonnegative"),
        (lambda net, mod: spectral_correlations(net, mod, OMEGA0, -1),
         "nonnegative"),
        (lambda net, mod: heat_flux_spectrum(net, mod, 0, 3, [OMEGA0], -1),
         "nonnegative"),
        (lambda net, mod: integration_window(net, mod, -1), "nonnegative"),
        (lambda net, mod: power_matrix(net, mod, -1), "nonnegative"),
        (lambda net, mod: integrate_power(net, mod, 0, 3, 3.0), "an integer"),
        (lambda net, mod: emitted_power(net, mod, 0, 2.5), "an integer"),
        (lambda net, mod: spectral_correlations(net, mod, OMEGA0, 2.5),
         "an integer"),
        (lambda net, mod: heat_flux_spectrum(net, mod, 0, 3, [OMEGA0], 2.5),
         "an integer"),
        (lambda net, mod: integration_window(net, mod, 2.5), "an integer"),
        (lambda net, mod: power_matrix(net, mod, 2.0), "an integer"),
    ], ids=["integrate_power", "emitted_power", "spectral_correlations",
            "heat_flux_spectrum", "integration_window", "power_matrix",
            "integrate_power-float", "emitted_power-float",
            "spectral_correlations-float", "heat_flux_spectrum-float",
            "integration_window-float", "power_matrix-float"])
    def test_negative_order_rejected(self, chain_modulated, call, message):
        net, mod = chain_modulated
        with pytest.raises(ValueError, match="n_max must be " + message):
            call(net.with_hot_bath(0, T_HOT), mod)

    @pytest.mark.parametrize("source, observer",
                             [(0, -1), (0, 4), (7, 0), (-1, 2), (0, 3.0),
                              (2.0, 0)])
    def test_bath_index_out_of_range(self, chain_modulated, source, observer):
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        with pytest.raises(ValueError, match="bath index"):
            integrate_power(hot, mod, source, observer, 4)
        with pytest.raises(ValueError, match="bath index"):
            heat_flux_spectrum(hot, mod, source, observer, [OMEGA0], 4)
        if isinstance(source, float) or not 0 <= source < net.N:
            with pytest.raises(ValueError, match="bath index"):
                emitted_power(hot, mod, source, 4)

    @pytest.mark.parametrize("source, observer, message", [
        (0, [3], "equal-length"), ([0, 3], [3], "equal-length"),
        ([[0]], [[3]], "equal-length"), ([0, 3], [3, 3], "must differ"),
        ([0, 4], [3, 0], "bath index")])
    def test_pair_sequences_checked(self, chain_modulated, source, observer,
                                    message):
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        with pytest.raises(ValueError, match=message):
            integrate_power(hot, mod, source, observer, 4)
        with pytest.raises(ValueError, match=message):
            heat_flux_spectrum(hot, mod, source, observer, [OMEGA0], 4)

    def test_numpy_integer_indices_accepted(self, chain_modulated):
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        grid = [OMEGA0]
        assert np.array_equal(
            heat_flux_spectrum(hot, mod, np.int64(0), np.int64(3), grid, 4),
            heat_flux_spectrum(hot, mod, 0, 3, grid, 4))

    @pytest.mark.parametrize("call, message", [
        (lambda net, mod: spectral_correlations(net, mod, float("nan"), 4),
         "finite and nonnegative"),
        (lambda net, mod: spectral_correlations(net, mod, -OMEGA0, 4),
         "finite and nonnegative"),
        (lambda net, mod: spectral_correlations(net, mod, [OMEGA0], 4),
         "scalar"),
        (lambda net, mod: heat_flux_spectrum(net, mod, 0, 3, [OMEGA0, np.inf], 4),
         "finite and nonnegative"),
        (lambda net, mod: heat_flux_spectrum(net, mod, 0, 3, [-OMEGA0], 4),
         "finite and nonnegative"),
        (lambda net, mod: heat_flux_spectrum(net, mod, 0, 3, [np.nan], 4),
         "finite and nonnegative"),
        (lambda net, mod: heat_flux_spectrum(net, mod, 0, 3, OMEGA0, 4),
         "one-dimensional"),
        (lambda net, mod: heat_flux_spectrum(net, mod, 0, 3, [[OMEGA0]], 4),
         "one-dimensional"),
    ], ids=["correlations-nan", "correlations-negative", "correlations-array",
            "flux-inf", "flux-negative", "flux-nan", "flux-0d", "flux-2d"])
    def test_bad_frequencies_rejected(self, chain_modulated, call, message):
        net, mod = chain_modulated
        with pytest.raises(ValueError, match=message):
            call(net.with_hot_bath(0, T_HOT), mod)

    def test_zero_frequency_allowed(self, chain_modulated):
        # default spectrum grids start at omega = 0 where qle's window
        # reaches below it
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        values = heat_flux_spectrum(hot, mod, 0, 3, [0.0, OMEGA0], 4)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert np.all(spectral_correlations(hot, mod, 0.0, 4) >= 0.0)


class TestSpectralCorrelations:
    def test_single_resonator_lorentzian(self):
        net, mod = solo_resonator()
        n1 = occupation(T_HOT, OMEGA0)
        for detune in (0.0, 0.5 * KAPPA, -3.0 * KAPPA, 20.0 * KAPPA):
            w = OMEGA0 + detune
            s = spectral_correlations(net, mod, w, 2)
            expected = 2 * KAPPA * n1 / (detune**2 + KAPPA**2)
            assert s[0, 0] == pytest.approx(expected, rel=1e-12)
        assert spectral_correlations(net, mod, OMEGA0, 2)[0, 0] == pytest.approx(
            2 * n1 / KAPPA, rel=1e-12)

    def test_cold_bath_contributes_nothing(self, chain_modulated):
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        s = spectral_correlations(hot, mod, OMEGA0, 4)
        assert np.all(s[:, 1:] == 0.0)
        assert np.all(s[:, 0] > 0.0)

    def test_static_reduction_to_response_formula(self):
        rng = np.random.default_rng(9)
        net, mod = random_network(rng, 3)
        static = ModulationProtocol(beta=0.0, Omega=mod.Omega,
                                    theta=mod.theta, mask=mod.mask)
        nvec = net.occupations()
        for w in OMEGA0 * (1.0 + 0.02 * rng.standard_normal(5)):
            s = spectral_correlations(net, static, w, 3)
            ainv = np.linalg.inv(assemble_A(net, w))
            expected = 2 * net.kappa[None, :] * nvec[None, :] * np.abs(ainv) ** 2
            assert np.max(np.abs(s - expected)) <= 1e-12 * expected.max()

    def test_positivity_under_modulation(self):
        rng = np.random.default_rng(10)
        for _ in range(4):
            net, mod = random_network(rng, 3)
            for w in OMEGA0 * (1.0 + 0.05 * rng.standard_normal(8)):
                s = spectral_correlations(net, mod, w, 5)
                assert np.all(s >= 0.0)


class TestHeatFluxSpectrum:
    def test_reciprocal_without_drive(self, chain_static):
        net, mod = chain_static
        grid = OMEGA0 + KAPPA * np.linspace(-10, 10, 41)
        fwd = heat_flux_spectrum(net.with_hot_bath(0, T_HOT), mod, 0, 3, grid, 4)
        bwd = heat_flux_spectrum(net.with_hot_bath(3, T_HOT), mod, 3, 0, grid, 4)
        assert np.max(np.abs(fwd - bwd)) <= 1e-12 * fwd.max()

    def test_nonreciprocal_with_synthetic_field(self, chain_modulated):
        net, mod = chain_modulated
        grid = OMEGA0 + KAPPA * np.linspace(-6, 6, 31)
        fwd = heat_flux_spectrum(net.with_hot_bath(0, T_HOT), mod, 0, 3, grid, 10)
        bwd = heat_flux_spectrum(net.with_hot_bath(3, T_HOT), mod, 3, 0, grid, 10)
        assert np.max(np.abs(fwd - bwd)) > 0.05 * fwd.max()

    def test_sidebands_are_weak(self, chain_modulated):
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        main = heat_flux_spectrum(hot, mod, 0, 3, [OMEGA0], 10)[0]
        for m in (-2, -1, 1, 2):
            side = heat_flux_spectrum(hot, mod, 0, 3, [OMEGA0 + m * mod.Omega], 10)[0]
            assert side < 0.05 * main

    def test_uncoupled_chain_is_dark(self):
        net, mod = chain(0.05, 0.5)
        dark = ResonatorNetwork(omega=net.omega, g=np.zeros((4, 4)),
                                kappa=net.kappa, T=net.T).with_hot_bath(0, T_HOT)
        grid = OMEGA0 + KAPPA * np.linspace(-3, 3, 11)
        assert np.all(heat_flux_spectrum(dark, mod, 0, 3, grid, 4) == 0.0)

    def test_source_equals_observer_rejected(self, chain_static):
        net, mod = chain_static
        with pytest.raises(ValueError):
            heat_flux_spectrum(net, mod, 2, 2, [OMEGA0], 2)

    def test_unsorted_grid_kept_in_given_order(self, chain_modulated):
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        grid = [OMEGA0 + 2 * KAPPA, OMEGA0 - KAPPA, OMEGA0 + 0.5 * KAPPA]
        pref = SI.hbar * net.omega[0] * 2 * net.kappa[3]
        expected = [pref * spectral_correlations(hot, mod, w, 4)[3, 0]
                    for w in grid]
        values = heat_flux_spectrum(hot, mod, 0, 3, grid, 4)
        assert max_rel(values, np.array(expected)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
           offsets=st.lists(st.floats(-0.1, 0.1), min_size=1, max_size=4))
    def test_matches_correlations_and_nonnegative(self, seed, n, offsets):
        net, mod = random_network(np.random.default_rng(seed), n)
        source = int(np.argmax(net.T))
        observer = (source + 1) % n
        grid = OMEGA0 * (1.0 + np.array(offsets))
        values = heat_flux_spectrum(net, mod, source, observer, grid, 3)
        pref = SI.hbar * net.omega[source] * 2 * net.kappa[observer]
        expected = [pref * spectral_correlations(net, mod, w, 3)[observer, source]
                    for w in grid]
        assert np.all(values >= 0.0)
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0)


class TestPowers:
    def test_static_chain_matches_fourier_solver(self, chain_static):
        net, mod = chain_static
        hot = net.with_hot_bath(0, T_HOT)
        reference = power_matrix(hot, mod, 4).P[0, 3]
        value = integrate_power(hot, mod, 0, 3, 6, quad_tol=1e-8)
        assert value == pytest.approx(reference, rel=1e-6)

    def test_two_resonator_cross_solver(self):
        # the minimal transport problem, solved by both machineries
        net = ResonatorNetwork(omega=[OMEGA0, 1.001 * OMEGA0],
                               g=[[0, 3e10], [3e10, 0]],
                               kappa=[KAPPA, 0.8 * KAPPA],
                               T=[T_HOT, 0.0])
        mod = ModulationProtocol(beta=0.0, Omega=0.05 * OMEGA0,
                                 theta=[0.0, 0.0], mask=[0, 0])
        reference = power_matrix(net, mod, 2).P[0, 1]
        value = integrate_power(net, mod, 0, 1, 2, quad_tol=1e-8)
        assert value == pytest.approx(reference, rel=1e-6)

    def test_cold_source_transfers_nothing(self, chain_modulated):
        net, mod = chain_modulated
        assert integrate_power(net, mod, 0, 3, 4) == 0.0
        assert emitted_power(net, mod, 0, 4) == 0.0

    def test_reciprocity_without_synthetic_field(self):
        for theta_pi in (0.0, 1.0):
            net, mod = chain(0.04, theta_pi)
            p14 = integrate_power(net.with_hot_bath(0, T_HOT), mod, 0, 3, 8)
            p41 = integrate_power(net.with_hot_bath(3, T_HOT), mod, 3, 0, 8)
            assert abs(p14 - p41) <= 3e-6 * p14

    def test_single_bath_emits_nothing_net(self):
        net, mod = solo_resonator()
        assert emitted_power(net, mod, 0, 3, quad_tol=1e-7) == 0.0

    def test_uncoupled_hot_chain_emits_nothing(self):
        net, mod = chain(0.03, 0.5)
        dark = ResonatorNetwork(omega=net.omega, g=np.zeros((4, 4)),
                                kappa=net.kappa, T=net.T).with_hot_bath(0, T_HOT)
        assert emitted_power(dark, mod, 0, 6) == pytest.approx(0.0, abs=1e-30)

    def test_conservation_across_drive_strengths(self):
        for beta_frac in (0.0, 0.02, 0.05):
            net, mod = chain(beta_frac, 0.5)
            hot = net.with_hot_bath(0, T_HOT)
            quad_tol = 1e-6
            p_em = emitted_power(hot, mod, 0, 10, quad_tol)
            total = sum(integrate_power(hot, mod, 0, l, 10, quad_tol)
                        for l in (1, 2, 3))
            assert abs(p_em - total) <= 3 * quad_tol * p_em

    def test_truncation_converged_for_every_receiver(self, chain_modulated):
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        for observer in (1, 2, 3):
            p10 = integrate_power(hot, mod, 0, observer, 10)
            p12 = integrate_power(hot, mod, 0, observer, 12)
            assert abs(p12 - p10) <= 1e-3 * p10

    def test_window_below_zero_agrees_with_qme(self):
        # the window at the drive's order reaches below omega = 0, where the
        # spectrum carries 3.8e-4 of the power; what the 30-linewidth margin
        # leaves out is 2.4e-6
        net, mod = toy_network()
        assert integration_window(net, mod, drive_order(mod))[0] < 0.0
        qle = integrate_power(net, mod, 0, 1, drive_order(mod), 1e-6)
        qme = power_matrix(net, mod, 60).P[0, 1]
        assert abs(qle / qme - 1.0) <= 1e-5

    def test_nonconvergence_reported_with_estimate(self, chain_static):
        # an integrand oscillating far below the panel scale exhausts the
        # subdivision budget; the failure must carry the partial answer
        net, mod = chain_static

        def ragged(w):
            return 2.0 + np.sin(50.0 * w / KAPPA)

        with pytest.raises(QuadratureError) as err:
            _quad(ragged, net, mod, 4, 1e-10)
        assert err.value.estimate != 0.0
        assert err.value.bound > 0.0

    def test_quad_tol_must_be_positive(self, chain_static):
        # nan would refine to the panel limit and report a stalled
        # quadrature, inf would accept the first estimate unrefined
        net, mod = chain_static
        hot = net.with_hot_bath(0, T_HOT)
        for quad_tol in (0.0, -1e-6, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                integrate_power(hot, mod, 0, 3, 4, quad_tol=quad_tol)
            with pytest.raises(ValueError, match="positive and finite"):
                emitted_power(hot, mod, 0, 4, quad_tol=quad_tol)

    @pytest.mark.parametrize("theta_pi", [0.1, 0.5])
    @pytest.mark.parametrize("beta_frac", [0.01, 0.05])
    def test_pairs_match_one_quadrature_each(self, theta_pi, beta_frac):
        # both directions share one panel tree; each still meets its own
        # tolerance, so they agree with their separate quadratures within it
        net, mod = chain(beta_frac, theta_pi)
        both = net.with_temperatures([T_HOT, 0.0, 0.0, T_HOT])
        quad_tol = 1e-6
        pair = integrate_power(both, mod, (0, 3), (3, 0), 10, quad_tol)
        assert pair.shape == (2,)
        for value, (source, observer) in zip(pair, ((0, 3), (3, 0))):
            alone = integrate_power(both, mod, source, observer, 10, quad_tol)
            assert abs(value - alone) <= quad_tol * alone

    def test_cold_pairs_transfer_nothing(self, chain_modulated):
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        pair = integrate_power(hot, mod, [0, 3], [3, 0], 4)
        assert pair[1] == 0.0
        assert pair[0] == pytest.approx(integrate_power(hot, mod, 0, 3, 4),
                                        rel=1e-6)
        assert np.array_equal(integrate_power(net, mod, [0, 3], [3, 0], 4),
                              [0.0, 0.0])

    def test_every_component_meets_its_tolerance(self, chain_static):
        # a flat component is exact on the first panels; a narrow Lorentzian
        # between two panel points needs refinement that the flat one's
        # convergence must not cut short, in either order
        net, mod = chain_static
        lo, hi, _ = integration_window(net, mod, 4)
        centre, width = OMEGA0 + 0.37 * mod.Omega, 0.1 * KAPPA
        exact = (np.arctan((hi - centre) / width)
                 - np.arctan((lo - centre) / width))

        def lorentzian(w):
            return width / ((w - centre) ** 2 + width ** 2)

        quad_tol = 1e-8
        for flip in (False, True):
            parts = (np.ones_like, lorentzian)[::-1 if flip else 1]
            value = _quad(lambda w: np.stack([p(w) for p in parts], axis=-1),
                          net, mod, 4, quad_tol)
            expected = np.array((hi - lo, exact))[::-1 if flip else 1]
            assert np.all(np.abs(value - expected) <= quad_tol * expected)

    def test_stalled_component_named(self, chain_static):
        # of two components sharing the panels, the ragged second one cannot
        # converge; the error names it and carries its estimate and bound
        net, mod = chain_static
        lo, hi, _ = integration_window(net, mod, 4)

        def smooth_and_ragged(w):
            return np.stack((np.ones_like(w), 2.0 + np.sin(50.0 * w / KAPPA)),
                            axis=-1)

        with pytest.raises(QuadratureError, match="stalled on component 1") as err:
            _quad(smooth_and_ragged, net, mod, 4, 1e-10)
        assert err.value.estimate == pytest.approx(2.0 * (hi - lo), rel=1e-2)
        assert err.value.bound > 1e-10 * err.value.estimate
        assert f"{err.value.estimate:.6e}" in str(err.value)


def transfers(net, mod):
    """R[k, l] = P[k, l] / (hbar omega_k n_k): qle at the drive's order and
    quad_tol 1e-8, per unit occupation of the source bath; R[k, k] = 0."""
    sources, observers = zip(*((k, l) for k in range(net.N)
                               for l in range(net.N) if k != l))
    R = np.zeros((net.N, net.N))
    R[sources, observers] = integrate_power(net, mod, sources, observers,
                                            drive_order(mod), quad_tol=1e-8)
    return R / (SI.hbar * net.omega * net.occupations())[:, None]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_time_reversal(seed, n):
    # Onsager-Casimir, as for qme in test_master.py: R(theta, g) =
    # R(-theta, g*)^T, here within ten times the quadrature tolerance
    net, mod = random_network(np.random.default_rng(seed), n)
    net = net.with_temperatures(np.full(n, T_HOT))
    R = transfers(net, mod)
    back = transfers(dataclasses.replace(net, g=net.g.conj()),
                     dataclasses.replace(mod, theta=-mod.theta))
    assert np.abs(R - back.T).max() <= 10 * 1e-8 * np.abs(R).max()


class TestQuadratureCalibration:
    """``_gk15``'s error estimate against each panel's true error.

    ``integrate_power`` runs at quad_tol 1e-3, 1e-6 and 1e-9, and at 1e-12
    for the reference.  Every ``stride``-th panel evaluated at the first
    three, in order along the axis, is checked against its truth, the panel
    split into 16 GK15 sub-panels: the estimate may fall short of the true
    error only by the integrand's own round-off, 1e-13 of the panel.  A
    panel evaluated again at a later tolerance is taken from its first
    evaluation, which returns the same numbers.
    """

    TOLS = (1e-3, 1e-6, 1e-9)

    def calibrate(self, monkeypatch, power, stride=1):
        """Check one integrand, ``power(quad_tol)``; returns its nodes per
        tolerance."""
        gk15, panels, evaluated, integrand = langevin._gk15, {}, [], []

        def recording(fn, a, b, rho):
            evaluated.append(15 * a.size)
            new = np.array([key not in panels for key in zip(a, b)])
            if new.any():
                part, err = gk15(fn, a[new], b[new], rho[new])
                panels.update(zip(zip(a[new], b[new]), zip(part, err)))
            integrand[:] = [fn]
            part, err = zip(*(panels[key] for key in zip(a, b)))
            return np.array(part), np.array(err)

        def run(tol):
            evaluated.clear()
            return power(tol), sum(evaluated)

        monkeypatch.setattr(langevin, "_gk15", recording)
        values, nodes = {}, {}
        for tol in self.TOLS:
            values[tol], nodes[tol] = run(tol)
        keys = sorted(panels)[::stride]
        reference, _ = run(1e-12)
        monkeypatch.undo()

        a, b = (np.array(x) for x in zip(*keys))
        part, err = (np.array(x) for x in zip(*(panels[key] for key in keys)))
        edges = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 17)
        sub, _ = gk15(integrand[0], edges[:, :-1].ravel(), edges[:, 1:].ravel(),
                      np.ones(16 * a.size))
        truth = sub.reshape(part.shape[:1] + (16,) + part.shape[1:]).sum(axis=1)
        assert np.all(err >= np.abs(part - truth) - 1e-13 * np.abs(truth))
        for tol in self.TOLS:
            assert np.all(np.abs(values[tol] - reference) <= tol * reference)
        return nodes

    def calibrate_pairs(self, monkeypatch, net, mod, sources, observers,
                        n_max=None, stride=1):
        n_max = drive_order(mod) if n_max is None else n_max
        return self.calibrate(monkeypatch, lambda tol: integrate_power(
            net, mod, sources, observers, n_max, tol), stride)

    def test_reference_chain(self, monkeypatch):
        # both directions in one call, as the bench and fig3a run them
        nodes = 0
        for beta_frac in (0.01, 0.05):
            for theta_pi in (0.5, 1.0, -0.7):
                net, mod = chain(beta_frac, theta_pi)
                both = net.with_temperatures([T_HOT, 0.0, 0.0, T_HOT])
                nodes += self.calibrate_pairs(monkeypatch, both, mod, (0, 3),
                                              (3, 0))[1e-6]
        # the QUADPACK estimate needed 3180 nodes on these six points
        assert nodes <= 0.65 * 3180

    def test_random_networks(self, monkeypatch):
        # every sixteenth panel keeps the 16-fold truth affordable at N = 2-6
        rng = np.random.default_rng(11)
        for i in range(20):
            n = 2 + i % 5
            net, mod = random_network(rng, n)
            source = int(np.flatnonzero(net.T)[0])
            self.calibrate_pairs(monkeypatch, net, mod, [source],
                                 [(source + 1) % n], stride=16)

    def test_strong_drive(self, monkeypatch):
        # 16 to 21 sidebands: every second panel
        for beta_frac in (0.12, 0.2):
            net, mod = chain(beta_frac, 0.5, drive_frac=0.02)
            both = net.with_temperatures([T_HOT, 0.0, 0.0, T_HOT])
            self.calibrate_pairs(monkeypatch, both, mod, (0, 3), (3, 0),
                                 stride=2)

    def test_window_below_zero(self, monkeypatch):
        net, mod = toy_network()
        assert integration_window(net, mod, drive_order(mod))[0] < 0.0
        self.calibrate_pairs(monkeypatch, net, mod, 0, 1)

    def test_cancelling_pole_pairs(self, monkeypatch):
        # panels where the poles of a conjugate pair cancel in K15 - G7; from
        # |K15 - G7| alone, without the Legendre amplitude, the estimate
        # read 16x, 9x and 2800x under the true error on these three
        net, mod = random_network(np.random.default_rng(3), 3)
        self.calibrate_pairs(monkeypatch, net, mod, [0], [1])
        net, mod = random_network(np.random.default_rng(39), 2)
        self.calibrate(monkeypatch, lambda tol: emitted_power(
            net, mod, 0, drive_order(mod), tol))
        net, mod = random_network(np.random.default_rng(24), 3)
        self.calibrate_pairs(monkeypatch, net, mod, [1], [2], n_max=2)

    def test_wide_panels_take_qk15(self, monkeypatch):
        # below rho = 2 the rate is not yet asymptotic: trusting rho^-9 on
        # this network's panels read 3.4x under the true error
        net, mod = random_network(np.random.default_rng(4), 3)
        self.calibrate_pairs(monkeypatch, net, mod, [0], [1], n_max=2)


class TestWindowAndExport:
    def test_window_covers_peaks(self, chain_modulated):
        net, mod = chain_modulated
        lo, hi, points = integration_window(net, mod, 10)
        assert lo < OMEGA0 - 10 * mod.Omega < OMEGA0 + 10 * mod.Omega < hi
        assert len(points) == 21
        assert np.all(np.diff(points) > 0)

    def test_occupation_spectrum_totals(self, chain_modulated):
        # the occupation spectrum on a grid, from one elimination per chunk,
        # is spectral_correlations at each frequency; cold baths between two
        # warm ones stay dark, and the flux spectrum is one of its slices
        net, mod = chain_modulated
        warm = net.with_temperatures([250.0, 0.0, 0.0, 150.0])
        grid = OMEGA0 + KAPPA * np.linspace(-2, 2, 7)
        noise = 2.0 * warm.kappa * warm.occupations()
        spec = _bath_weights(warm, mod, grid, 4, range(warm.N)) * noise
        direct = np.array([spectral_correlations(warm, mod, w, 4) for w in grid])
        assert np.allclose(spec, direct)
        assert np.all(spec[:, :, 1:3] == 0.0)
        assert np.all(spec[:, :, [0, 3]] > 0.0)
        flux = heat_flux_spectrum(warm, mod, 0, 3, grid, 4)
        pref = SI.hbar * warm.omega[0] * 2.0 * warm.kappa[3]
        assert np.allclose(flux, pref * direct[:, 3, 0], rtol=1e-12, atol=0.0)

    def test_spectrum_csv_format(self, tmp_path, chain_modulated):
        net, mod = chain_modulated
        grid = np.array([OMEGA0 - KAPPA, OMEGA0, OMEGA0 + KAPPA])
        fwd = heat_flux_spectrum(net.with_hot_bath(0, T_HOT), mod, 0, 3, grid, 2)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, grid, {(0, 3): fwd})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "omega_rad_s,source_bath,observer,spectral_power_W_per_rad_s"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[1] == "1" and first[2] == "4"
        assert float(first[3]) == pytest.approx(fwd[0], rel=1e-10)


def test_import_does_not_load_scipy():
    # the quadrature is in-house; scipy serves the tests only
    src = str(Path(floqheat.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, floqheat; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True, env=env)
    assert proc.stdout.strip() == "False"
