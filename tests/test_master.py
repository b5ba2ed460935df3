import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_sylvester

from floqheat import (ModulationProtocol, ResonatorNetwork, SI, blocktri,
                      occupation)
from floqheat.master import (assemble_Mn, contrast_vector, converged_power_matrix,
                             drive_order, power_matrix, _moment_mirror,
                             _powers_from, _sideband_blocks,
                             _solve_fourier_nvec)
from floqheat.model import SingularBlockError, ValidationError
from floqheat.perturbation import power_second_order

from conftest import (KAPPA, OMEGA0, T_HOT, assemble_dense, centre_cases,
                      chain, periodic_expectations, random_network)


def sylvester_static_occupations(net, nvec):
    """Independent static oracle: the first-moment drift W gives the
    steady covariance C = <a_i^+ a_j> through conj(W) C + C W^T = diag(2 kappa n)."""
    w = 1j * np.diag(net.omega) + np.diag(net.kappa) + 1j * net.g
    np.fill_diagonal(w, 1j * net.omega + net.kappa)
    q = np.diag(2.0 * net.kappa * nvec).astype(complex)
    return solve_sylvester(w.conj(), w.T, q)


def stripes(mod):
    """Sideband stripes (upper, lower) = (-G-, -G+) as their diagonals, for
    a protocol of four resonators."""
    net, _ = chain(0.0)
    *_, upper, lower = _sideband_blocks(net, mod, 1)
    return upper, lower


def hot_coeffs(net, mod, n_max, source):
    """Fourier coefficients with bath ``source`` alone at T_HOT; row
    n_max - n holds sideband n."""
    hot = net.with_hot_bath(source, T_HOT)
    return _solve_fourier_nvec(hot, mod, n_max, hot.occupations())


class TestMomentLayout:
    """Moments are C_kl = <a_k^+ a_l> raveled row by row: slot k N + l."""

    def test_static_block_is_the_kronecker_sum(self):
        # the definition of assemble_Mn's docstring, L (x) I + I (x) R,
        # with L = diag(kappa - i omega) - i g^T and
        # R = diag(kappa + i omega) + i g
        rng = np.random.default_rng(31)
        nets = [chain(0.0)[0]] + [random_network(rng, n)[0] for n in (1, 3, 6)]
        skewed = nets[2].g + 1e9 * np.triu(rng.standard_normal((3, 3)), 1)
        nets.append(dataclasses.replace(nets[2], g=skewed, hermitian=False))
        for net in nets:
            left = np.diag(net.kappa - 1j * net.omega) - 1j * net.g.T
            right = np.diag(net.kappa + 1j * net.omega) + 1j * net.g
            eye = np.eye(net.N)
            want = np.kron(left, eye) + np.kron(eye, right)
            assert np.array_equal(assemble_Mn(net), want)
        assert not np.array_equal(nets[-1].g, nets[-1].g.conj().T)

    def test_mirror_is_the_transpose(self):
        for n in (1, 2, 3, 4, 6):
            net = random_network(np.random.default_rng(n), n)[0]
            swap = _moment_mirror(net)
            for k in range(n):
                for l in range(n):
                    assert swap[k * n + l] == l * n + k


class TestAssembly:
    def test_single_resonator_static_block(self):
        net, _ = chain(0.0)
        solo = ResonatorNetwork(omega=[OMEGA0], g=[[0.0]], kappa=[KAPPA], T=[0.0])
        m = assemble_Mn(solo)
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(2 * KAPPA)

    def test_uncoupled_matrix_is_diagonal(self):
        rng = np.random.default_rng(5)
        omega = OMEGA0 * (1 + 0.01 * rng.standard_normal(3))
        kappa = OMEGA0 * rng.uniform(0.005, 0.02, 3)
        net = ResonatorNetwork(omega=omega, g=np.zeros((3, 3)), kappa=kappa,
                               T=np.zeros(3))
        m = assemble_Mn(net)
        assert np.allclose(m, np.diag(np.diag(m)))
        rates = np.diag(m).reshape(3, 3)     # the rate of C_kl at [k, l]
        for k in range(3):
            assert rates[k, k] == pytest.approx(2 * kappa[k])
        for k in range(3):
            for l in range(3):
                if k != l:
                    expected = -(1j * (omega[k] - omega[l]) - kappa[k] - kappa[l])
                    assert rates[k, l] == pytest.approx(expected)

    def test_coupling_matrices_vanish_without_drive(self):
        _, mod = chain(0.0)
        upper, lower = stripes(mod)
        assert np.all(upper == 0) and np.all(lower == 0)

    def test_global_phase_is_gauge(self):
        mod = ModulationProtocol(beta=1e12, Omega=8e12,
                                 theta=np.full(4, 0.73), mask=np.ones(4, int))
        upper, lower = stripes(mod)
        assert np.all(upper == 0) and np.all(lower == 0)

    def test_chain_drive_contrasts(self):
        _, mod = chain(0.05, 0.5)
        e = np.exp(1j * 0.5 * np.pi)
        expected = {
            (0, 1): -1.0, (0, 2): -e, (0, 3): 0.0,
            (1, 2): 1.0 - e, (1, 3): 1.0, (2, 3): e,
        }
        eta = contrast_vector(mod).reshape(4, 4)
        for (k, l), val in expected.items():
            assert eta[k, l] == pytest.approx(val)
        # the stripes are -G- above and -G+ below the diagonal, with
        # G+ = (i beta/2) diag(eta) and G- = (i beta/2) diag(conj(eta))
        upper, lower = stripes(mod)
        gp, gm = -lower.reshape(4, 4), -upper.reshape(4, 4)
        for (k, l), val in expected.items():
            assert gp[k, l] == pytest.approx(0.5j * mod.beta * val)
            assert gp[l, k] == pytest.approx(-0.5j * mod.beta * val)
            assert gm[k, l] == pytest.approx(0.5j * mod.beta * np.conj(val))
        assert np.all(np.diag(gp) == 0) and np.all(np.diag(gm) == 0)


class TestSolveFourier:
    def test_single_resonator_thermalizes(self):
        solo = ResonatorNetwork(omega=[OMEGA0], g=[[0.0]], kappa=[KAPPA],
                                T=[T_HOT])
        mod = ModulationProtocol(beta=0.0, Omega=8e12, theta=[0.0], mask=[0])
        coeffs = _solve_fourier_nvec(solo, mod, 3, solo.occupations())
        n1 = occupation(T_HOT, OMEGA0)
        assert coeffs[3][0] == pytest.approx(n1, rel=1e-12)
        assert np.max(np.abs(coeffs[3 - 1])) < 1e-30

    def test_static_limit_matches_sylvester_oracle(self):
        net, mod = chain(0.0)
        hot = net.with_hot_bath(0, T_HOT)
        nvec = hot.occupations()
        cov = sylvester_static_occupations(hot, nvec)
        coeffs = hot_coeffs(net, mod, 4, 0)
        zero = coeffs[4].reshape(4, 4)
        for k in range(4):
            for l in range(4):
                assert zero[k, l] == pytest.approx(
                    cov[k, l], rel=1e-9, abs=1e-12 * abs(cov).max())
        assert np.max(np.abs(coeffs[4 - 2])) < 1e-30

    def test_modulated_sidebands_populate(self, chain_modulated):
        net, mod = chain_modulated
        coeffs = hot_coeffs(net, mod, 8, 0)
        assert np.max(np.abs(coeffs[8 - 1])) > 0
        assert np.max(np.abs(coeffs[8 - 8])) < np.max(np.abs(coeffs[8 - 1]))

    def test_reality_pairing_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            net, mod = random_network(rng, 3)
            coeffs = _solve_fourier_nvec(net, mod, 6, net.occupations())
            c = coeffs.reshape(13, 3, 3)
            scale = np.max(np.abs(coeffs))
            for n in range(-6, 7):
                for k in range(3):
                    for l in range(3):
                        a = c[6 + n, k, l]
                        b = np.conj(c[6 - n, l, k])
                        assert abs(a - b) <= 1e-10 * scale
            for k in range(3):
                zero = c[6, k, k]
                assert abs(zero.imag) <= 1e-10 * scale
                assert zero.real >= -1e-10 * scale

    def test_linearity_in_source(self, chain_modulated):
        net, mod = chain_modulated
        nvec = np.array([0.013, 0.0, 0.0, 0.0])
        a = _solve_fourier_nvec(net, mod, 6, nvec)
        b = _solve_fourier_nvec(net, mod, 6, 2.0 * nvec)
        assert np.max(np.abs(b - 2.0 * a)) <= 1e-12 * np.max(np.abs(b))

    def test_invalid_inputs_rejected(self, chain_modulated):
        net, mod = chain_modulated
        with pytest.raises(ValidationError, match="kappa"):
            ResonatorNetwork(omega=net.omega, g=net.g,
                             kappa=np.zeros(4), T=net.T)
        short = ModulationProtocol(beta=mod.beta, Omega=mod.Omega,
                                   theta=[0.0, 0.0], mask=[1, 1])
        with pytest.raises(ValidationError):
            power_matrix(net, short, 4)
        for n_max in (-1, 2.0, 2.5):
            with pytest.raises(ValueError):
                power_matrix(net, mod, n_max)

    def test_thomas_solver_agrees_with_dense(self, chain_modulated):
        # dense pivoted LU of the full sideband operator, every block
        # written out as M_0 - i n Omega I and both couplings from eta, as
        # the reference for the block elimination
        cases = [(*chain_modulated, 10),
                 (*random_network(np.random.default_rng(7), 6), 6),
                 (*chain(0.3, 0.5, drive_frac=0.02), 64)]
        source = 0
        for net, mod, n_max in cases:
            hot = net.with_hot_bath(source, T_HOT)
            size = net.N ** 2
            eta = contrast_vector(mod)
            gp = np.diag(0.5j * mod.beta * eta)
            gm = np.diag(0.5j * mod.beta * eta.conj())
            m0 = assemble_Mn(hot)
            full = assemble_dense(
                [m0 - 1j * n * mod.Omega * np.eye(size)
                 for n in range(n_max, -n_max - 1, -1)],
                [-gm] * (2 * n_max), [-gp] * (2 * n_max))
            rhs = np.zeros(full.shape[0], dtype=complex)
            rhs[n_max * size + source * (net.N + 1)] = (
                2.0 * hot.kappa[source] * occupation(T_HOT, hot.omega[source]))
            dense = np.linalg.solve(full, rhs).reshape(2 * n_max + 1, size)
            thomas = hot_coeffs(net, mod, n_max, source)
            assert np.max(np.abs(dense - thomas)) <= 1e-12 * np.max(np.abs(dense))


class TestPowerMatrix:
    def test_static_reference_value(self, chain_static):
        net, mod = chain_static
        hot = net.with_hot_bath(0, T_HOT)
        pm = power_matrix(hot, mod, 6)
        cov = sylvester_static_occupations(hot, hot.occupations())
        expected = SI.hbar * OMEGA0 * 2 * KAPPA * cov[3, 3].real
        assert pm.P[0, 3] == pytest.approx(expected, rel=1e-10)
        # cold sources contribute nothing
        assert np.all(pm.P[1:] == 0.0) and np.all(pm.P_em[1:] == 0.0)

    def test_conservation(self, chain_modulated):
        net, mod = chain_modulated
        for source in (0, 3):
            hot = net.with_hot_bath(source, T_HOT)
            pm = power_matrix(hot, mod, 15)
            assert pm.conservation_residual(source) <= 1e-9 * pm.P_em[source]

    def test_balance_at_round_off_on_every_moment_path(self):
        # P_em is the coupling current out of the source, not the
        # occupation deficit 2 kappa (n - <n>_0), which is ~1e-5 of n;
        # pert2 is negative at the strong drive, outside its range
        for name, net, mod, n_max in centre_cases():
            hot = net.with_temperatures(np.linspace(T_HOT, 0.0, net.N))
            for method, pm in (("qme", power_matrix(hot, mod, n_max)),
                               ("pert1", power_matrix(hot, mod, 1)),
                               ("pert2", power_second_order(hot, mod))):
                for k in np.flatnonzero(hot.occupations()):
                    assert pm.conservation_residual(k) <= 1e-14 * abs(pm.P_em[k]), \
                        (name, method, k)

    def test_hot_baths_share_one_elimination(self):
        # every hot bath is one right-hand-side column; each row must equal
        # the single-hot-bath solve
        net, mod = random_network(np.random.default_rng(8), 4)
        net = net.with_temperatures([300.0, 0.0, 120.0, 40.0])
        pm = power_matrix(net, mod, 8)
        for k in (0, 2, 3):
            one = power_matrix(net.with_hot_bath(k, net.T[k]), mod, 8)
            scale = np.abs(one.P[k]).max()
            assert np.max(np.abs(pm.P[k] - one.P[k])) <= 1e-12 * scale
            assert pm.P_em[k] == pytest.approx(one.P_em[k], rel=1e-9)
        assert np.all(pm.P[1] == 0.0) and pm.P_em[1] == 0.0

    def test_gauge_invariance_under_global_phase(self):
        rng = np.random.default_rng(21)
        net, mod = random_network(rng, 3)
        mod = dataclasses.replace(mod, mask=np.ones(3, dtype=int))
        pm0 = power_matrix(net, mod, 8)
        shifted = dataclasses.replace(mod, theta=mod.theta + 1.234)
        pm1 = power_matrix(net, shifted, 8)
        scale = np.abs(pm0.P).max()
        assert np.max(np.abs(pm1.P - pm0.P)) <= 1e-10 * scale
        assert np.max(np.abs(pm1.P_em - pm0.P_em)) <= 1e-10 * scale

    def test_mirror_symmetry_theta_zero(self):
        net, mod = chain(0.05, 0.0)
        p14 = power_matrix(net.with_hot_bath(0, T_HOT), mod, 12).P[0, 3]
        p41 = power_matrix(net.with_hot_bath(3, T_HOT), mod, 12).P[3, 0]
        assert p14 == pytest.approx(p41, rel=1e-10)


def transfers(net, mod):
    """R[k, l] = P[k, l] / (hbar omega_k n_k): qme at the drive's order,
    per unit occupation of the source bath."""
    P = power_matrix(net, mod, drive_order(mod)).P
    return P / (SI.hbar * net.omega * net.occupations())[:, None]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
def test_time_reversal(seed, n):
    # Onsager-Casimir: reversing time flips the drive phases and conjugates
    # g, so R(theta, g) = R(-theta, g*)^T; only the drive phases break
    # reciprocity
    net, mod = random_network(np.random.default_rng(seed), n)
    net = net.with_temperatures(np.full(n, T_HOT))
    R = transfers(net, mod)
    back = transfers(dataclasses.replace(net, g=net.g.conj()),
                     dataclasses.replace(mod, theta=-mod.theta))
    assert np.abs(R - back.T).max() <= 1e-12 * np.abs(R).max()


class TestCentreRead:
    """``power_matrix`` solves for sideband 0 alone (``blocktri.solve_centre``);
    the full solve carries the same elimination to every sideband."""

    def test_powers_match_full_two_sided_solve(self):
        # sideband 0 of the two-sided kernel on every sideband, whatever g
        for name, net, mod, n_max in centre_cases():
            hot = net.with_temperatures(np.linspace(T_HOT, 0.0, net.N))
            ref = _powers_from(hot, lambda rhs: blocktri.solve_thomas(
                *_sideband_blocks(hot, mod, n_max), rhs)[n_max])
            pm = power_matrix(hot, mod, n_max)
            scale = np.abs(ref.P).max()
            assert np.abs(pm.P - ref.P).max() <= 2e-15 * scale, name
            assert np.abs(pm.P_em - ref.P_em).max() <= 2e-15 * scale, name

    def test_power_matrix_never_carries_outward(self, monkeypatch):
        def carry(*args):
            raise AssertionError("outward carry run")

        monkeypatch.setattr(blocktri, "_carry", carry)
        for name, net, mod, n_max in centre_cases():
            hot = net.with_hot_bath(0, T_HOT)
            power_matrix(hot, mod, n_max)
            power_matrix(hot, mod, 1)       # pert1
        converged_power_matrix(hot, mod)
        with pytest.raises(AssertionError, match="outward carry"):
            _solve_fourier_nvec(hot, mod, 2, hot.occupations())

    def test_no_hot_bath_solves_nothing(self, monkeypatch):
        # the read-out keeps the hot-bath bookkeeping for qme, pert1 and
        # pert2: with every bath at 0 K no source is solved for, and every
        # power is exactly zero
        def solve(*args):
            raise AssertionError("solve of no sources")

        monkeypatch.setattr(blocktri, "solve_centre", solve)
        net, mod = chain(0.05, 0.5)
        assert not net.occupations().any()
        for pm in (power_matrix(net, mod, 4), power_matrix(net, mod, 1),
                   power_second_order(net, mod),
                   _powers_from(net, solve)):
            assert np.all(pm.P == 0.0) and np.all(pm.P_em == 0.0)

    def test_non_finite_centre_raises(self, monkeypatch):
        net, mod = chain(0.05, 0.5)
        hot = net.with_hot_bath(0, T_HOT)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: np.full_like(solve(a, b), np.nan))
        nets = {name: net for name, net, *_ in centre_cases()}
        skewed = nets["non-Hermitian g"].with_hot_bath(0, T_HOT)
        for net in (hot, skewed):
            assert (_moment_mirror(net) is None) == (net is skewed)
            with pytest.raises(SingularBlockError, match="non-finite"):
                power_matrix(net, mod, 4)


class TestConvergedPowerMatrix:
    def test_reaches_fixed_reference(self, chain_modulated):
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        pm, n_used = converged_power_matrix(hot, mod, rtol=1e-6)
        ref = power_matrix(hot, mod, 15)
        assert pm.P[0, 3] == pytest.approx(ref.P[0, 3], rel=1e-5)
        assert n_used <= 32

    def test_static_case_converges_immediately(self, chain_static):
        net, mod = chain_static
        hot = net.with_hot_bath(0, T_HOT)
        pm, n_used = converged_power_matrix(hot, mod, n_max_start=1)
        assert n_used == 2  # first doubling already agrees
        assert pm.P[0, 3] == pytest.approx(power_matrix(hot, mod, 4).P[0, 3],
                                           rel=1e-10)

    def test_limit_hit_raises(self, chain_modulated):
        from floqheat import ConvergenceError
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        with pytest.raises(ConvergenceError):
            converged_power_matrix(hot, mod, rtol=1e-12, n_max_start=1,
                                   n_max_limit=2)


class TestPeriodicExpectations:
    def test_static_is_time_independent(self, chain_static):
        net, mod = chain_static
        coeffs = hot_coeffs(net, mod, 4, 0)
        y0 = periodic_expectations(coeffs, mod.Omega, 0.0)
        y1 = periodic_expectations(coeffs, mod.Omega, 0.37 * mod.period)
        assert np.allclose(y0, y1, rtol=0, atol=1e-14 * np.abs(y0).max())

    def test_periodicity_and_cycle_average(self, chain_modulated):
        net, mod = chain_modulated
        coeffs = hot_coeffs(net, mod, 12, 0)
        y0 = periodic_expectations(coeffs, mod.Omega, 0.0)
        y1 = periodic_expectations(coeffs, mod.Omega, mod.period)
        assert np.max(np.abs(y0 - y1)) <= 1e-12 * np.max(np.abs(y0))
        ts = np.linspace(0.0, mod.period, 4097)
        traj = np.array([periodic_expectations(coeffs, mod.Omega, t) for t in ts])
        avg = np.trapezoid(traj, dx=ts[1] - ts[0], axis=0) / mod.period
        assert np.max(np.abs(avg - coeffs[12])) <= 1e-10 * np.max(np.abs(avg))

    def test_diagonals_stay_positive(self, chain_modulated):
        net, mod = chain_modulated
        coeffs = hot_coeffs(net, mod, 12, 0)
        for t in np.linspace(0.0, mod.period, 33):
            y = periodic_expectations(coeffs, mod.Omega, t)
            assert np.all(y[::5].real >= -1e-10 * np.abs(y).max())
