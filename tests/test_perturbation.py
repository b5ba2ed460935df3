import numpy as np
import pytest

from floqheat import (SI, ModulationProtocol, ResonatorNetwork, ValidationError,
                      occupation)
from floqheat.master import (assemble_Mn, contrast_vector, moment_index_map,
                             power_matrix, _solve_fourier_nvec)
from floqheat.perturbation import (CLOSED_FORM_ORIENTATION, assemble_Npert,
                                   closed_form_delta_power,
                                   delta_n14_closed_form, delta_n14_general,
                                   delta_power_weak_coupling, power_second_order)
from floqheat.scenarios import operating_point, write_perturbation_csv

from conftest import (COUPLING, DRIVE, KAPPA, OMEGA0, T_HOT, centre_cases,
                      chain, random_network)


def chain_contrasts(mod):
    """Drive contrasts eta_kl of a four-resonator protocol, 1-based pairs."""
    phase = mod.phasor
    return {(k + 1, l + 1): complex(phase[k] - phase[l])
            for k in range(4) for l in range(k + 1, 4)}


def exact_delta(beta_frac, theta_pi, n_max=15):
    net, mod = chain(beta_frac, theta_pi)
    p14 = power_matrix(net.with_hot_bath(0, T_HOT), mod, n_max).P[0, 3]
    p41 = power_matrix(net.with_hot_bath(3, T_HOT), mod, n_max).P[3, 0]
    return p14, p41


def first_sideband_formula(net, mod):
    """N = M_0 + (beta^2/4) (Gt M_+1^-1 Gt* + Gt* M_-1^-1 Gt), Gt =
    diag(eta), with both first-sideband blocks inverted on their own."""
    m0 = assemble_Mn(net)
    eta = contrast_vector(mod)
    shift = 1j * mod.Omega * np.eye(m0.shape[0])
    inv_p, inv_m = np.linalg.inv(m0 - shift), np.linalg.inv(m0 + shift)
    return m0 + 0.25 * mod.beta**2 * (eta[:, None] * inv_p * eta.conj()
                                      + eta.conj()[:, None] * inv_m * eta)


class TestAssembleNpert:
    def test_zero_drive_reduces_to_static_block(self):
        net, mod = chain(0.0)
        assert np.array_equal(assemble_Npert(net, mod), assemble_Mn(net))

    def test_equals_the_first_sideband_formula(self):
        # the kernel's Schur complement at n_max = 1, mirrored for Hermitian
        # g and two-sided for the non-Hermitian case, against the formula
        for name, net, mod, _ in centre_cases() + [("beta = 0", *chain(0.0), 1)]:
            want = first_sideband_formula(net, mod)
            got = assemble_Npert(net, mod)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), name

    def test_real_contrasts_keep_reciprocity(self):
        imap = moment_index_map(4)
        for theta_pi in (0.0, 1.0):
            net, mod = chain(0.03, theta_pi)
            ninv = np.linalg.inv(assemble_Npert(net, mod))
            a = ninv[imap.index(3, 3), imap.index(0, 0)]
            b = ninv[imap.index(0, 0), imap.index(3, 3)]
            assert a == pytest.approx(b, rel=1e-12)

    def test_complex_contrasts_break_reciprocity(self):
        imap = moment_index_map(4)
        net, mod = chain(0.03, 0.5)
        ninv = np.linalg.inv(assemble_Npert(net, mod))
        a = ninv[imap.index(3, 3), imap.index(0, 0)].real
        b = ninv[imap.index(0, 0), imap.index(3, 3)].real
        assert abs(a - b) > 1e-6 * abs(a)


# pert1 is the moment solver truncated at one sideband, pert2 its Neumann
# expansion; each maps (net, mod) to a PowerMatrix
ESTIMATES = {"pert1": lambda net, mod: power_matrix(net, mod, 1),
             "pert2": power_second_order}


def second_order_pair(beta_frac, theta_pi, solve):
    net, mod = chain(beta_frac, theta_pi)
    return (solve(net.with_hot_bath(0, T_HOT), mod).P[0, 3],
            solve(net.with_hot_bath(3, T_HOT), mod).P[3, 0])


class TestPowerSecondOrder:
    def test_zero_drive_matches_static_solver(self):
        exact14, exact41 = exact_delta(0.0, 0.5, n_max=2)
        for solve in ESTIMATES.values():
            p14, p41 = second_order_pair(0.0, 0.5, solve)
            assert p14 == pytest.approx(exact14, rel=1e-10)
            assert p41 == pytest.approx(exact41, rel=1e-10)

    def test_small_drive_tracks_exact_power(self):
        exact14, _ = exact_delta(0.02, 0.5)
        p14_a, _ = second_order_pair(0.02, 0.5, ESTIMATES["pert1"])
        assert p14_a == pytest.approx(exact14, rel=0.05)

    def test_both_variants_within_ten_percent_at_weak_drive(self):
        exact14, exact41 = exact_delta(0.01, 0.5)
        d_exact = exact14 - exact41
        for solve in ESTIMATES.values():
            p14, p41 = second_order_pair(0.01, 0.5, solve)
            assert (p14 - p41) == pytest.approx(d_exact, rel=0.10)

    def test_full_inverse_outlasts_neumann(self):
        # the first-sideband elimination stays useful to larger drive than
        # its first-order expansion
        for beta_frac in (0.04, 0.06):
            exact14, _ = exact_delta(beta_frac, 0.5)
            err_a = abs(second_order_pair(beta_frac, 0.5, ESTIMATES["pert1"])[0]
                        / exact14 - 1)
            err_n = abs(second_order_pair(beta_frac, 0.5, ESTIMATES["pert2"])[0]
                        / exact14 - 1)
            assert err_a < err_n

    def test_follows_the_power_matrix_contract(self):
        # one row per hot bath, close to the full elimination's, zero
        # diagonal, and zero rows for cold baths
        net, mod = random_network(np.random.default_rng(4), 5)
        net = net.with_temperatures([300.0, 0.0, 150.0, 0.0, 0.0])
        pm = power_second_order(net, mod)
        ref = power_matrix(net, mod, 1)
        assert np.all(np.diag(pm.P) == 0.0)
        assert not pm.P[[1, 3, 4]].any() and not pm.P_em[[1, 3, 4]].any()
        for k in (0, 2):
            assert pm.P[k] == pytest.approx(ref.P[k], rel=0.05)
            assert pm.P_em[k] == pytest.approx(ref.P_em[k], rel=0.05)

    def test_one_resonator_network_transfers_nothing(self):
        net = ResonatorNetwork(omega=[OMEGA0], g=np.zeros((1, 1)), kappa=[KAPPA],
                               T=[T_HOT])
        mod = ModulationProtocol(beta=0.02 * OMEGA0, Omega=DRIVE, theta=[0.0],
                                 mask=[1])
        assert not power_second_order(net, mod).P.any()


def _explicit_inverse_moments(net, mod, k):
    """Zeroth-sideband moments with bath k alone hot, by inverting N."""
    n_k = occupation(T_HOT, net.omega[k])
    return (np.linalg.inv(assemble_Npert(net, mod))[:, k]
            * 2.0 * net.kappa[k] * n_k)


class TestFirstSidebandElimination:
    # pert1 is the moment solver at n_max = 1: its block elimination forms
    # the Schur complement N = M_0 + (beta^2/4)(...) that assemble_Npert
    # returns, so the carried solve and the inverse of N give the same
    # zeroth-sideband moments
    @pytest.mark.parametrize("case", ["chain", "network6", "network8", "strong"])
    def test_moments_equal_the_explicit_inverse(self, case):
        net, mod = {
            "chain": lambda: chain(0.05, 0.5),
            "network6": lambda: random_network(np.random.default_rng(6), 6),
            "network8": lambda: random_network(np.random.default_rng(8), 8),
            "strong": lambda: chain(0.3, 0.5, drive_frac=0.02),
        }[case]()
        N = net.N
        pm = power_matrix(net.with_temperatures(np.full(N, T_HOT)), mod, 1)
        for k in range(N):
            hot = net.with_hot_bath(k, T_HOT)
            got = _solve_fourier_nvec(hot, mod, 1, hot.occupations())[1]
            ref = _explicit_inverse_moments(net, mod, k)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            # the power row, read off the same moments
            p_ref = (SI.hbar * net.omega[k] * 2.0 * net.kappa
                     * ref[:N].real)
            p_ref[k] = 0.0
            assert np.allclose(pm.P[k], p_ref, rtol=1e-13, atol=0.0)


class TestClosedForms:
    def test_both_printed_forms_are_identical(self):
        # the flat form and the kernel-plus-prefactor form must agree to
        # roundoff for any inputs
        rng = np.random.default_rng(3)
        for _ in range(50):
            omega0 = 10 ** rng.uniform(13, 15)
            kappa = omega0 * rng.uniform(0.001, 0.05)
            g = kappa * rng.uniform(0.001, 0.1)
            beta = omega0 * rng.uniform(0.0, 0.08)
            drive = omega0 * rng.uniform(0.01, 0.2)
            theta = rng.uniform(-np.pi, np.pi)
            n_occ = rng.uniform(0.001, 2.0)
            flat = delta_power_weak_coupling(omega0, n_occ, g, kappa, beta,
                                             drive, theta)
            viaN = (4.0 * SI.hbar * omega0 * n_occ * kappa**2
                    * delta_n14_closed_form(g, kappa, beta, drive, theta))
            assert flat == pytest.approx(viaN, rel=1e-12, abs=1e-300)

    def test_general_kernel_reduces_to_chain_form(self):
        for theta in (-2.0, -0.5, 0.3, 1.2, 2.9):
            _, mod = chain(0.02, theta / np.pi)
            eta = chain_contrasts(mod)
            general = delta_n14_general(COUPLING, KAPPA, mod.beta, DRIVE, eta)
            closed = delta_n14_closed_form(COUPLING, KAPPA, mod.beta, DRIVE, theta)
            assert general == pytest.approx(closed, rel=1e-12, abs=1e-300)

    def test_sine_law(self):
        vals = []
        for theta in (0.2, 0.9, 1.4, 2.2, -1.1):
            v = delta_n14_closed_form(COUPLING, KAPPA, 0.02 * OMEGA0, DRIVE, theta)
            vals.append(v / np.sin(theta))
        assert np.ptp(vals) <= 1e-12 * abs(vals[0])

    def test_zeros(self):
        # zero to machine precision: sin(pi) itself carries ~1e-16
        ref_n = abs(delta_n14_closed_form(COUPLING, KAPPA, 1e12, DRIVE,
                                          0.5 * np.pi))
        ref_p = abs(delta_power_weak_coupling(OMEGA0, 0.01, COUPLING, KAPPA,
                                              1e12, DRIVE, 0.5 * np.pi))
        for theta in (0.0, np.pi, -np.pi):
            assert abs(delta_n14_closed_form(COUPLING, KAPPA, 1e12, DRIVE,
                                             theta)) <= 1e-14 * ref_n
            assert abs(delta_power_weak_coupling(OMEGA0, 0.01, COUPLING, KAPPA,
                                                 1e12, DRIVE, theta)) <= 1e-14 * ref_p

    def test_static_drive_limit_vanishes(self):
        assert delta_n14_closed_form(COUPLING, KAPPA, 1e12, 1e-30, 0.5 * np.pi) == \
            pytest.approx(0.0, abs=1e-40)

    def test_quadratic_in_drive(self):
        v1 = delta_n14_closed_form(COUPLING, KAPPA, 1e12, DRIVE, 1.0)
        v2 = delta_n14_closed_form(COUPLING, KAPPA, 2e12, DRIVE, 1.0)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


class TestOrientationCrossCheck:
    def test_printed_form_orientation_against_exact(self):
        # the mandated numerical cross-check: which sign of the printed
        # closed form matches the full solvers in the small-drive limit
        exact14, exact41 = exact_delta(0.005, 0.5)
        d_exact = exact14 - exact41
        n_occ = occupation(T_HOT, OMEGA0)
        printed = delta_power_weak_coupling(OMEGA0, n_occ, COUPLING, KAPPA,
                                            0.005 * OMEGA0, DRIVE, 0.5 * np.pi)
        oriented = CLOSED_FORM_ORIENTATION * printed
        print(f"\norientation report: exact dP = {d_exact:+.6e} W, "
              f"printed form = {printed:+.6e} W, "
              f"orientation factor = {CLOSED_FORM_ORIENTATION:+g}")
        assert oriented == pytest.approx(d_exact, rel=0.05)
        assert printed == pytest.approx(-d_exact, rel=0.05)

    def test_result_estimates_cohere_at_weak_drive(self):
        net, mod = chain(0.01, 0.5)
        pert1, pert2, closed = (operating_point(net, mod, m, T_hot=T_HOT)
                                for m in ("pert1", "pert2", "closed"))
        estimates = [pert1.dP, pert2.dP, closed.dP]
        mid = np.mean(estimates)
        assert all(abs(e / mid - 1) <= 0.10 for e in estimates)
        assert pert1.P14 > pert1.P41  # recorded sign at theta = +pi/2

    def test_asymptotic_agreement_improves(self):
        ratios = []
        for beta_frac in (0.02, 0.01, 0.005):
            exact14, exact41 = exact_delta(beta_frac, 0.5)
            net, mod = chain(beta_frac, 0.5)
            closed = operating_point(net, mod, "closed", T_hot=T_HOT).dP
            ratios.append(abs(closed / (exact14 - exact41) - 1))
        assert ratios[0] > ratios[1] > ratios[2]


class TestResultPlumbing:
    def test_requires_symmetric_chain(self):
        net = ResonatorNetwork(omega=[OMEGA0] * 3, g=np.zeros((3, 3)),
                               kappa=[KAPPA] * 3, T=[0.0] * 3)
        mod = ModulationProtocol(beta=0.0, Omega=DRIVE, theta=np.zeros(3),
                                 mask=[0, 1, 0])
        with pytest.raises(ValidationError):
            closed_form_delta_power(net, mod)

    def test_csv_format(self, tmp_path):
        path = tmp_path / "pert.csv"
        write_perturbation_csv(path, [(1e12, 0.5, 1e-23, 1.1e-23, 1.2e-23, 0.9e-23)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "beta,theta,dP_exact_W,dP_pa1_W,dP_pa2_W,dP_closed_W"
        assert len(lines) == 2
