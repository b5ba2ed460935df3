import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floqheat import (ConvergenceError, ModulationProtocol, ResonatorNetwork,
                      SI, ValidationError, occupation)
from floqheat.langevin import emitted_power
from floqheat.master import assemble_Mn, power_matrix, _solve_fourier_nvec
from floqheat import timedomain
from floqheat.timedomain import (_drive_diagonal, _hermitian_basis,
                                 _static_generator, _step_map_coefficients,
                                 _step_maps, _step_phases, cycle_average_power,
                                 cycle_averaged_moments, evolve_to_cycle)

from conftest import (KAPPA, OMEGA0, T_HOT, chain, periodic_expectations,
                      random_network)


def generator(net, mod, t):
    """Full generator at time t: returns (G(t), s) with G periodic in 2 pi / Omega."""
    gen, src = _static_generator(net)
    gen[np.diag_indices_from(gen)] += _drive_diagonal(mod, t)
    return gen, src


def reference_step(gen0, src, d0, dh, d1, dt, y):
    """One RK4 step of dy/dt = (gen0 + diag(d)) y + src, stage by stage;
    d0, dh, d1 are the drive diagonal at the step's start, midpoint and end
    as columns, and leading axes broadcast."""
    half = 0.5 * dt
    k1 = gen0 @ y + d0 * y + src
    y2 = y + half * k1
    k2 = gen0 @ y2 + dh * y2 + src
    y3 = y + half * k2
    k3 = gen0 @ y3 + dh * y3 + src
    y4 = y + dt * k3
    k4 = gen0 @ y4 + d1 * y4 + src
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_drive(mod, steps):
    """Drive diagonal on the half-step grid of one period, as columns."""
    dt = 2.0 * np.pi / mod.Omega / steps
    return _drive_diagonal(mod, np.arange(2 * steps + 1) * (0.5 * dt))[:, :, None]


def reference_rk4_period(gen0, src, drive, dt, y, store=None):
    """The stage-by-stage RK4 period that the step maps replaced: step s
    reads drive rows 2s, 2s + 1 and 2s + 2.  Returns y after the period and
    its trapezoid mean; store[s] receives the first column after s steps."""
    steps = (len(drive) - 1) // 2
    total = 0.5 * y
    if store is not None:
        store[0] = y[:, 0]
    for s in range(steps):
        y = reference_step(gen0, src, *drive[2 * s:2 * s + 3], dt, y)
        total += y
        if store is not None:
            store[s + 1] = y[:, 0]
    return y, (total - 0.5 * y) / steps


def reference_evolve(net, mod, steps):
    """(bath_averages, samples, multiplier) of ``evolve_to_cycle`` from the
    stage-by-stage period."""
    n = net.N ** 2
    gen0, src = _static_generator(net)
    dt = 2.0 * np.pi / mod.Omega / steps
    drive = reference_drive(mod, steps)
    # bath k's source sits on the diagonal slot k (N + 1)
    hot = [k for k in range(net.N) if src[k * (net.N + 1)] != 0.0]
    y_aug = np.eye(n, n + len(hot), dtype=complex)
    src_aug = np.zeros_like(y_aug)
    src_aug[:, n:] = np.diag(src)[:, [k * (net.N + 1) for k in hot]]
    y_aug, mean = reference_rk4_period(gen0, src_aug, drive, dt, y_aug)
    phi = y_aug[:, :n]
    y0 = np.linalg.solve(np.eye(n) - phi, y_aug[:, n:])
    shares = np.zeros((n, net.N), dtype=complex)
    shares[:, hot] = mean[:, :n] @ y0 + mean[:, n:]
    traj = np.empty((steps + 1, n), dtype=complex)
    reference_rk4_period(gen0, src[:, None], drive, dt, y0.sum(1, keepdims=True),
                         traj)
    return shares, traj, float(np.abs(np.linalg.eigvals(phi)).max())


def both_ends_hot(theta_pi, beta_frac):
    net, mod = chain(beta_frac, theta_pi)
    return net.with_temperatures([T_HOT, 0.0, 0.0, T_HOT]), mod


def random_three(seed=5):
    return random_network(np.random.default_rng(seed), 3)


def non_hermitian_three(seed=5):
    """``random_three`` with a small anti-Hermitian part added to g: the
    moment equations no longer keep C Hermitian, but the state attracts."""
    net, mod = random_three(seed)
    rng = np.random.default_rng(seed + 1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = 0.05 * KAPPA * (a - a.conj().T)
    np.fill_diagonal(a, 0.0)
    return ResonatorNetwork(omega=net.omega, g=net.g + a, kappa=net.kappa,
                            T=net.T, hermitian=False), mod


def case(theta, beta):
    """The chain with both ends hot, or for theta None a random
    three-resonator network, or for "non-Hermitian" its non-Hermitian
    variant."""
    if theta is None:
        return random_three()
    if theta == "non-Hermitian":
        return non_hermitian_three()
    return both_ends_hot(theta, beta)


def test_imports_no_solver_module():
    # the oracle is independent of the solvers it checks: it borrows no
    # assembly, layout or kernel from any of them
    solvers = {"master", "langevin", "blocktri", "perturbation"}
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(timedomain))):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    assert "model" in names and not names & solvers


class TestGenerator:
    # the element-wise time-domain generator is the independent check of
    # the Kronecker-sum M_0, also for non-Hermitian couplings
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           hermitian=st.booleans())
    def test_static_limit_is_minus_fourier_block(self, seed, n, hermitian):
        rng = np.random.default_rng(seed)
        net, mod = random_network(rng, n)
        if not hermitian:
            g = net.g + 0.1 * KAPPA * (rng.standard_normal((n, n))
                                       + 1j * rng.standard_normal((n, n)))
            np.fill_diagonal(g, 0.0)
            net = ResonatorNetwork(omega=net.omega, g=g, kappa=net.kappa,
                                   T=net.T)
        g_t, src = generator(net, mod, 0.234 * mod.period)
        static = ModulationProtocol(beta=0.0, Omega=mod.Omega,
                                    theta=mod.theta, mask=mod.mask)
        g_s, _ = generator(net, static, 0.0)
        assert np.max(np.abs(g_s + assemble_Mn(net))) <= \
            1e-12 * np.max(np.abs(g_s))
        nvec = net.occupations()
        for k in range(n):
            assert src[k * (n + 1)] == pytest.approx(2 * net.kappa[k] * nvec[k])

    def test_periodicity(self, chain_modulated):
        # exact up to cos-argument roundoff at t + 2 pi / Omega
        net, mod = chain_modulated
        scale = 0.0
        for t in (0.0, 0.31 * mod.period, 0.77 * mod.period):
            g0, _ = generator(net, mod, t)
            g1, _ = generator(net, mod, t + mod.period)
            scale = max(scale, np.abs(g0).max())
            assert np.max(np.abs(g0 - g1)) <= 1e-12 * scale

    def test_time_dependence_only_on_modulated_pairs(self, chain_modulated):
        # of the 16 moments, exactly the off-diagonal ones touching a
        # modulated resonator (10 of them) acquire drive terms; the
        # diagonals and the (1,4) pair stay static
        net, mod = chain_modulated
        g0, _ = generator(net, mod, 0.0)
        g1, _ = generator(net, mod, 0.19 * mod.period)
        changed = {idx for idx in range(16)
                   if abs(g0[idx, idx] - g1[idx, idx]) > 0}
        assert np.max(np.abs((g0 - g1) - np.diag(np.diag(g0 - g1)))) == 0.0
        expected = {4 * k + l for k in range(4) for l in range(4)
                    if k != l and (k in (1, 2) or l in (1, 2))
                    and (k, l) not in ((0, 3), (3, 0))}
        assert changed == expected
        assert len(changed) == 10


class TestEvolveToCycle:
    def test_single_resonator_relaxes_to_thermal(self):
        net = ResonatorNetwork(omega=[OMEGA0], g=[[0.0]], kappa=[KAPPA],
                               T=[T_HOT])
        mod = ModulationProtocol(beta=0.0, Omega=0.05 * OMEGA0, theta=[0.0],
                                 mask=[0])
        samples = evolve_to_cycle(net, mod, steps_per_period=2048)
        n1 = occupation(T_HOT, OMEGA0)
        avg = cycle_averaged_moments(samples)[0].real
        assert avg == pytest.approx(n1, rel=2e-6)
        assert samples.periods_used * mod.period < 30.0 / (2 * KAPPA)
        # the only multiplier of the occupation is exp(-2 kappa T)
        assert samples.floquet_multiplier == pytest.approx(
            np.exp(-2 * KAPPA * mod.period), rel=1e-6)

    def test_uncoupled_resonators_thermalize_independently(self):
        rng = np.random.default_rng(12)
        omega = OMEGA0 * (1 + 0.01 * rng.standard_normal(3))
        kappa = OMEGA0 * rng.uniform(0.01, 0.02, 3)
        temps = [320.0, 0.0, 150.0]
        net = ResonatorNetwork(omega=omega, g=np.zeros((3, 3)), kappa=kappa,
                               T=temps)
        mod = ModulationProtocol(beta=0.02 * OMEGA0, Omega=0.05 * OMEGA0,
                                 theta=[0.0, 0.5, 1.0], mask=[1, 1, 1])
        samples = evolve_to_cycle(net, mod, steps_per_period=2048)
        avg = cycle_averaged_moments(samples)
        for k in range(3):
            expected = occupation(temps[k], omega[k])
            assert avg[4 * k].real == pytest.approx(expected, rel=1e-6, abs=1e-12)

    def test_matches_fourier_zeroth_coefficients(self, chain_modulated):
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        samples = evolve_to_cycle(hot, mod)
        avg = cycle_averaged_moments(samples)
        zeroth = _solve_fourier_nvec(hot, mod, 15, hot.occupations())[15]
        occ4 = avg[15].real      # C_33, slot 3 N + 3
        assert occ4 == pytest.approx(zeroth[15].real, rel=1e-6)
        scale = np.abs(zeroth).max()
        assert np.max(np.abs(avg - zeroth)) <= 1e-6 * scale

    def test_fourier_reconstruction_tracks_trajectory_pointwise(self, chain_modulated):
        # the sharpest convention check in the suite: the Fourier series
        # must reproduce the integrated trajectory at arbitrary instants,
        # which pins the sideband storage order and the coupling signs
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        samples = evolve_to_cycle(hot, mod)
        coeffs = _solve_fourier_nvec(hot, mod, 15, hot.occupations())
        scale = np.abs(samples.y).max()
        for i in (0, 512, 1777, 3000, 4096):
            rec = periodic_expectations(coeffs, mod.Omega, samples.t[i])
            assert np.max(np.abs(rec - samples.y[i])) <= 1e-9 * scale

    def test_reproducible_bitwise(self):
        net, mod = chain(0.03, 0.3)
        hot = net.with_hot_bath(0, T_HOT)
        a = evolve_to_cycle(hot, mod, steps_per_period=2048)
        b = evolve_to_cycle(hot, mod, steps_per_period=2048)
        assert np.array_equal(a.y, b.y)
        assert a.periods_used == b.periods_used

    def test_samples_close_the_period(self, chain_modulated):
        # the stored period starts on the shooting solution, so one RK4
        # period maps it back onto itself
        net, mod = chain_modulated
        samples = evolve_to_cycle(net.with_hot_bath(0, T_HOT), mod)
        assert samples.periods_used == 2
        assert 0.0 < samples.floquet_multiplier < 1.0
        scale = np.abs(samples.y).max()
        assert np.max(np.abs(samples.y[-1] - samples.y[0])) <= 1e-12 * scale

    def test_nonconvergence_reported(self):
        # a non-Hermitian gain pair (g = 3 i kappa both ways) amplifies
        # faster than the baths damp: no periodic state attracts
        net = ResonatorNetwork(omega=[OMEGA0, OMEGA0],
                               g=[[0.0, 3j * KAPPA], [3j * KAPPA, 0.0]],
                               kappa=[KAPPA, KAPPA], T=[T_HOT, 0.0],
                               hermitian=False)
        mod = ModulationProtocol(beta=0.0, Omega=0.05 * OMEGA0,
                                 theta=[0.0, 0.0], mask=[0, 0])
        with pytest.raises(ConvergenceError, match="Floquet multiplier"):
            evolve_to_cycle(net, mod, steps_per_period=2048)

    def test_step_count_floor(self, chain_modulated):
        net, mod = chain_modulated
        with pytest.raises(ValueError):
            evolve_to_cycle(net, mod, steps_per_period=1999)

    @pytest.mark.parametrize("steps", [4096.5, "4096"])
    def test_non_integer_step_count_rejected(self, chain_modulated, steps):
        net, mod = chain_modulated
        with pytest.raises(ValueError,
                           match="^steps_per_period must be an integer"):
            evolve_to_cycle(net.with_hot_bath(0, T_HOT), mod,
                            steps_per_period=steps)

    def test_unstable_step_detected(self):
        # huge detuning between the resonators makes the default step unstable
        net = ResonatorNetwork(omega=[1e12, 6e16], g=np.zeros((2, 2)),
                               kappa=[1e10, 1e10], T=[100.0, 0.0])
        mod = ModulationProtocol(beta=0.0, Omega=1e10, theta=[0.0, 0.0],
                                 mask=[0, 0])
        with pytest.raises(ConvergenceError, match="unstable"):
            evolve_to_cycle(net, mod, steps_per_period=2048)


class TestStepMaps:
    # the nine-phase interpolation is exact: every step's map equals the
    # one its own RK4 stages give, for a step count that is no multiple of 9
    # theta None stands for a random three-resonator network
    @pytest.mark.parametrize("theta, beta", [
        *[(theta, beta) for theta in (0.1, 0.5, 1.0) for beta in (0.0, 0.05)],
        (None, None)])
    def test_interpolated_maps_equal_direct_stages(self, theta, beta):
        net, mod = case(theta, beta)
        steps = 2001
        n = net.N ** 2
        gen0, src = _static_generator(net)
        cols = np.diag(src)[:, np.flatnonzero(src)]
        m = cols.shape[1]
        assert m >= 1
        dt = 2.0 * np.pi / mod.Omega / steps
        basis = _hermitian_basis(net.N, m)
        inc = _step_maps(_step_map_coefficients(gen0, cols, mod, dt, basis),
                         _step_phases(steps))
        # the maps in the real basis x, back in the moment basis
        t, t_inv = basis
        inc = t @ inc @ t_inv
        drive = reference_drive(mod, steps)
        direct = reference_step(gen0, np.hstack([np.zeros((n, n)), cols]),
                                drive[:-1:2], drive[1::2], drive[2::2], dt,
                                np.eye(n, n + m))
        P, q = np.eye(n) + inc[:, :n, :n], inc[:, :n, n:]
        for got, want in ((P, direct[:, :, :n]), (q, direct[:, :, n:])):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()
        # the increments, not only the maps near I, agree
        want = direct[:, :, :n] - np.eye(n)
        assert np.max(np.abs(inc[:, :n, :n] - want)) <= 1e-12 * np.abs(want).max()
        # the rows [0, I] of the homogeneous maps stay fixed
        assert np.all(inc[:, n:] == 0.0)

    @pytest.mark.parametrize("theta, beta, steps", [
        (0.5, 0.05, 4096), (1.0, 0.01, 2001), (None, None, 2001),
        ("non-Hermitian", None, 2001)])
    def test_evolve_matches_stage_loop(self, theta, beta, steps, monkeypatch):
        net, mod = case(theta, beta)
        dtypes = []
        steps_of = timedomain._chunk_steps

        def spy(coef, phases, z):
            dtypes.append((coef.dtype, z.dtype))
            return steps_of(coef, phases, z)

        monkeypatch.setattr(timedomain, "_chunk_steps", spy)
        samples = evolve_to_cycle(net, mod, steps_per_period=steps)
        # both periods run in float64 where C stays Hermitian
        want = complex if theta == "non-Hermitian" else np.float64
        assert dtypes == [(want, want)] * 2
        shares, traj, multiplier = reference_evolve(net, mod, steps)
        assert np.max(np.abs(samples.bath_averages - shares)) <= \
            1e-12 * np.abs(shares).max()
        assert np.max(np.abs(samples.y - traj)) <= 1e-12 * np.abs(traj).max()
        assert samples.floquet_multiplier == pytest.approx(multiplier, rel=1e-12)
        assert samples.periods_used == 2 and len(samples.t) == steps + 1


class TestBathShares:
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_each_share_is_its_own_hot_bath(self, seed):
        # two hot baths and one at 0 K: each hot bath's powers equal those
        # of a network where it alone is hot, the shares add up to the
        # sampled trajectory's average, and the cold bath's share is 0
        rng = np.random.default_rng(seed)
        net, mod = random_network(rng, 3)
        temps = rng.uniform(50.0, 400.0, 3)
        cold = int(rng.integers(0, 3))
        temps[cold] = 0.0
        net = net.with_temperatures(temps)
        samples = evolve_to_cycle(net, mod, steps_per_period=2048)
        pm = cycle_average_power(samples, net)
        for k in range(3):
            row, p_em = pm.P[k], pm.P_em[k]
            if k == cold:
                assert np.all(samples.bath_averages[:, k] == 0.0)
                assert np.all(row == 0.0) and p_em == 0.0
                continue
            alone = net.with_hot_bath(k, temps[k])
            pm1 = cycle_average_power(
                evolve_to_cycle(alone, mod, steps_per_period=2048), alone)
            row1, p_em1 = pm1.P[k], pm1.P_em[k]
            assert np.max(np.abs(row - row1)) <= 1e-12 * np.abs(row1).max()
            assert abs(p_em - p_em1) <= 1e-12 * abs(p_em1)
        total = cycle_averaged_moments(samples)
        assert np.max(np.abs(samples.bath_averages.sum(axis=1) - total)) \
            <= 1e-11 * np.abs(total).max()


def per_source_powers(samples, net, source):
    """Scalar reference of the oracle's read-out: bath ``source``'s row of
    P and its P_em, one moment at a time from its share of the average."""
    avg = samples.bath_averages[:, source].reshape(net.N, net.N)
    pref = SI.hbar * net.omega[source]
    row = np.zeros(net.N)
    current = 0.0
    for l in range(net.N):
        if l != source:
            row[l] = pref * 2.0 * net.kappa[l] * avg[l, l].real
            current += (net.g[source, l] * avg[source, l]
                        - net.g[l, source] * avg[l, source])
    return row, pref * (1j * current).real


def warm_networks():
    """The chain and random N = 2-4 networks, every bath warm but one."""
    rng = np.random.default_rng(28)
    cases = [chain(0.05, 0.5)] + [random_network(rng, n) for n in (2, 3, 4)]
    for net, mod in cases:
        temps = rng.uniform(50.0, 400.0, net.N)
        temps[rng.integers(0, net.N)] = 0.0
        yield net.with_temperatures(temps), mod


class TestCycleAveragePower:
    def test_matches_per_source_reference(self):
        # every bath's row from its own share: rows exactly as the scalar
        # loop gives them, P_em to rounding, a cold bath's row and P_em 0,
        # and each warm bath in balance at criterion 6's tolerance
        for net, mod in warm_networks():
            samples = evolve_to_cycle(net, mod)
            pm = cycle_average_power(samples, net)
            for k in range(net.N):
                row, p_em = per_source_powers(samples, net, k)
                assert np.array_equal(pm.P[k], row)
                assert abs(pm.P_em[k] - p_em) <= 1e-15 * abs(p_em)
                n_k = occupation(net.T[k], net.omega[k])
                if n_k == 0.0:
                    assert np.all(pm.P[k] == 0.0) and pm.P_em[k] == 0.0
                scale = SI.hbar * net.omega[k] * 2.0 * net.kappa[k] * n_k
                assert pm.conservation_residual(k) <= 5e-7 * scale

    def test_static_limit_matches_fourier_power(self, chain_static):
        net, mod = chain_static
        hot = net.with_hot_bath(0, T_HOT)
        samples = evolve_to_cycle(hot, mod)
        row = cycle_average_power(samples, hot).P[0]
        pm = power_matrix(hot, mod, 4)
        assert row[3] == pytest.approx(pm.P[0, 3], rel=1e-6)
        assert row[0] == 0.0

    def test_conservation_at_emission_scale(self, chain_modulated):
        # the balance defect at the solver's natural power scale
        # hbar omega 2 kappa n (about 2e4 P_em), and relative to P_em,
        # which the coupling current gives without cancellation
        net, mod = chain_modulated
        hot = net.with_hot_bath(0, T_HOT)
        samples = evolve_to_cycle(hot, mod)
        pm = cycle_average_power(samples, hot)
        row, p_em = pm.P[0], pm.P_em[0]
        n_src = occupation(T_HOT, OMEGA0)
        scale = SI.hbar * OMEGA0 * 2 * KAPPA * n_src
        assert abs(p_em - row.sum()) <= 5e-7 * scale
        assert abs(p_em - row.sum()) <= 1e-12 * p_em

    @pytest.mark.parametrize("n", [3, 1])
    def test_samples_of_another_network_rejected(self, n):
        # samples of a three- or one-resonator network read with the
        # four-resonator chain: their bath shares would fill the wrong slots
        net, mod = random_network(np.random.default_rng(5), n)
        samples = evolve_to_cycle(net.with_temperatures([T_HOT] * n), mod,
                                  steps_per_period=2048)
        hot, _ = both_ends_hot(0.5, 0.05)
        with pytest.raises(ValidationError,
                           match=rf"\({n * n}, {n}\).*\(16, 4\)"):
            cycle_average_power(samples, hot)


class TestBathIndex:
    @pytest.mark.parametrize("k, message", [
        (7, "bath index 7 outside 0..3"), (9, "bath index 9 outside 0..3"),
        (4, "bath index 4 outside 0..3"), (-1, "bath index -1 outside 0..3"),
        (1.5, "bath index 1.5 is not an integer"),
        (True, "bath index True is not an integer")])
    def test_bad_source_rejected_like_every_solver(self, k, message):
        # qle and with_hot_bath share one bath-index check
        net, mod = both_ends_hot(0.5, 0.05)
        for call in (lambda: emitted_power(net, mod, k, 4),
                     lambda: net.with_hot_bath(k, T_HOT)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()


class TestOracleEquivalence:
    def test_random_small_networks(self):
        # the central guard: three structurally different methods cannot
        # share a transcription error, so cycle averages must agree
        rng = np.random.default_rng(42)
        for case in range(6):
            n = int(rng.integers(1, 4))
            net, mod = random_network(rng, n)
            samples = evolve_to_cycle(net, mod, steps_per_period=2048)
            avg = cycle_averaged_moments(samples)
            zeroth = _solve_fourier_nvec(net, mod, 12, net.occupations())[12]
            scale = max(np.abs(zeroth).max(), 1e-30)
            assert np.max(np.abs(avg - zeroth)) <= 1e-5 * scale
