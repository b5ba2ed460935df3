import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floqheat.blocktri import schur_centre, solve_centre, solve_thomas
from floqheat.langevin import _bath_weights, _sideband_blocks as qle_blocks
from floqheat.master import (_moment_mirror, _sideband_blocks as qme_blocks,
                             _sources, power_matrix)
from floqheat.model import SingularBlockError

from conftest import (KAPPA, OMEGA0, assemble_dense, centre_cases, chain,
                      random_network, sideband_ladder)


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def accretive_system(rng, n_max, b, batch=(), ncols=1):
    """Random sideband system of the kind both solvers build, as the kernel
    takes it, (static, Omega, n_max, upper, lower), and a centre rhs: a
    static block with a positive-definite Hermitian part, a random drive
    frequency, whose shift -i m Omega I is skew-Hermitian and keeps every
    block accretive, and constant diagonal stripes that pair to a
    skew-Hermitian coupling (lower = -conj(upper)), strong enough that the
    blocks are far from diagonally dominant."""
    root = cplx(rng, *batch, b, b)
    skew = cplx(rng, *batch, b, b)
    static = (0.1 * np.eye(b) + root @ root.conj().swapaxes(-1, -2) / b
              + 2.0 * (skew - skew.conj().swapaxes(-1, -2)))
    upper = 3.0 * cplx(rng, b)
    system = (static, rng.uniform(0.2, 3.0), n_max, upper, -upper.conj())
    return system, cplx(rng, b, ncols)


def dense_system(static, Omega, n_max, upper, lower):
    """Dense matrix of one system, its ladder formed from the definition."""
    stripes = [np.diag(upper)] * (2 * n_max), [np.diag(lower)] * (2 * n_max)
    return assemble_dense(sideband_ladder(static, Omega, n_max), *stripes)


def dense_solution(system, rhs):
    """Pivoted dense LU of one system, the rhs padded with zero blocks
    around the centre block row; returns (R, B, C) like solve_thomas."""
    n_max, b = system[2], system[0].shape[-1]
    full_rhs = np.zeros((2 * n_max + 1, b, rhs.shape[-1]), dtype=complex)
    full_rhs[n_max] = rhs
    x = np.linalg.solve(dense_system(*system),
                        full_rhs.reshape(-1, rhs.shape[-1]))
    return x.reshape(full_rhs.shape)


def dense_schur(system):
    """Schur complement A_cc - A_co A_oo^-1 A_oc of the centre block row c
    of one system, from its dense matrix and dense LU of the rest o."""
    n_max, b = system[2], system[0].shape[-1]
    full = dense_system(*system)
    c = np.arange(b) + n_max * b
    o = np.setdiff1d(np.arange(full.shape[0]), c)
    if not o.size:
        return full
    return (full[np.ix_(c, c)] - full[np.ix_(c, o)]
            @ np.linalg.solve(full[np.ix_(o, o)], full[np.ix_(o, c)]))


def member(system, idx):
    """Batch member ``idx`` of a system."""
    return (system[0][idx], *system[1:])


def transposed(system):
    """The transposed operator: static block transposed, stripes swapped."""
    static, Omega, n_max, upper, lower = system
    return static.swapaxes(-1, -2), Omega, n_max, lower, upper


def max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_assembly_layout():
    # the dense reference that every kernel test compares against
    rng = np.random.default_rng(0)
    diag, upper, lower = cplx(rng, 4, 2, 2), cplx(rng, 3, 2, 2), cplx(rng, 3, 2, 2)
    full = assemble_dense(diag, upper, lower)
    assert full.shape == (8, 8)
    assert np.array_equal(full[2:4, 2:4], diag[1])
    assert np.array_equal(full[2:4, 4:6], upper[1])
    assert np.array_equal(full[4:6, 2:4], lower[1])
    assert np.all(full[0:2, 4:8] == 0)
    assert np.all(full[6:8, 0:4] == 0)


@pytest.mark.parametrize("nblocks,b", [(3, 2), (5, 3), (9, 4), (1, 5)])
def test_thomas_matches_dense_lu(nblocks, b):
    rng = np.random.default_rng(nblocks * 10 + b)
    system, rhs = accretive_system(rng, nblocks // 2, b)
    x = solve_thomas(*system, rhs)
    assert x.shape == (nblocks, b, 1)
    assert max_rel(x, dense_solution(system, rhs)) <= 1e-13


def test_singular_block_raises():
    rng = np.random.default_rng(1)
    (static, Omega, *rest), rhs = accretive_system(rng, 1, 2)
    # the block of sideband +1, the top block row, vanishes
    with pytest.raises(SingularBlockError):
        solve_thomas(1j * Omega * np.eye(2), Omega, *rest, rhs)
    # a singular centre block, met only by the centre solve
    (_, Omega, *rest), rhs = accretive_system(rng, 0, 2, ncols=3)
    with pytest.raises(SingularBlockError):
        solve_thomas(np.zeros((2, 2)), Omega, *rest, rhs)
    # a batch member that is singular, at sideband -2, fails the whole batch
    (static, Omega, *rest), rhs = accretive_system(rng, 2, 2, batch=(3,),
                                                   ncols=2)
    static[1] = -2j * Omega * np.eye(2)
    with pytest.raises(SingularBlockError):
        solve_thomas(static, Omega, *rest, rhs)


def test_rhs_length_checked():
    rng = np.random.default_rng(2)
    system, rhs = accretive_system(rng, 1, 2, ncols=2)
    static, Omega, n_max, upper, lower = system
    with pytest.raises(ValueError, match="centre block"):
        solve_thomas(*system, rhs[:-1])
    with pytest.raises(ValueError, match="centre block"):
        solve_thomas(*system, rhs[:, 0])
    with pytest.raises(ValueError, match="centre block"):
        solve_thomas(*system, np.zeros((3 * 2, 2)))
    with pytest.raises(ValueError, match="n_max"):
        solve_thomas(static, Omega, 1.5, upper, lower, rhs)
    with pytest.raises(ValueError, match="stripes"):
        solve_thomas(static, Omega, n_max, np.diag(upper), np.diag(lower), rhs)
    with pytest.raises(ValueError, match="stripes"):
        solve_thomas(static, Omega, n_max, upper[:1], lower, rhs)


@pytest.mark.parametrize("n", [-1, 1.5, "1"])
def test_order_checked_before_any_block_is_formed(n, monkeypatch):
    # a bad order is a ValueError, never an IndexError from a ladder
    rng = np.random.default_rng(27)
    (static, Omega, _, upper, lower), rhs = accretive_system(rng, 1, 3)
    monkeypatch.setattr(np, "eye", lambda *a, **k: pytest.fail("ladder formed"))
    with pytest.raises(ValueError, match="n_max"):
        solve_thomas(static, Omega, n, upper, lower, rhs)
    with pytest.raises(ValueError, match="n_max"):
        solve_centre(static, Omega, n, upper, lower, rhs,
                     mirror=np.arange(3))
    with pytest.raises(ValueError, match="n_max"):
        schur_centre(static, Omega, n, upper, lower)


@pytest.mark.parametrize("n_max,b,ncols", [(1, 3, 2), (4, 2, 3), (7, 5, 4)])
def test_multi_column_rhs_matches_dense_lu(n_max, b, ncols):
    rng = np.random.default_rng(100 + n_max * 10 + b)
    system, rhs = accretive_system(rng, n_max, b, ncols=ncols)
    x = solve_thomas(*system, rhs)
    assert x.shape == (2 * n_max + 1, b, ncols)
    dense = dense_solution(system, rhs)
    for c in range(ncols):
        assert max_rel(x[..., c], dense[..., c]) <= 1e-13
        # every column is solved on its own terms
        alone = solve_thomas(*system, rhs[:, c:c + 1])
        assert max_rel(x[..., c:c + 1], alone) <= 1e-15


def test_stacked_blocks_equal_lists():
    rng = np.random.default_rng(3)
    (static, Omega, n_max, upper, lower), rhs = accretive_system(rng, 3, 3,
                                                                 ncols=2)
    from_arrays = solve_thomas(static, Omega, n_max, upper, lower, rhs)
    # lists, and a numpy integer order, as model.check_n_max accepts it
    from_lists = solve_thomas(static.tolist(), Omega, np.int64(n_max),
                              list(upper), list(lower), rhs.tolist())
    assert np.array_equal(from_lists, from_arrays)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 8),
       n_max=st.integers(0, 8),
       batch=st.lists(st.integers(1, 3), min_size=0, max_size=2),
       ncols=st.integers(1, 4), shared_rhs=st.booleans())
def test_batched_members_match_dense_lu_and_unbatched(
        seed, b, n_max, batch, ncols, shared_rhs):
    # random accretive systems with 0-2 batch axes; the rhs either has the
    # batch axes too or is one centre block shared by every member
    rng = np.random.default_rng(seed)
    batch = tuple(batch)
    system, rhs = accretive_system(rng, n_max, b, batch, ncols)
    if not shared_rhs:
        rhs = cplx(rng, *batch, b, ncols)
    x = solve_thomas(*system, rhs)
    assert x.shape == batch + (2 * n_max + 1, b, ncols)
    for idx in np.ndindex(batch):
        b_idx = rhs if shared_rhs else rhs[idx]
        dense = dense_solution(member(system, idx), b_idx)
        assert max_rel(x[idx], dense) <= 1e-12
        assert np.array_equal(x[idx], solve_thomas(*member(system, idx), b_idx))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       n_max=st.integers(0, 4),
       offsets=st.lists(st.floats(-0.1, 0.1), min_size=1, max_size=6))
def test_batched_sideband_operators_match_dense_lu(seed, n, n_max, offsets):
    # the Langevin sideband operator: static blocks stacked over a frequency
    # vector, the two coupling stripes given by their diagonals
    rng = np.random.default_rng(seed)
    net, mod = random_network(rng, n)
    omega = OMEGA0 * (1.0 + np.array(offsets))
    system = qle_blocks(net, mod, omega, n_max)
    rhs = cplx(rng, n, 2)
    x = solve_thomas(*system, rhs)
    for f in range(omega.size):
        dense = dense_solution(member(system, f), rhs)
        assert max_rel(x[f], dense) <= 1e-12
        assert np.array_equal(x[f], solve_thomas(*member(system, f), rhs))


def operator_cases():
    rng = np.random.default_rng(11)
    return [("chain", *chain(0.05, 0.5), 10),
            ("random N=6", *random_network(rng, 6), 8),
            ("random N=8", *random_network(rng, 8), 8),
            ("strong drive", *chain(0.3, 0.5, drive_frac=0.02), 64)]


def test_solver_operators_match_dense_lu():
    # the operators both solvers build, with the right-hand sides they
    # pass: qme's thermal sources on the diagonal moments, and qle's unit
    # observer columns on its transposed operator
    rng = np.random.default_rng(12)
    for name, net, mod, n_max in operator_cases():
        rhs = np.zeros((net.N ** 2, 2), dtype=complex)
        rhs[:net.N] = rng.uniform(0.0, 1.0, (net.N, 2))
        system = qme_blocks(net, mod, n_max)
        x = solve_thomas(*system, rhs)
        assert max_rel(x, dense_solution(system, rhs)) <= 1e-13, name

        omega = OMEGA0 + KAPPA * np.array([-20.0, -0.4, 0.0, 1.3])
        system_t, rhs = transposed(qle_blocks(net, mod, omega, n_max)), np.eye(net.N)
        x = solve_thomas(*system_t, rhs)
        for f in range(omega.size):
            dense = dense_solution(member(system_t, f), rhs)
            assert max_rel(x[f], dense) <= 1e-13, name


def test_every_bath_weight_matches_dense_lu():
    # each weight against its dense value relative to itself, including
    # the cross weights that sit up to 1e-21 below the largest one
    for name, net, mod, n_max in operator_cases():
        omega = net.omega.mean() + KAPPA * np.array([-30.0, -3.0, 0.0, 0.7, 40.0])
        weights = _bath_weights(net, mod, omega, n_max, range(net.N))
        system_t = transposed(qle_blocks(net, mod, omega, n_max))
        for f in range(omega.size):
            rows = dense_solution(member(system_t, f), np.eye(net.N))
            dense = np.einsum("mki->ik", np.abs(rows) ** 2)
            assert np.max(np.abs(weights[f] - dense) / dense) <= 1e-12, name


def mirror_cases():
    rng = np.random.default_rng(21)
    return ([(f"chain n={n}", *chain(0.05, 0.5), n) for n in (1, 4, 9, 64)]
            + [(f"random N={n}", *random_network(rng, n), 6) for n in range(2, 9)]
            + [("strong drive", *chain(0.5, 0.5, drive_frac=0.02), 64)])


def test_mirrored_solve_matches_dense_lu():
    # Hermitian g: the moment operator carries the pair-slot swap, so the
    # kernel forms block rows 0..n alone and eliminates the top sweep only
    rng = np.random.default_rng(22)
    for name, net, mod, n_max in mirror_cases():
        swap = _moment_mirror(net)
        assert swap is not None, name
        rhs = np.zeros((net.N ** 2, 2), dtype=complex)
        rhs[:net.N] = rng.uniform(0.0, 1.0, (net.N, 2))
        system = qme_blocks(net, mod, n_max)
        static = system[0]
        # the mirror of the static block, which maps the block of sideband
        # m to that of -m
        assert np.array_equal(static[swap][:, swap].conj(), static), name
        dense = dense_solution(system, rhs)
        # the mirror that the elimination relies on: x_-n = P conj(x_n),
        # block row by block row
        assert max_rel(dense[::-1, swap].conj(), dense) <= 1e-15, name
        x = solve_centre(*system, rhs, mirror=swap)
        assert max_rel(x, dense[n_max]) <= 1.5e-15, name
        # the same as the two-sided kernel on all 2n+1 block rows, and the
        # solve of the mirrored Schur complement
        assert max_rel(x, solve_thomas(*system, rhs)[n_max]) <= 2e-15, name
        assert np.array_equal(
            np.linalg.solve(schur_centre(*system, swap), rhs), x), name


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 6),
       n_max=st.integers(0, 6),
       batch=st.lists(st.integers(1, 3), min_size=0, max_size=2))
def test_schur_centre_matches_dense_schur(seed, b, n_max, batch):
    # batched random systems: what the elimination adds to the centre
    # block, the static block, against the dense Schur complement's,
    # member by member
    rng = np.random.default_rng(seed)
    batch = tuple(batch)
    system, _ = accretive_system(rng, n_max, b, batch)
    schur = schur_centre(*system)
    assert schur.shape == batch + (b, b)
    for idx in np.ndindex(batch):
        centre = system[0][idx]
        fold = dense_schur(member(system, idx)) - centre
        assert np.abs(schur[idx] - centre - fold).max() <= \
            1e-14 * np.abs(fold).max()


def test_schur_centre_of_moment_systems_matches_dense_schur():
    # the moment operators, two-sided on all 2n+1 block rows and, for
    # Hermitian g, mirrored on rows 0..n
    for name, net, mod, n_max in centre_cases():
        system = qme_blocks(net, mod, n_max)
        centre = system[0]
        fold = dense_schur(system) - centre
        schurs = [schur_centre(*system)]
        swap = _moment_mirror(net)
        if swap is not None:
            schurs.append(schur_centre(*system, swap))
        assert len(schurs) == (1 if name == "non-Hermitian g" else 2), name
        for schur in schurs:
            assert np.abs(schur - centre - fold).max() <= \
                1e-14 * np.abs(fold).max(), name


def test_centre_read_matches_full_solve():
    # the centre block of the production system (mirrored for Hermitian g)
    # against block row n of the two-sided kernel on all 2n+1 block rows
    for name, net, mod, n_max in centre_cases():
        hot = net.with_temperatures(np.full(net.N, 300.0))
        swap = _moment_mirror(hot)
        assert (swap is None) == (name == "non-Hermitian g"), name
        system = (*qme_blocks(hot, mod, n_max),
                  _sources(hot, np.diag(hot.occupations())))
        centre = solve_centre(*system, swap)
        full = solve_thomas(*system)
        assert centre.shape == (net.N ** 2, net.N)
        assert max_rel(centre, full[n_max]) <= 2e-15, name
        # the carry starts from the same elimination: its row n is the
        # centre read of the two-sided system itself
        assert np.array_equal(solve_centre(*system), full[n_max]), name


def test_centre_read_checks_like_the_full_solve():
    rng = np.random.default_rng(26)
    system, rhs = accretive_system(rng, 2, 3, ncols=2)
    static, Omega, _, upper, lower = system
    with pytest.raises(ValueError, match="n_max"):
        solve_centre(static, Omega, -2, upper, lower, rhs)
    with pytest.raises(ValueError, match="centre block"):
        solve_centre(*system, rhs[:-1])
    with pytest.raises(ValueError, match="mirror"):
        solve_centre(*system, rhs, mirror=np.arange(2))
    with pytest.raises(SingularBlockError, match="non-finite"):
        solve_centre(*system, np.full_like(rhs, np.nan))
    # the block of sideband +2, the top block row, vanishes
    with pytest.raises(SingularBlockError, match="singular block"):
        solve_centre(2j * Omega * np.eye(3), Omega, 2, upper, lower, rhs)


def test_mirror_needs_exactly_hermitian_g(monkeypatch):
    # a g one ulp off Hermitian, and a plainly non-Hermitian one, take the
    # two-sided elimination: both sweeps stacked in every block inversion
    net, mod = chain(0.05, 0.5)
    ulp, skewed = np.array(net.g), np.array(net.g)
    ulp[0, 1] = np.nextafter(ulp[0, 1].real, np.inf) + 1j * ulp[0, 1].imag
    skewed[0, 1] *= 1.5
    nets = [dataclasses.replace(net, g=g, hermitian=h).with_temperatures(
        [300.0, 0.0, 0.0, 300.0]) for g, h in ((net.g, True), (ulp, True),
                                               (skewed, False))]
    sweeps, inv = [], np.linalg.inv

    def spy(a):
        sweeps.append(a.shape[-3])
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    powers = []
    for hot, expected in zip(nets, (1, 2, 2)):
        sweeps.clear()
        powers.append(power_matrix(hot, mod, 10))
        assert sweeps == [expected] * 10
    assert _moment_mirror(nets[0]) is not None
    assert _moment_mirror(nets[1]) is None and _moment_mirror(nets[2]) is None
    # no jump where the mirror switches off
    exact, near = powers[:2]
    scale = np.abs(exact.P).max()
    assert np.abs(near.P - exact.P).max() <= 1e-14 * scale
    assert np.abs(near.P_em - exact.P_em).max() <= 1e-14 * scale


def test_mirror_length_checked():
    rng = np.random.default_rng(23)
    system, rhs = accretive_system(rng, 2, 4)
    with pytest.raises(ValueError, match="mirror"):
        solve_centre(*system, rhs, mirror=np.arange(3))
    with pytest.raises(ValueError, match="mirror"):
        schur_centre(*system, mirror=np.arange(16).reshape(4, 4))
    # the outward carry is two-sided only
    with pytest.raises(TypeError, match="mirror"):
        solve_thomas(*system, rhs, mirror=np.arange(4))
