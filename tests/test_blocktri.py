import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floqheat.blocktri import assemble_dense, solve_thomas
from floqheat.langevin import _sideband_blocks
from floqheat.model import SingularBlockError

from conftest import OMEGA0, random_network


def random_system(rng, nblocks, b):
    # diagonally dominant blocks keep the elimination well conditioned
    diag = [rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
            + 4.0 * b * np.eye(b) for _ in range(nblocks)]
    upper = [rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
             for _ in range(nblocks - 1)]
    lower = [rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
             for _ in range(nblocks - 1)]
    rhs = rng.standard_normal(nblocks * b) + 1j * rng.standard_normal(nblocks * b)
    return diag, upper, lower, rhs


def test_assembly_layout():
    rng = np.random.default_rng(0)
    diag, upper, lower, _ = random_system(rng, 4, 2)
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
    diag, upper, lower, rhs = random_system(rng, nblocks, b)
    full = assemble_dense(diag, upper, lower)
    x_dense = np.linalg.solve(full, rhs)
    x_thomas = solve_thomas(diag, upper, lower, rhs)
    assert np.max(np.abs(x_dense - x_thomas)) <= 1e-12 * np.max(np.abs(x_dense))


def test_singular_block_raises():
    rng = np.random.default_rng(1)
    diag, upper, lower, rhs = random_system(rng, 3, 2)
    diag[0] = np.zeros((2, 2), dtype=complex)
    with pytest.raises(SingularBlockError):
        solve_thomas(diag, upper, lower, rhs)
    with pytest.raises(SingularBlockError):
        solve_thomas(np.stack(diag), upper, lower, np.stack([rhs] * 3, axis=1))


def test_rhs_length_checked():
    rng = np.random.default_rng(2)
    diag, upper, lower, rhs = random_system(rng, 3, 2)
    with pytest.raises(ValueError):
        solve_thomas(diag, upper, lower, rhs[:-1])
    cols = np.stack([rhs, rhs], axis=1)
    with pytest.raises(ValueError):
        solve_thomas(diag, upper, lower, cols[:-1])
    with pytest.raises(ValueError):
        solve_thomas(diag, upper, lower, cols.reshape(6, 2, 1))


@pytest.mark.parametrize("nblocks,b,ncols", [(1, 3, 2), (4, 2, 3), (7, 5, 4)])
def test_multi_column_rhs_matches_dense_lu(nblocks, b, ncols):
    rng = np.random.default_rng(100 + nblocks * 10 + b)
    diag, upper, lower, _ = random_system(rng, nblocks, b)
    rhs = (rng.standard_normal((nblocks * b, ncols))
           + 1j * rng.standard_normal((nblocks * b, ncols)))
    x_thomas = solve_thomas(diag, upper, lower, rhs)
    assert x_thomas.shape == rhs.shape
    full = assemble_dense(diag, upper, lower)
    for c in range(ncols):
        x_dense = np.linalg.solve(full, rhs[:, c])
        assert np.max(np.abs(x_dense - x_thomas[:, c])) <= \
            1e-12 * np.max(np.abs(x_dense))


def test_stacked_blocks_equal_lists():
    rng = np.random.default_rng(3)
    diag, upper, lower, rhs = random_system(rng, 6, 3)
    cols = np.stack([rhs, 2j * rhs[::-1]], axis=1)
    for b_rhs in (rhs, cols):
        from_lists = solve_thomas(diag, upper, lower, b_rhs)
        from_arrays = solve_thomas(np.stack(diag), np.stack(upper),
                                   np.stack(lower), b_rhs)
        assert np.array_equal(from_lists, from_arrays)



def check_members(diag, upper, lower, rhs):
    """Solve a batch of systems at once, then check every member against
    pivoted dense LU of that member (to 1e-12 relative) and against the
    unbatched call on the same member (bit for bit).  Stripes and rhs that
    lack the leading batch axis are shared by every member."""
    x = solve_thomas(diag, upper, lower, rhs)
    nblocks = diag.shape[-3]

    def member(a, f, core):
        return a[f] if a.ndim > core else a

    for f in range(diag.shape[0]):
        up, lo = member(upper, f, 3), member(lower, f, 3)
        b_f = member(rhs, f, 2) if rhs.ndim > 1 else rhs
        stripe = (nblocks - 1,) + diag.shape[-2:]
        full = assemble_dense(diag[f], np.broadcast_to(up, stripe),
                              np.broadcast_to(lo, stripe))
        dense = np.linalg.solve(full, b_f)
        assert np.max(np.abs(x[f] - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert np.array_equal(x[f], solve_thomas(diag[f], up, lo, b_f))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 5),
       nblocks=st.integers(2, 6), b=st.integers(1, 4), ncols=st.integers(0, 3),
       stripes=st.sampled_from(["per-member", "shared", "one-block"]),
       shared_rhs=st.booleans())
def test_batched_members_match_dense_lu_and_unbatched(
        seed, batch, nblocks, b, ncols, stripes, shared_rhs):
    rng = np.random.default_rng(seed)
    systems = [random_system(rng, nblocks, b) for _ in range(batch)]
    diag = np.stack([np.stack(s[0]) for s in systems])
    upper = np.stack([np.stack(s[1]) for s in systems])
    lower = np.stack([np.stack(s[2]) for s in systems])
    if stripes == "shared":
        upper, lower = upper[0], lower[0]
    elif stripes == "one-block":
        upper, lower = upper[0, 0], lower[0, 0]
    # ncols = 0 draws a 1-d rhs vector, the other values that many columns
    shape = (nblocks * b,) if ncols == 0 else (nblocks * b, ncols)
    if not shared_rhs and ncols:
        shape = (batch,) + shape
    rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    check_members(diag, upper, lower, rhs)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       n_max=st.integers(0, 4),
       offsets=st.lists(st.floats(-0.1, 0.1), min_size=1, max_size=6))
def test_batched_sideband_operators_match_dense_lu(seed, n, n_max, offsets):
    # the Langevin sideband operator: blocks stacked over a frequency vector,
    # the two coupling stripes one block each
    rng = np.random.default_rng(seed)
    net, mod = random_network(rng, n)
    omega = OMEGA0 * (1.0 + np.array(offsets))
    diag, upper, lower = _sideband_blocks(net, mod, omega, n_max)
    size = (2 * n_max + 1) * n
    rhs = rng.standard_normal((size, 2)) + 1j * rng.standard_normal((size, 2))
    check_members(diag, upper, lower, rhs)
