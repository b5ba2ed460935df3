import numpy as np
import pytest

from floqheat.blocktri import assemble_dense, solve_thomas
from floqheat.model import SingularBlockError


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

