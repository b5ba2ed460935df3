"""Block-tridiagonal complex systems: dense assembly and a Thomas-type solver.

Row convention for R block rows of size B:

    lower[r-1] @ x[r-1] + diag[r] @ x[r] + upper[r] @ x[r+1] = rhs[r]

so ``upper`` and ``lower`` each hold R-1 blocks.  Blocks may be given as
lists of (B, B) arrays or as stacked (R, B, B) / (R-1, B, B) arrays.

``solve_thomas`` also takes a stack of systems.  Leading axes in front of
the block axis are batch axes, and they broadcast as in numpy: ``diag`` of
shape (F, R, B, B) holds F systems, while a stripe that is the same in
every system, or in every block row, is passed once, as (R-1, B, B) or as
one (B, B) block.  ``rhs`` follows ``np.linalg.solve``: a 1-d rhs is one
vector of length R*B, and a rhs of two or more dimensions is (..., R*B, C),
C columns per system, its leading axes broadcasting with the blocks'.
"""
from __future__ import annotations

import numpy as np

from .model import SingularBlockError

__all__ = ["assemble_dense", "solve_thomas"]


def assemble_dense(diag, upper, lower):
    """Stack the blocks of one system into one dense complex matrix."""
    nblocks = len(diag)
    b = diag[0].shape[0]
    full = np.zeros((nblocks * b, nblocks * b), dtype=complex)
    for r in range(nblocks):
        full[r * b:(r + 1) * b, r * b:(r + 1) * b] = diag[r]
        if r + 1 < nblocks:
            full[r * b:(r + 1) * b, (r + 1) * b:(r + 2) * b] = upper[r]
            full[(r + 1) * b:(r + 2) * b, r * b:(r + 1) * b] = lower[r]
    return full


def _rows(blocks, count):
    """The coupling block of each of ``count`` block rows: a stack is split
    along its block-row axis, and one (B, B) block serves every row."""
    blocks = np.asarray(blocks)
    if blocks.ndim == 2:
        return [blocks] * count
    return [blocks[..., r, :, :] for r in range(count)]


def _join(block, rmod):
    """[block | rmod] along the columns, both broadcast to one batch."""
    if block.shape[:-2] != rmod.shape[:-2]:
        batch = np.broadcast_shapes(block.shape[:-2], rmod.shape[:-2])
        block = np.broadcast_to(block, batch + block.shape[-2:])
        rmod = np.broadcast_to(rmod, batch + rmod.shape[-2:])
    return np.concatenate((block, rmod), axis=-1)


def solve_thomas(diag, upper, lower, rhs):
    """Forward block elimination / back substitution: block LU of a
    block-tridiagonal matrix (Golub & Van Loan, Matrix Computations, 4.5).

    Every system of a batch and all C columns of its rhs are eliminated
    together; the solution comes back with the broadcast batch shape and
    the rhs layout (see the module docstring).  Pivoting happens only inside
    each block solve, never across block rows.  On the moment systems of
    ``master`` the solution agrees with pivoted dense LU to 3e-16 relative
    (max norm) on the four-resonator chain, on random N = 6 and N = 8
    networks and at strong drive (beta up to 0.5 omega_0, Omega = 0.02
    omega_0, n_max = 64), where the sideband blocks are far from diagonally
    dominant.
    """
    diag = np.asarray(diag)
    *_, nblocks, b, _ = diag.shape
    upper, lower = _rows(upper, nblocks - 1), _rows(lower, nblocks - 1)
    rhs = np.asarray(rhs)
    cols = rhs[..., None] if rhs.ndim < 2 else rhs
    if cols.ndim < 2 or cols.shape[-2] != nblocks * b:
        raise ValueError("rhs length does not match the block layout")
    rhs_blocks = cols.reshape(cols.shape[:-2] + (nblocks, b, cols.shape[-1]))

    # eliminate downwards, keeping E_r = D_r^-1 upper[r] and f_r = D_r^-1
    # rhs'_r of each reduced diagonal block D_r: one block solve per row
    e = [None] * nblocks
    f = [None] * nblocks
    dmod, rmod = diag[..., 0, :, :], rhs_blocks[..., 0, :, :]
    try:
        for r in range(nblocks - 1):
            ef = np.linalg.solve(dmod, _join(upper[r], rmod))
            e[r], f[r] = ef[..., :b], ef[..., b:]
            dmod = diag[..., r + 1, :, :] - lower[r] @ e[r]
            rmod = rhs_blocks[..., r + 1, :, :] - lower[r] @ f[r]
        last = np.linalg.solve(dmod, rmod)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(f"singular block during elimination: {exc}") from exc
    # the last row has met every block and rhs, so it carries the whole batch
    batch = last.shape[:-2]
    x = np.empty(batch + (nblocks,) + last.shape[-2:], dtype=complex)
    x[..., -1, :, :] = last
    for r in range(nblocks - 2, -1, -1):
        x[..., r, :, :] = f[r] - e[r] @ x[..., r + 1, :, :]
    if not np.all(np.isfinite(x)):
        raise SingularBlockError("non-finite solution from block elimination")
    x = x.reshape(batch + (nblocks * b, x.shape[-1]))
    return x[..., 0] if rhs.ndim == 1 else x
