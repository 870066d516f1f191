"""Block Jacobi preconditioner — the paper's choice (§5).

"We use a block Jacobi preconditioner, with non-overlapping blocks and
all rows of a block belonging to a single node.  The blocks are
uniformly sized and we use as few of them as possible, with a maximum
block size of 10."

Within each node's row range we therefore split the local rows into
``ceil(n_local / max_block_size)`` nearly equal blocks, factor the
corresponding diagonal sub-blocks of ``A`` (dense Cholesky — blocks are
tiny), and assemble two sparse block-diagonal operators per node:

* ``P_s`` — the preconditioner action (inverses of the blocks),
* ``M_s = P_s⁻¹`` — the original blocks, used to solve ``P_ff r_f = v``
  exactly during reconstruction (Alg. 2 line 6).

Applying either is a single local CSR matvec per node per iteration.

Every block-diagonal operator here — these, the stacked all-node ``P``
of :meth:`BlockJacobiPreconditioner.flat_apply`, and the serial inner
preconditioner of :func:`repro.solvers.inner.serial_block_jacobi` — is
built by :class:`DiagonalBlocks`, in whole-array passes rather than one
scipy call per block:

* **nnz contract.** Each block is stored *dense*: every one of its
  ``k²`` entries is kept, exact zeros included (the inverse of a block
  that straddles a grid line is itself block diagonal).  The flop bill
  of one application is ``2·nnz``, so it is a function of the block
  sizes alone, not of how a scipy version stores explicit zeros.
  Rows list their block's columns in ascending order, which fixes the
  matvec's accumulation order.
* **Outer factorisation.** Each block is factored by LAPACK ``dpotrf``
  (lower) and inverted by ``dpotrs`` against the identity — the very
  calls, with the same arguments, that ``scipy.linalg.cho_factor`` /
  ``cho_solve`` make, called directly to skip their per-call checks.
  Same routines, same inputs, same bits.
* **Inner inversion.** The inner path inverts all blocks of one size in
  one stacked ``np.linalg.inv`` call, which runs the same LAPACK
  ``gesv`` per block as a per-block call does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.linalg.lapack as lapack
import scipy.sparse as sp

from ..distribution.matrix import DistributedMatrix
from ..exceptions import ConfigurationError
from ..kernels.base import csr_matvec
from .base import BlockDiagonalPreconditioner


def split_into_blocks(n_local: int, max_block_size: int) -> list[tuple[int, int]]:
    """Uniform partition of ``range(n_local)`` into blocks of size ≤ max.

    "As few blocks as possible, uniformly sized": ``ceil(n/max)`` blocks
    whose sizes differ by at most one.
    """
    if max_block_size < 1:
        raise ConfigurationError(f"max_block_size must be >= 1, got {max_block_size}")
    if n_local == 0:
        return []
    n_blocks = -(-n_local // max_block_size)
    base, extra = divmod(n_local, n_blocks)
    bounds: list[tuple[int, int]] = []
    start = 0
    for b in range(n_blocks):
        size = base + (1 if b < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


class BlockFailure(Exception):
    """A diagonal block could not be inverted (``block`` is its index)."""

    def __init__(self, block: int, reason: str):
        super().__init__(reason)
        self.block = block


class DiagonalBlocks:
    """The dense diagonal blocks of a square CSR matrix, as CSR layout.

    ``sizes`` tiles the diagonal: block ``b`` covers rows and columns
    ``[starts[b], starts[b] + sizes[b])``.  ``values`` holds every block
    row-major, back to back — which is exactly the ``data`` array of the
    block-diagonal CSR operator whose ``indptr``/``indices`` are
    ``self.indptr``/``self.indices`` (every entry of a block stored,
    see the module docstring).  ``values`` equals the blocks of
    ``matrix.toarray()``: stored duplicates are summed in storage order
    onto zero, as ``toarray`` does.
    """

    def __init__(self, matrix: sp.csr_matrix, sizes: Sequence[int]):
        sizes = np.asarray(sizes, dtype=np.int64)
        n = int(sizes.sum())
        if matrix.shape != (n, n):
            raise ConfigurationError(f"blocks cover {n} rows, matrix is {matrix.shape}")
        self.sizes = sizes
        self.starts = np.cumsum(sizes) - sizes
        #: Offset of each block in ``values`` (one past the end last).
        self.offsets = np.concatenate(([0], np.cumsum(sizes * sizes)))
        nnz = int(self.offsets[-1])
        row_sizes = np.repeat(sizes, sizes)
        row_starts = np.repeat(self.starts, sizes)
        indptr = np.concatenate(([0], np.cumsum(row_sizes)))
        indices = np.arange(nnz) + np.repeat(row_starts - indptr[:-1], row_sizes)
        index_dtype = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
        self.indptr = indptr.astype(index_dtype)
        self.indices = indices.astype(index_dtype)

        # Entry (i, j) of A inside row i's block sits at
        # indptr[i] + j - row_starts[i] of the block-diagonal layout.
        rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
        cols = matrix.indices.astype(np.int64)
        offset = cols - row_starts[rows]
        inside = (offset >= 0) & (offset < row_sizes[rows])
        self.values = np.zeros(nnz)
        np.add.at(self.values, indptr[rows[inside]] + offset[inside], matrix.data[inside])

    def block(self, b: int) -> np.ndarray:
        """Block ``b`` as a ``(k, k)`` view of :attr:`values`."""
        k = int(self.sizes[b])
        return self.values[self.offsets[b] : self.offsets[b + 1]].reshape(k, k)

    def cholesky_inverse(self) -> np.ndarray:
        """Every block's inverse by ``dpotrf``/``dpotrs``, laid out as ``values``.

        Raises :class:`BlockFailure` for the first block (in row order)
        that is not symmetric positive definite.
        """
        inverse = np.empty_like(self.values)
        offsets = self.offsets.tolist()
        identities: dict[int, np.ndarray] = {}
        for b, k in enumerate(self.sizes.tolist()):
            eye = identities.get(k)
            if eye is None:
                eye = identities[k] = np.eye(k)
            lo, hi = offsets[b], offsets[b + 1]
            factor, info = lapack.dpotrf(self.values[lo:hi].reshape(k, k), lower=1, clean=0)
            if info == 0:
                solution, info = lapack.dpotrs(factor, eye, lower=1)
            if info != 0:
                raise BlockFailure(
                    b, f"{info}-th leading minor of the array is not positive definite"
                )
            inverse[lo:hi].reshape(k, k)[...] = solution
        return inverse

    def inverse(self) -> np.ndarray:
        """Every block's ``np.linalg.inv``, one stacked call per block size.

        Raises :class:`BlockFailure` for the first singular block.
        """
        inverse = np.empty_like(self.values)
        for k in np.unique(self.sizes).tolist():
            positions = self.offsets[:-1][self.sizes == k, None] + np.arange(k * k)
            stack = self.values[positions].reshape(-1, k, k)
            try:
                inverse[positions] = np.linalg.inv(stack).reshape(-1, k * k)
            except np.linalg.LinAlgError:
                for b in range(self.sizes.size):
                    try:
                        np.linalg.inv(self.block(b))
                    except np.linalg.LinAlgError as exc:
                        raise BlockFailure(b, str(exc)) from exc
                raise  # pragma: no cover - the stacked call failed on some block
        return inverse

    def operator(self, data: np.ndarray, lo: int = 0, hi: int | None = None) -> sp.csr_matrix:
        """The block-diagonal CSR operator with ``data`` on rows ``[lo, hi)``.

        ``data`` is laid out as :attr:`values`; ``lo``/``hi`` must fall on
        block boundaries.  The operator's ``data`` is a view of ``data``.
        """
        hi = self.indptr.size - 1 if hi is None else hi
        start, stop = int(self.indptr[lo]), int(self.indptr[hi])
        return sp.csr_matrix(
            (data[start:stop], self.indices[start:stop] - lo, self.indptr[lo : hi + 1] - start),
            shape=(hi - lo, hi - lo),
        )


class BlockJacobiPreconditioner(BlockDiagonalPreconditioner):
    """Non-overlapping, node-aligned block Jacobi (max block size 10)."""

    name = "block_jacobi"

    def __init__(self, max_block_size: int = 10):
        super().__init__()
        if max_block_size < 1:
            raise ConfigurationError(f"max_block_size must be >= 1, got {max_block_size}")
        self.max_block_size = int(max_block_size)

    def _setup_impl(self, matrix: DistributedMatrix) -> None:
        partition = matrix.partition
        bounds = [partition.bounds(rank) for rank in range(partition.n_nodes)]
        blocks = DiagonalBlocks(
            matrix.global_csr,
            [hi - lo for rank in range(partition.n_nodes) for lo, hi in self.block_bounds(rank)],
        )
        try:
            inverse = blocks.cholesky_inverse()
        except BlockFailure as exc:
            start = int(blocks.starts[exc.block])
            rank = partition.owner(start)
            lo = start - bounds[rank][0]
            hi = lo + int(blocks.sizes[exc.block])
            raise ConfigurationError(
                f"diagonal block of rank {rank} rows [{lo},{hi}) is not SPD: {exc}"
            ) from exc
        #: All nodes' P_s stacked: one matvec per flat application.
        self._stacked = blocks.operator(inverse)
        self._forward = [blocks.operator(inverse, lo, hi) for lo, hi in bounds]  # P_s
        self._backward = [blocks.operator(blocks.values, lo, hi) for lo, hi in bounds]  # M_s
        self._flops = [2.0 * forward.nnz for forward in self._forward]

    def _apply_local(self, rank: int, values: np.ndarray) -> np.ndarray:
        return self._forward[rank] @ values

    def flat_apply(self, values: np.ndarray, out: np.ndarray) -> bool:
        # One stacked block-diagonal matvec over all nodes.  Its rows
        # are the per-rank operators' rows, same entries in the same
        # order, so the row sums are bit-identical to _apply_local.
        csr_matvec(self._stacked, values, out)
        return True

    def _apply_inverse_local(self, rank: int, values: np.ndarray) -> np.ndarray:
        return self._backward[rank] @ values

    def _apply_flops(self, rank: int) -> float:
        return self._flops[rank]

    def block_bounds(self, rank: int) -> list[tuple[int, int]]:
        """The local block layout of one node (for tests/diagnostics)."""
        n_local = self.matrix.partition.size_of(rank)
        return split_into_blocks(n_local, self.max_block_size)
