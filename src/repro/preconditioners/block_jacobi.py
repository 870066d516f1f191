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
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
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
        self._forward: list[sp.csr_matrix] = []  # P_s (block inverses)
        self._backward: list[sp.csr_matrix] = []  # M_s (original blocks)
        self._flops: list[float] = []
        for rank in range(partition.n_nodes):
            local = matrix.diagonal_block(rank).toarray()
            n_local = local.shape[0]
            inverse_blocks: list[np.ndarray] = []
            original_blocks: list[np.ndarray] = []
            for lo, hi in split_into_blocks(n_local, self.max_block_size):
                block = local[lo:hi, lo:hi]
                try:
                    chol = scipy.linalg.cho_factor(block, lower=True)
                    inverse = scipy.linalg.cho_solve(chol, np.eye(hi - lo))
                except scipy.linalg.LinAlgError as exc:
                    raise ConfigurationError(
                        f"diagonal block of rank {rank} rows [{lo},{hi}) is not SPD: {exc}"
                    ) from exc
                inverse_blocks.append(inverse)
                original_blocks.append(block)
            if inverse_blocks:
                self._forward.append(sp.block_diag(inverse_blocks, format="csr"))
                self._backward.append(sp.block_diag(original_blocks, format="csr"))
            else:  # pragma: no cover - empty partitions are rejected upstream
                self._forward.append(sp.csr_matrix((0, 0)))
                self._backward.append(sp.csr_matrix((0, 0)))
            self._flops.append(2.0 * self._forward[-1].nnz)
        self._stacked: sp.csr_matrix | None = None

    def _apply_local(self, rank: int, values: np.ndarray) -> np.ndarray:
        return self._forward[rank] @ values

    def flat_apply(self, values: np.ndarray, out: np.ndarray) -> bool:
        # One stacked block-diagonal matvec over all nodes.  Row entries
        # stay in ascending column order, as in the per-rank operators,
        # so the row sums are bit-identical to _apply_local.
        if self._stacked is None:
            self._stacked = sp.block_diag(self._forward, format="csr")
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
