"""Communication plan for the distributed sparse matrix-vector product.

Given a sparse matrix ``A`` and a block-row partition, node ``l`` needs,
besides its own block of the input vector, the entries of ``p`` whose
global indices appear as *off-block column indices* in its row block
``A[I_l, :]``.  The paper calls the set of indices owned by ``s`` and
needed by ``l`` the set ``I_{s,l}`` (§2.2.1); these sets drive both the
plain SpMV halo exchange and the redundancy analysis of the augmented
SpMV.

:class:`SpMVPlan` precomputes, once per (matrix, partition):

* for every ordered pair ``(s, l)``: the global indices ``I_{s,l}``,
  their local offsets in ``s``'s block (for packing), and their
  positions in ``l``'s ghost buffer (for unpacking);
* for every node: the sorted ghost-column index list and a
  column-compressed local CSR matrix whose columns are
  ``[own block | ghost block]``, so the local product is a single
  ``csr @ dense`` call.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

from ..exceptions import ConfigurationError
from .partition import BlockRowPartition


@dataclasses.dataclass(frozen=True)
class SendDescriptor:
    """One (src → dst) leg of the halo exchange."""

    src: int
    dst: int
    #: Global indices ``I_{src,dst}`` (sorted ascending).
    global_indices: np.ndarray
    #: The same indices as offsets into src's local block.
    local_indices: np.ndarray
    #: Positions of these entries inside dst's ghost buffer.
    ghost_positions: np.ndarray

    @property
    def count(self) -> int:
        return int(self.global_indices.size)


class SpMVPlan:
    """Precomputed halo-exchange plan for one (matrix, partition) pair."""

    def __init__(self, matrix: sp.csr_matrix, partition: BlockRowPartition):
        matrix = sp.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError(f"matrix must be square, got {matrix.shape}")
        if matrix.shape[0] != partition.n:
            raise ConfigurationError(
                f"matrix is {matrix.shape[0]}x{matrix.shape[0]}, partition expects {partition.n}"
            )
        self.partition = partition
        n_nodes = partition.n_nodes

        #: sends[src] = list of SendDescriptor, ordered by dst.
        self.sends: list[list[SendDescriptor]] = [[] for _ in range(n_nodes)]
        #: recvs[dst] = list of SendDescriptor, ordered by src (same objects).
        self.recvs: list[list[SendDescriptor]] = [[] for _ in range(n_nodes)]
        #: ghost_globals[dst] = sorted global indices of dst's ghost columns.
        self.ghost_globals: list[np.ndarray] = []
        #: local_matrices[rank] = column-compressed CSR of A[I_rank, :].
        self.local_matrices: list[sp.csr_matrix] = []
        #: nnz of each row block (for flop accounting).
        self.local_nnz: list[int] = []

        descriptors: dict[tuple[int, int], dict[str, np.ndarray]] = {}
        for dst in range(n_nodes):
            lo, hi = partition.bounds(dst)
            block = matrix[lo:hi, :].tocsr()
            self.local_nnz.append(int(block.nnz))
            needed = np.unique(block.indices)
            ghosts = needed[(needed < lo) | (needed >= hi)]
            self.ghost_globals.append(ghosts.astype(np.int64))

            # Column compression: [own | ghosts] -> local column ids.
            col_map = np.empty(partition.n, dtype=np.int64)
            n_local = hi - lo
            col_map[lo:hi] = np.arange(n_local)
            col_map[ghosts] = n_local + np.arange(ghosts.size)
            compressed = sp.csr_matrix(
                (block.data, col_map[block.indices], block.indptr),
                shape=(n_local, n_local + ghosts.size),
            )
            self.local_matrices.append(compressed)

            if ghosts.size:
                owners = partition.owners(ghosts)
                boundaries = np.flatnonzero(np.diff(owners)) + 1
                for chunk_idx, chunk in zip(
                    np.split(np.arange(ghosts.size), boundaries),
                    np.split(ghosts, boundaries),
                ):
                    src = int(owners[chunk_idx[0]])
                    descriptors[(src, dst)] = {
                        "global": chunk,
                        "positions": chunk_idx,
                    }

        for (src, dst), payload in sorted(descriptors.items()):
            descriptor = SendDescriptor(
                src=src,
                dst=dst,
                global_indices=payload["global"],
                local_indices=partition.to_local(src, payload["global"]),
                ghost_positions=payload["positions"],
            )
            self.sends[src].append(descriptor)
            self.recvs[dst].append(descriptor)

        # Fused-kernel caches (built lazily; see the accessors below).
        self._flat_cache: FlatPlanCache | None = None
        self._message_templates: dict[str, tuple] = {}
        #: channel -> CompiledExchange (valid for the owning cluster;
        #: a plan lives inside one DistributedMatrix, which binds it to
        #: exactly one cluster).
        self._compiled_exchanges: dict[str, object] = {}
        #: (phi, rule, destinations) -> RedundancyPlan, with its fused
        #: caches and compiled exchange (same binding as above).
        self._redundancy_plans: dict[tuple[int, str, str], object] = {}

    # ------------------------------------------------------------------ queries

    @property
    def n_nodes(self) -> int:
        return self.partition.n_nodes

    def halo_indices(self, src: int, dst: int) -> np.ndarray:
        """``I_{src,dst}``: global indices src sends to dst (may be empty)."""
        for descriptor in self.sends[src]:
            if descriptor.dst == dst:
                return descriptor.global_indices
        return np.empty(0, dtype=np.int64)

    def natural_destinations(self, src: int) -> tuple[int, ...]:
        """Nodes that receive a (non-empty) natural halo message from src."""
        return tuple(d.dst for d in self.sends[src] if d.count > 0)

    def multiplicity(self, src: int) -> np.ndarray:
        """m(i) for every local index of src.

        m(i) is the number of nodes that entry i is sent to during the
        plain SpMV (§2.2.1); entries with m(i) == 0 would have no
        off-node copy at all without augmentation.
        """
        counts = np.zeros(self.partition.size_of(src), dtype=np.int64)
        for descriptor in self.sends[src]:
            counts[descriptor.local_indices] += 1
        return counts

    def total_halo_entries(self) -> int:
        """Total vector entries moved per SpMV (all node pairs)."""
        return sum(d.count for sends in self.sends for d in sends)

    # --------------------------------------------------- fused-kernel caches

    def flat_cache(self) -> "FlatPlanCache":
        """Precomputed gather indices and the stacked operator.

        Built once per plan on first use by the ``vectorized`` kernel
        backend; see :class:`FlatPlanCache` for the invariants that make
        the fused execution bit-identical to the per-rank loops.
        """
        if self._flat_cache is None:
            self._flat_cache = FlatPlanCache(self)
        return self._flat_cache

    def message_template(self, channel: str) -> tuple:
        """The halo exchange's message list, precomputed per channel.

        Identical — same order, same ``(src, dst, nbytes, channel,
        merged)`` tuples — to the list the per-rank loop assembles on
        every call: for each source rank in ascending order, one entry
        per non-empty send descriptor.
        """
        template = self._message_templates.get(channel)
        if template is None:
            template = tuple(
                (src, d.dst, d.count * 8, channel, False)
                for src in range(self.n_nodes)
                for d in self.sends[src]
                if d.count > 0
            )
            self._message_templates[channel] = template
        return template


class FlatPlanCache:
    """Index/operator caches for the fused (vectorized) SpMV.

    * ``ghost_offsets[r]`` — where rank ``r``'s ghost buffer begins in
      the fused ghost array (rank-major, each buffer in sorted
      ghost-index order, exactly like the per-rank buffers).
    * ``ghost_gather`` — global indices such that
      ``ghost_flat = x_flat[ghost_gather]`` fills every rank's ghost
      buffer in one gather.  Each ghost entry has exactly one owner, so
      this covers the fused buffer exactly once and yields the same
      values the per-descriptor scatter produces.
    * ``stacked_matrix`` — the ``(n, n + G)`` CSR operator whose rows
      are the per-rank column-compressed row blocks with columns
      remapped onto ``[x_flat | ghost_flat]``.  The per-row data order
      of the local matrices is preserved, so
      ``stacked_matrix @ concat(x_flat, ghost_flat)`` accumulates every
      row in the same order as the per-rank products — bit-identical
      results.
    * ``local_flops`` — the per-rank SpMV bill ``(rank, 2 * nnz_r)``
      for the batched :meth:`~repro.cluster.communicator.VirtualCluster.charge`.
    """

    def __init__(self, plan: SpMVPlan):
        partition = plan.partition
        n = partition.n
        sizes = [int(g.size) for g in plan.ghost_globals]
        self.ghost_offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self.total_ghosts = int(self.ghost_offsets[-1])
        self.ghost_gather = (
            np.concatenate(plan.ghost_globals)
            if self.total_ghosts
            else np.empty(0, dtype=np.int64)
        ).astype(np.int64)

        data_parts: list[np.ndarray] = []
        index_parts: list[np.ndarray] = []
        indptr_parts: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
        running = 0
        for rank, local in enumerate(plan.local_matrices):
            lo, hi = partition.bounds(rank)
            n_local = hi - lo
            cols = local.indices.astype(np.int64)
            remapped = np.where(
                cols < n_local,
                cols + lo,
                cols - n_local + n + int(self.ghost_offsets[rank]),
            )
            data_parts.append(local.data)
            index_parts.append(remapped)
            indptr_parts.append(local.indptr[1:].astype(np.int64) + running)
            running += int(local.indptr[-1])
        self.stacked_matrix = sp.csr_matrix(
            (
                np.concatenate(data_parts) if data_parts else np.empty(0),
                np.concatenate(index_parts) if index_parts else np.empty(0, dtype=np.int64),
                np.concatenate(indptr_parts),
            ),
            shape=(n, n + self.total_ghosts),
        )
        self.local_flops = tuple(
            (rank, 2 * int(nnz)) for rank, nnz in enumerate(plan.local_nnz)
        )
        self._fused_matrix: sp.csr_matrix | None = None

    def fused_matrix(self) -> sp.csr_matrix:
        """The ``(n, n)`` operator with the plan's per-row data order.

        Remaps the stacked operator's ghost columns through
        ``ghost_gather`` (each ghost column reads the entry its gather
        would have copied), so ``fused_matrix @ x_flat`` needs neither
        the ghost gather nor the stacked-input copy — halo assembly and
        matvec collapse into one traversal.  Per-row data order (and
        with it every row's summation order) is untouched, so the
        product is bit-identical to the stacked one.  Built lazily: only
        the ``compiled`` backend pays for the second index array.
        """
        if self._fused_matrix is None:
            stacked = self.stacked_matrix
            n = stacked.shape[0]
            indices = stacked.indices.astype(np.int64, copy=True)
            ghost = indices >= n
            if ghost.any():
                indices[ghost] = self.ghost_gather[indices[ghost] - n]
            self._fused_matrix = sp.csr_matrix(
                (stacked.data, indices, stacked.indptr), shape=(n, n)
            )
        return self._fused_matrix
