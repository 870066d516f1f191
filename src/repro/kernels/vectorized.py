"""The ``vectorized`` backend: fused flat-array numerics (the default).

Every distributed vector is one contiguous flat array with per-node
block views, so:

* elementwise updates (axpy/aypx/scale/subtract/assign) run as a single
  whole-array NumPy operation — elementwise rounding is independent of
  loop batching, so the results equal the per-rank loop bit for bit;
* the SpMV halo fill is one precomputed gather
  (``ghost_flat = x_flat[ghost_gather]``) instead of one fancy-indexing
  pass per send descriptor;
* the per-node row-block products run as one stacked CSR matvec against
  ``[x_flat | ghost_flat]`` (per-row data order preserved → identical
  row sums);
* dot products run :func:`~repro.kernels.base.canonical_dot` on the
  flat vectors — fixed-size chunks, not node blocks, so one BLAS call
  per product at small n;
* all per-rank bills are declared analytically — precomputed
  ``(rank, amount)`` profiles handed to the batched
  :meth:`~repro.cluster.communicator.VirtualCluster.charge` API in the
  same order the reference loop incurs them, which keeps clocks,
  statistics and cost-noise RNG draws identical.

Charges are issued *before* the fused numeric touches the data, so a
dead rank raises before any block is updated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..api.registry import register_backend
from ..cluster.cost_model import BYTES_PER_FLOAT
from .base import KernelBackend, canonical_dot, csr_matvec


@register_backend("vectorized", aliases=("fused", "flat"))
class VectorizedBackend(KernelBackend):
    """Fused flat-array execution with analytically declared billing."""

    name = "vectorized"

    #: Whether this backend materialises the ghost buffers during the
    #: halo phases.  The stacked matvec reads ``[x_flat | ghost_flat]``,
    #: so the fill is load-bearing here; the ``compiled`` subclass
    #: multiplies a ghost-free remapped operator against ``x_flat``
    #: directly and turns the fill off (the exchange is still charged —
    #: the *bytes* still move on the virtual cluster).
    _fills_ghosts = True

    # ------------------------------------------------------- vector arithmetic

    def axpy(self, y, a, x) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(2))
        y.data += a * x.data

    def aypx(self, y, a, x) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(2))
        data = y.data
        np.multiply(data, a, out=data)
        data += x.data

    def scale(self, y, a) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(1))
        y.data *= a

    def subtract(self, y, a, b) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(1))
        np.subtract(a.data, b.data, out=y.data)

    def assign(self, y, x, charge) -> None:
        if charge:
            y.cluster.charge_memcpy(y.partition.charge_profile(BYTES_PER_FLOAT))
        y.data[:] = x.data

    def dot_many(self, x, others: Sequence) -> list[float]:
        cluster = x.cluster
        values = [canonical_dot(x.data, other.data) for other in others]
        cluster.charge_compute(x.partition.charge_profile(2 * len(others)))
        cluster.allreduce(len(others) * BYTES_PER_FLOAT)
        return values

    # ----------------------------------------------------------------- SpMV

    def halo_exchange(self, executor, x, channel: str) -> None:
        cache = executor.plan.flat_cache()
        executor.cluster.exchange_compiled(executor.compiled_halo(channel))
        if self._fills_ghosts and cache.total_ghosts:
            executor._ghost_flat[:] = x.data[cache.ghost_gather]

    def spmv_local(self, executor, x, out) -> None:
        cache = executor.plan.flat_cache()
        executor.cluster.charge_compute(cache.local_flops)
        # The ghost tail of the stacked input was already filled in
        # place by the halo exchange (``_ghost_flat`` aliases it);
        # only the owned block still needs copying.
        buf = executor._spmv_input
        buf[: x.data.size] = x.data
        csr_matvec(cache.stacked_matrix, buf, out.data)

    def aspmv(self, executor, x, iteration, queue, out) -> None:
        cluster = executor.cluster
        plan_cache = executor.plan.flat_cache()
        cache = executor.redundancy.flat_cache()

        # A rollback may re-execute a storage iteration: clear any stale
        # stash for this iteration so re-pushes do not accumulate.
        for node in cluster.nodes:
            if node.alive:
                node.drop_redundant(iteration)

        # One fused gather materialises every communicated piece, grouped
        # by (holder, owner); each holder's stash is one dict of views
        # into it (the values the reference loop stashes piece by piece).
        packed = x.data[cache.stash_gather]
        nodes = cluster.nodes
        for dst, owners in cache.holdings:
            nodes[dst].stash_holding(
                iteration,
                {src: (indices, packed[start:stop]) for src, indices, start, stop in owners},
            )
        compiled = cache.compiled
        if compiled is None:
            compiled = cluster.compile_exchange(cache.messages, cache.merged)
            cache.compiled = compiled
        cluster.exchange_compiled(compiled)
        if self._fills_ghosts and plan_cache.total_ghosts:
            executor._ghost_flat[:] = x.data[plan_cache.ghost_gather]

        evicted = queue.push(iteration)
        if evicted is not None:
            for node in cluster.nodes:
                if node.alive:
                    node.drop_redundant(evicted)

        self.spmv_local(executor, x, out)

    # -------------------------------------------------------- preconditioners

    def precond_apply(self, precond, r, out) -> None:
        r.cluster.charge_compute(precond.charge_profile())
        if not precond.flat_apply(r.data, out.data):
            # Operators without a fused form (e.g. per-block triangular
            # solves) run the per-rank reference action, billed above.
            for rank, block in enumerate(r.blocks):
                out.blocks[rank][:] = precond._apply_local(rank, block)
