"""The ``compiled`` backend: fused hot loops, JIT-compiled when possible.

Attacks the large-n decay of the ``vectorized`` backend's speedup
(``BENCH_kernels.json``: 5.3x at 8k unknowns down to 1.6x at 85k).
Once Python-call overhead is amortised, what remains is memory traffic:
separate numpy passes stream each vector through memory 2-3x per
iteration, and the stacked SpMV re-copies its whole input.  This
backend removes those passes while staying inside the bit-identity
contract of :mod:`repro.kernels.base`:

* the per-iteration PCG tail (:meth:`CompiledBackend.cg_update`) runs
  the two vector updates as one fused double-axpy sweep (``x`` and
  ``r`` updated in a single pass), applies the preconditioner, then
  computes both reductions (``r.z``, ``r.r``) with the canonical
  reduction :func:`~repro.kernels.base.canonical_dot` before the single
  allreduce;
* the SpMV multiplies a precompiled *ghost-free* operator
  (:meth:`~repro.distribution.comm_plan.FlatPlanCache.fused_matrix`)
  directly against the flat input vector: the stacked operator's ghost
  columns are remapped through the PR 3 gather indices once at plan
  time, so halo assembly and matvec become one traversal with no
  per-iteration gather and no input copy, writing into preallocated
  output storage;
* billing is identical by construction: the same batched
  :meth:`~repro.cluster.communicator.VirtualCluster.charge` /
  :meth:`~repro.cluster.communicator.VirtualCluster.exchange_compiled`
  calls are issued in the same order as the ``vectorized`` backend
  (the halo exchange is still charged in full — only the local ghost
  *copy* disappears, not the modelled network traffic), so
  ``ClusterStats`` and the simulated clocks match bit for bit.

The elementwise sweeps are JIT-compiled with :mod:`numba` when it is
importable (install the ``repro[compiled]`` extra).  numba's default
flags apply no fast-math transformations — in particular no FMA
contraction — so the fused loops round exactly like the numpy
expressions they replace.  Reductions are *never* JIT-compiled: a
scalar-accumulator loop would change the partial-sum structure of the
chunked BLAS products that define the canonical result.

Without numba the backend degrades gracefully to a hand-fused numpy
path (scratch-buffer axpys that avoid per-iteration temporaries, same
one-traversal SpMV) and emits a single :class:`RuntimeWarning`; results
are bit-identical either way — only throughput differs.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..api.registry import register_backend
from ..cluster.cost_model import BYTES_PER_FLOAT
from .base import canonical_dot, csr_matvec
from .vectorized import VectorizedBackend

try:  # pragma: no cover - absent in the minimal install
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised where numba is absent
    numba = None
    HAVE_NUMBA = False

#: Set once the no-numba degradation warning has been emitted, so a
#: process constructing many backend instances (sessions, campaigns,
#: serve pools) warns exactly once.
_WARNED_NO_NUMBA = False


def _warn_no_numba_once() -> None:
    global _WARNED_NO_NUMBA
    if not _WARNED_NO_NUMBA:
        warnings.warn(
            "the 'compiled' kernel backend could not import numba; "
            "degrading to the hand-fused numpy path (bit-identical "
            "results, vectorized-class throughput) — install the "
            "'repro[compiled]' extra to enable the JIT kernels",
            RuntimeWarning,
            stacklevel=3,
        )
        _WARNED_NO_NUMBA = True


if HAVE_NUMBA:  # pragma: no cover - requires the [compiled] extra

    @numba.njit(cache=False)
    def _jit_axpy(y, a, x):
        # Default numba flags: no fast-math, no FMA contraction — each
        # iteration rounds the product, then the sum, exactly like the
        # numpy expression ``y += a * x``.
        for i in range(y.size):
            y[i] += a * x[i]

    @numba.njit(cache=False)
    def _jit_axpy2(x, r, p, rho, alpha):
        # One pass over all four arrays; ``r[i] -= alpha * rho[i]``
        # equals ``r[i] += (-alpha) * rho[i]`` bit for bit (IEEE sign
        # symmetry of multiply, subtraction == addition of the exact
        # negation).
        for i in range(x.size):
            x[i] += alpha * p[i]
            r[i] -= alpha * rho[i]

    @numba.njit(cache=False)
    def _jit_aypx(y, a, x):
        for i in range(y.size):
            y[i] = y[i] * a + x[i]


@register_backend("compiled", aliases=("jit", "numba"))
class CompiledBackend(VectorizedBackend):
    """Fused-chain execution; JIT elementwise sweeps, canonical reductions."""

    name = "compiled"

    # The fused operator reads ghost values straight out of ``x_flat``;
    # materialising the ghost buffers would be a dead store.
    _fills_ghosts = False

    def __init__(self) -> None:
        if not HAVE_NUMBA:
            _warn_no_numba_once()
        #: size -> scratch array for the numpy fallback's fused axpys
        #: (pure scratch — no correctness state lives here, so sharing
        #: one backend across clusters stays safe).
        self._scratch: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------ fused sweeps

    def _scratch_for(self, size: int) -> np.ndarray:
        buf = self._scratch.get(size)
        if buf is None:
            buf = np.empty(size, dtype=np.float64)
            self._scratch[size] = buf
        return buf

    def axpy(self, y, a, x) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(2))
        if HAVE_NUMBA:
            _jit_axpy(y.data, a, x.data)
        else:
            # ``y += a * x`` without the per-iteration temporary: at
            # large n the fresh allocation is mmap-backed and its page
            # faults dominate the sweep.
            scratch = self._scratch_for(y.data.size)
            np.multiply(x.data, a, out=scratch)
            y.data += scratch

    def cg_update(self, x, r, z, p, rho, alpha, rz_old, preconditioner):
        cluster = x.cluster
        profile2 = x.partition.charge_profile(2)
        # Identical charge sequence to the default composition: the two
        # axpy bills land before either vector is touched (dead ranks
        # raise before any update, per the backend contract).
        cluster.charge_compute(profile2)
        cluster.charge_compute(profile2)
        if HAVE_NUMBA:
            _jit_axpy2(x.data, r.data, p.data, rho.data, alpha)
        else:
            scratch = self._scratch_for(x.data.size)
            np.multiply(p.data, alpha, out=scratch)
            x.data += scratch
            np.multiply(rho.data, alpha, out=scratch)
            r.data -= scratch

        preconditioner.apply(r, z)

        # The canonical reduction *is* the cross-backend contract; a
        # JIT scalar loop would round differently.
        rz_new = canonical_dot(r.data, z.data)
        r_norm_sq = canonical_dot(r.data, r.data)
        cluster.charge_compute(x.partition.charge_profile(4))
        cluster.allreduce(2 * BYTES_PER_FLOAT)

        beta = rz_new / rz_old if rz_old != 0.0 else 0.0
        cluster.charge_compute(profile2)
        if HAVE_NUMBA:
            _jit_aypx(p.data, beta, z.data)
        else:
            data = p.data
            np.multiply(data, beta, out=data)
            data += z.data
        return rz_new, r_norm_sq, beta

    # ----------------------------------------------------------------- SpMV

    def spmv_local(self, executor, x, out) -> None:
        if out.data is x.data:  # pragma: no cover - defensive; the
            # in-place product needs the stacked path's input copy.
            super().spmv_local(executor, x, out)
            return
        cache = executor.plan.flat_cache()
        executor.cluster.charge_compute(cache.local_flops)
        csr_matvec(cache.fused_matrix(), x.data, out.data)
