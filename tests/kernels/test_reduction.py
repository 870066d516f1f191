"""The canonical reduction: one dot-product order for every backend.

Every distributed dot product is :func:`canonical_dot` of the flat
vectors: BLAS dots over fixed ``REDUCTION_CHUNK``-entry chunks, summed
in ascending chunk order.  The result must therefore be the same bits
for every node partition, every backend and every BLAS thread count.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster import VirtualCluster
from repro.distribution import BlockRowPartition, DistributedVector
from repro.kernels.base import REDUCTION_CHUNK, canonical_dot

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_canonical_dot_sums_fixed_chunks_in_ascending_order():
    rng = np.random.default_rng(5)
    c = REDUCTION_CHUNK
    n = 2 * c + 123
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    expected = float(x[:c] @ y[:c])
    expected += float(x[c : 2 * c] @ y[c : 2 * c])
    expected += float(x[2 * c :] @ y[2 * c :])
    assert canonical_dot(x, y) == expected
    assert canonical_dot(x[:c], y[:c]) == float(x[:c] @ y[:c])


@pytest.mark.parametrize("backend", ["looped", "vectorized", "compiled"])
@pytest.mark.parametrize("n_nodes", [1, 3, 7])
def test_dot_many_depends_on_neither_partition_nor_backend(n_nodes, backend):
    rng = np.random.default_rng(11)
    n = 3 * REDUCTION_CHUNK + 5
    x_values, y_values = rng.standard_normal(n), rng.standard_normal(n)
    cluster = VirtualCluster(n_nodes, kernels=backend)
    partition = BlockRowPartition.uniform(n, n_nodes)
    x = DistributedVector.from_global(cluster, partition, x_values)
    y = DistributedVector.from_global(cluster, partition, y_values)
    expected = [canonical_dot(x_values, y_values), canonical_dot(x_values, x_values)]
    assert x.dot_many([y, x]) == expected


def _openblas_linked() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy without the structured config
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


_DOT_SCRIPT = """
import numpy as np
from repro.cluster import VirtualCluster
from repro.distribution import BlockRowPartition, DistributedVector

n = 2 * 131072
rng = np.random.default_rng(2020)
cluster = VirtualCluster(2)
partition = BlockRowPartition.uniform(n, 2)
x = DistributedVector.from_global(cluster, partition, rng.standard_normal(n))
y = DistributedVector.from_global(cluster, partition, rng.standard_normal(n))
print(" ".join(value.hex() for value in x.dot_many([y, x])))
"""


@pytest.mark.skipif(not _openblas_linked(), reason="numpy is not linked to OpenBLAS")
def test_dot_many_bits_do_not_depend_on_blas_threads():
    # OpenBLAS threads a ddot over more than 10,000 entries, and the
    # rounding of a threaded dot depends on the thread count.  (On a
    # single-core host OpenBLAS caps the threads at one and the two
    # runs agree trivially.)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), env.get("PYTHONPATH")))
        )
        result = subprocess.run(
            [sys.executable, "-c", _DOT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(result.stdout.strip())
    assert outputs[0] == outputs[1]
