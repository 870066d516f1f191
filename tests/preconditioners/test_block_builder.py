"""Oracle tests for the shared block-diagonal builder.

:class:`~repro.preconditioners.block_jacobi.DiagonalBlocks` builds every
block-Jacobi operator in whole-array passes.  The oracles below are the
per-block loops it replaced — ``cho_factor``/``cho_solve`` or
``np.linalg.inv`` on ``toarray()`` slices, assembled by
``sp.block_diag`` — and the builder must reproduce their CSR arrays
byte for byte: same ``indptr``, ``indices`` and ``data`` (dtypes
included), hence the same applies and the same ``2·nnz`` flop bills.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from repro.cluster import VirtualCluster, zero_cost_model
from repro.distribution import BlockRowPartition, DistributedMatrix
from repro.exceptions import ConfigurationError
from repro.matrices import poisson_1d, random_banded_spd, suite
from repro.preconditioners import BlockJacobiPreconditioner, split_into_blocks
from repro.preconditioners.block_jacobi import DiagonalBlocks
from repro.solvers.inner import serial_block_jacobi

from ..conftest import make_distributed


def oracle_outer(dmatrix: DistributedMatrix, max_block_size: int = 10):
    """Per-rank ``(P_s, M_s)`` and the stacked ``P``, one block at a time."""
    forward, backward = [], []
    for rank in range(dmatrix.partition.n_nodes):
        local = dmatrix.diagonal_block(rank).toarray()
        inverses, originals = [], []
        for lo, hi in split_into_blocks(local.shape[0], max_block_size):
            block = local[lo:hi, lo:hi]
            try:
                chol = scipy.linalg.cho_factor(block, lower=True)
            except scipy.linalg.LinAlgError as exc:
                raise ConfigurationError(
                    f"diagonal block of rank {rank} rows [{lo},{hi}) is not SPD: {exc}"
                ) from exc
            inverses.append(scipy.linalg.cho_solve(chol, np.eye(hi - lo)))
            originals.append(block)
        forward.append(sp.block_diag(inverses, format="csr"))
        backward.append(sp.block_diag(originals, format="csr"))
    return forward, backward, sp.block_diag(forward, format="csr")


def oracle_inner(matrix: sp.csr_matrix, max_block_size: int = 10) -> sp.csr_matrix:
    """The inner preconditioner, one ``np.linalg.inv`` per block."""
    blocks = [
        np.linalg.inv(matrix[lo:hi, lo:hi].toarray())
        for lo, hi in split_into_blocks(matrix.shape[0], max_block_size)
    ]
    return sp.block_diag(blocks, format="csr")


def assert_same_csr(actual: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def uneven(matrix: sp.csr_matrix, offsets) -> DistributedMatrix:
    partition = BlockRowPartition(offsets)
    cluster = VirtualCluster(partition.n_nodes, cost_model=zero_cost_model(), seed=0)
    return DistributedMatrix(cluster, partition, matrix)


def with_duplicates(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """``matrix`` with every row's entries reversed, each value split in
    two stored duplicates, and an explicit ``-0.0`` on each row."""
    data, indices, indptr = [], [], [0]
    for i in range(matrix.shape[0]):
        start, stop = matrix.indptr[i], matrix.indptr[i + 1]
        cols = matrix.indices[start:stop][::-1]
        vals = matrix.data[start:stop][::-1]
        indices.extend(np.concatenate([cols, cols, [i]]))
        data.extend(np.concatenate([vals * 0.25, vals * 0.75, [-0.0]]))
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data), np.array(indices), np.array(indptr)), shape=matrix.shape
    )


@pytest.fixture(scope="module")
def poisson3d_bench():
    matrix, _, _ = suite.load("poisson3d", "bench", seed=2020)
    return make_distributed(matrix, n_nodes=32)[2]


@pytest.fixture(scope="module")
def emilia_tiny():
    matrix, _, _ = suite.load("emilia_923_like", "tiny", seed=2020)
    return make_distributed(matrix, n_nodes=4)[2]


def outer_cases(poisson3d_bench, emilia_tiny):
    spd = random_banded_spd(97, bandwidth=6, density=0.9, seed=5)
    return {
        "poisson3d-bench-32": (poisson3d_bench, 10),
        "emilia-tiny-4": (emilia_tiny, 10),
        "uneven": (uneven(spd, [0, 13, 40, 41, 97]), 10),
        "uneven-blocks-of-4": (uneven(spd, [0, 30, 31, 77, 97]), 4),
        "duplicates": (uneven(with_duplicates(spd), [0, 50, 97]), 7),
    }


CASES = ("poisson3d-bench-32", "emilia-tiny-4", "uneven", "uneven-blocks-of-4", "duplicates")


@pytest.mark.parametrize("case", CASES)
def test_outer_operators_match_the_per_block_oracle(case, poisson3d_bench, emilia_tiny):
    dmatrix, max_block_size = outer_cases(poisson3d_bench, emilia_tiny)[case]
    precond = BlockJacobiPreconditioner(max_block_size=max_block_size)
    precond.setup(dmatrix)
    forward, backward, stacked = oracle_outer(dmatrix, max_block_size)
    for rank in range(dmatrix.partition.n_nodes):
        assert_same_csr(precond._forward[rank], forward[rank])
        assert_same_csr(precond._backward[rank], backward[rank])
    assert_same_csr(precond._stacked, stacked)
    assert precond.charge_profile() == tuple(
        (rank, 2.0 * forward[rank].nnz) for rank in range(dmatrix.partition.n_nodes)
    )


def test_poisson3d_bench_keeps_the_exact_zeros(poisson3d_bench):
    """Blocks of 9 and 10 rows straddle grid lines, so their inverses
    hold exact zeros; the operators store them and the bill counts them."""
    precond = BlockJacobiPreconditioner()
    precond.setup(poisson3d_bench)
    sizes = {hi - lo for lo, hi in precond.block_bounds(0)}
    assert sizes == {9, 10}
    stacked = precond._stacked
    assert np.count_nonzero(stacked.data == 0.0) > 0
    assert stacked.nnz == sum(
        (hi - lo) ** 2
        for rank in range(32)
        for lo, hi in precond.block_bounds(rank)
    )


@pytest.mark.parametrize("case", CASES)
def test_inner_operator_matches_the_per_block_oracle(case, poisson3d_bench, emilia_tiny):
    dmatrix, max_block_size = outer_cases(poisson3d_bench, emilia_tiny)[case]
    partition = dmatrix.partition
    ranks = tuple(range(0, partition.n_nodes, 3)) if partition.n_nodes > 2 else (1,)
    a_ff = dmatrix.submatrix(ranks)
    if case == "duplicates":
        a_ff = with_duplicates(a_ff)
    expected = oracle_inner(a_ff, max_block_size)
    sizes = [hi - lo for lo, hi in split_into_blocks(a_ff.shape[0], max_block_size)]
    blocks = DiagonalBlocks(a_ff, sizes)
    assert_same_csr(blocks.operator(blocks.inverse()), expected)

    apply, flops = serial_block_jacobi(a_ff, max_block_size)
    v = np.random.default_rng(3).standard_normal(a_ff.shape[0])
    assert apply(v).tobytes() == (expected @ v).tobytes()
    assert flops == 2.0 * expected.nnz


def test_blocks_equal_toarray_slices():
    matrix = with_duplicates(random_banded_spd(31, bandwidth=4, seed=2))
    dense = matrix.toarray()
    sizes = [5, 1, 7, 7, 11]
    blocks = DiagonalBlocks(matrix, sizes)
    for b, (start, size) in enumerate(zip(blocks.starts, sizes)):
        want = dense[start : start + size, start : start + size]
        assert blocks.block(b).tobytes() == np.ascontiguousarray(want).tobytes()


def test_blocks_must_tile_the_matrix():
    with pytest.raises(ConfigurationError):
        DiagonalBlocks(poisson_1d(10), [5, 4])


def test_non_spd_block_names_rank_and_rows():
    matrix = poisson_1d(40).tolil()
    matrix[27, 27] = -5.0  # rank 2 owns rows [20, 30): local rows 7 → block [5, 10)
    _, _, dmatrix = make_distributed(matrix.tocsr(), n_nodes=4)
    with pytest.raises(ConfigurationError) as oracle:
        oracle_outer(dmatrix, max_block_size=5)
    with pytest.raises(ConfigurationError, match=r"rank 2 rows \[5,10\)") as raised:
        BlockJacobiPreconditioner(max_block_size=5).setup(dmatrix)
    assert str(raised.value) == str(oracle.value)


def test_singular_inner_block_names_rows():
    matrix = sp.csr_matrix(np.diag([1.0, 2.0, 3.0, 0.0, 4.0, 5.0]))
    with pytest.raises(ConfigurationError, match=r"inner block \[3,6\) is singular"):
        serial_block_jacobi(matrix, max_block_size=3)
