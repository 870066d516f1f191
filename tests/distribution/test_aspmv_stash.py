"""The ASpMV redundancy stash is the same on every kernel backend.

``looped`` stashes piece by piece (the reference); ``vectorized`` and
``compiled`` install one ``{owner: (indices, values)}`` dict per holder
node.  Every node's store — keys, key order, per-owner indices and
values, dtypes, ``redundancy_bytes`` — must come out identical, across
evictions, a storage iteration re-executed after a rollback, and
augmented products run while a node is dead or after it is replaced.
The session-level test pins the reuse of one :class:`RedundancyPlan`
per (phi, rule, destinations) across solves.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.distribution.aspmv as aspmv_module
from repro.api import SolveRequest, SolverSession
from repro.cluster import CostModel, VirtualCluster
from repro.core.redundancy import RedundancyQueue
from repro.distribution import (
    ASpMVExecutor,
    BlockRowPartition,
    DistributedMatrix,
    DistributedVector,
)
from repro.exceptions import DeadNodeError
from repro.matrices import poisson_2d

from ..conftest import random_vector

BACKENDS = ("looped", "vectorized", "compiled")
COSTED = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-9, mu=1e-11, hop_penalty=0.0)
N_NODES = 6


class Stack:
    """One cluster + matrix + ASpMV executor on one backend."""

    def __init__(self, backend: str, phi: int):
        matrix = poisson_2d(12)
        self.cluster = VirtualCluster(N_NODES, cost_model=COSTED, seed=3, kernels=backend)
        self.partition = BlockRowPartition.uniform(matrix.shape[0], N_NODES)
        dmatrix = DistributedMatrix(self.cluster, self.partition, matrix)
        self.executor = ASpMVExecutor(dmatrix, phi=phi)
        self.queue = RedundancyQueue(capacity=2)

    def aspmv(self, iteration: int, seed: int) -> np.ndarray:
        x = DistributedVector.from_global(
            self.cluster, self.partition, random_vector(self.partition.n, seed=seed)
        )
        return self.executor.multiply_augmented(x, iteration, self.queue).to_global()


def snapshot(cluster: VirtualCluster) -> list:
    """Every node's redundancy store as comparable bytes, in dict order."""
    nodes = []
    for node in cluster.nodes:
        store = []
        for iteration, per_owner in node.redundancy.items():
            for owner, (indices, values) in per_owner.items():
                store.append(
                    (
                        iteration,
                        owner,
                        indices.dtype.str,
                        indices.tobytes(),
                        values.dtype.str,
                        values.tobytes(),
                    )
                )
        nodes.append((node.rank, node.redundancy_bytes(), store))
    return nodes


def assert_all_equal(stacks: list[Stack]) -> None:
    reference = stacks[0]
    for other in stacks[1:]:
        assert snapshot(other.cluster) == snapshot(reference.cluster)
        np.testing.assert_array_equal(other.cluster.clocks, reference.cluster.clocks)
        assert other.cluster.stats.summary() == reference.cluster.stats.summary()


@pytest.mark.parametrize("phi", [1, 3])
def test_stash_identical_across_backends(phi):
    stacks = [Stack(backend, phi) for backend in BACKENDS]

    # Three storage iterations: the third evicts the first.
    for iteration, seed in ((5, 1), (6, 2), (7, 3)):
        outs = [stack.aspmv(iteration, seed) for stack in stacks]
        for out in outs[1:]:
            assert out.tobytes() == outs[0].tobytes()
        assert_all_equal(stacks)
    assert all(5 not in node.redundancy for node in stacks[1].cluster.nodes)
    assert any(node.redundancy_bytes() for node in stacks[1].cluster.nodes)

    # A rollback re-executes storage iteration 7 with new values.
    for stack in stacks:
        stack.aspmv(7, seed=4)
    assert_all_equal(stacks)

    # A node dies: the product stashes (the dead holder included),
    # then the exchange raises.  Twice, so the dead holder's stale
    # stash for the iteration is merged into, as the reference does.
    for stack in stacks:
        stack.cluster.fail([2])
    for attempt in range(2):
        for stack in stacks:
            with pytest.raises(DeadNodeError):
                stack.aspmv(8, seed=5 + attempt)
        assert_all_equal(stacks)

    # The spare replaces it and iteration 8 is executed again.
    for stack in stacks:
        stack.cluster.replace([2])
        stack.aspmv(8, seed=7)
    assert_all_equal(stacks)


def test_one_redundancy_plan_per_configuration(monkeypatch):
    built = []
    real = aspmv_module.RedundancyPlan

    def counting(*args, **kwargs):
        plan = real(*args, **kwargs)
        built.append(plan)
        return plan

    monkeypatch.setattr(aspmv_module, "RedundancyPlan", counting)
    requests = [
        SolveRequest(strategy="esr", phi=2, failures=((12, (1, 2)),)),
        SolveRequest(strategy="esrp", T=10, phi=2, failures=((25, (0, 3)),)),
        SolveRequest(strategy="esr", phi=2),
    ]
    session = SolverSession.from_problem("emilia_923_like", "tiny", n_nodes=4)
    shared = [session.solve(request) for request in requests]
    assert len(built) == 1
    assert session.matrix.plan._redundancy_plans == {(2, "paper", "eq1"): built[0]}

    session.solve(SolveRequest(strategy="esr", phi=1))
    assert len(built) == 2  # another phi is another plan

    for request, report in zip(requests, shared):
        fresh = SolverSession.from_problem("emilia_923_like", "tiny", n_nodes=4)
        alone = fresh.solve(request).to_dict()
        together = report.to_dict()
        alone.pop("wall_time")
        together.pop("wall_time")
        assert together == alone
