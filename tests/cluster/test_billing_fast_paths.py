"""The O(1) billing fast paths equal the per-call accounting bit for bit.

On a noise-free cluster with every node alive, ``charge_compute``,
``charge_memcpy``, ``allreduce`` and ``exchange_compiled`` apply
precompiled deltas instead of walking their items.  Each must leave the
clocks and every :class:`ClusterStats` field exactly as the per-call
``compute`` / ``memcpy`` / explicit-group allreduce / ``exchange`` path
does.  Under cost noise or with a dead rank the exact path must run,
drawing the same number of cost-noise samples in the same order.
"""

import numpy as np
import pytest

from repro.cluster import CostModel, VirtualCluster
from repro.exceptions import DeadNodeError

N = 6
#: Every rank in ascending order: the whole-array path.
FULL = tuple((rank, 2.0 * (97 + 13 * rank)) for rank in range(N))
#: Every rank, out of order: compiled, but scattered by rank index.
SHUFFLED = tuple(FULL[rank] for rank in (3, 0, 5, 1, 4, 2))
#: A proper subset of the ranks.
SUBSET = ((4, 1208.0), (1, 56.0), (2, 8.0))
PROFILES = {"full": FULL, "shuffled": SHUFFLED, "subset": SUBSET}

PHASE = (
    (0, 1, 96, "spmv_halo", False),
    (1, 0, 96, "spmv_halo", False),
    (1, 2, 40, "spmv_halo", False),
    (4, 2, 8, "aspmv_extra", False),
)
PIGGYBACK = ((1, 2, 24, "aspmv_extra"),)
RING = tuple((rank, (rank + 1) % N, 64 + rank, "spmv_halo", False) for rank in range(N))

STAT_ARRAYS = (
    "flops", "bytes_sent", "bytes_received", "messages_sent",
    "local_copy_bytes", "redundancy_peak_bytes",
)


def pair(noise=0.0, dead=()):
    """Two identical clusters with staggered clocks."""
    clusters = []
    for _ in range(2):
        cluster = VirtualCluster(N, cost_model=CostModel(noise=noise), seed=7)
        for rank in range(N):
            cluster.advance(rank, 1e-6 * (rank % 3) + 1e-7 * rank)
        if dead:
            cluster.fail(dead)
        clusters.append(cluster)
    return clusters


def assert_identical(fast, exact):
    assert fast.clocks.tobytes() == exact.clocks.tobytes()
    for name in STAT_ARRAYS:
        a, b = getattr(fast.stats, name), getattr(exact.stats, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert dict(fast.stats.channels) == dict(exact.stats.channels)
    assert fast.stats.faults == exact.stats.faults
    assert fast.rng.bit_generator.state == exact.rng.bit_generator.state


def compute_calls(cluster, profile):
    for rank, flops in profile:
        cluster.compute(rank, flops)


def memcpy_calls(cluster, profile):
    for rank, nbytes in profile:
        cluster.memcpy(rank, nbytes)


@pytest.mark.parametrize("noise", [0.0, 0.2])
@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_charge_compute_matches_compute_calls(kind, noise):
    fast, exact = pair(noise)
    profile = PROFILES[kind]
    for _ in range(3):  # compile, then hit the cache
        fast.charge_compute(profile)
        compute_calls(exact, profile)
    assert_identical(fast, exact)


@pytest.mark.parametrize("noise", [0.0, 0.2])
@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_charge_memcpy_matches_memcpy_calls(kind, noise):
    fast, exact = pair(noise)
    profile = tuple((rank, 8.0 * amount) for rank, amount in PROFILES[kind])
    for _ in range(3):
        fast.charge_memcpy(profile)
        memcpy_calls(exact, profile)
    assert_identical(fast, exact)


@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_allreduce_matches_explicit_group(noise):
    fast, exact = pair(noise)
    for nbytes in (8, 16, 8, 24, 16):
        fast.compute(nbytes % N, 1e4)
        exact.compute(nbytes % N, 1e4)
        fast.allreduce(nbytes)
        exact.allreduce(nbytes, ranks=range(N))
    assert_identical(fast, exact)


@pytest.mark.parametrize("noise", [0.0, 0.2])
@pytest.mark.parametrize(
    "messages, piggyback",
    [(PHASE, PIGGYBACK), (RING, ())],
    ids=["subset", "every-rank"],
)
def test_exchange_compiled_matches_exchange(messages, piggyback, noise):
    fast, exact = pair(noise)
    compiled = fast.compile_exchange(messages, piggyback)
    for _ in range(3):
        fast.exchange_compiled(compiled)
        exact.exchange(messages, piggyback=piggyback)
    assert_identical(fast, exact)


class TestDeadRank:
    """With a failed rank present, the per-item path runs."""

    def test_charges_avoiding_the_dead_rank_match(self):
        fast, exact = pair(dead=(3,))
        fast.charge_compute(SUBSET)
        compute_calls(exact, SUBSET)
        fast.charge_memcpy(SUBSET)
        memcpy_calls(exact, SUBSET)
        fast.allreduce(16)
        exact.allreduce(16, ranks=exact.alive_ranks())
        assert_identical(fast, exact)

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_charge_touching_the_dead_rank_raises_after_the_same_partial_bill(
        self, noise
    ):
        fast, exact = pair(noise)
        fast.charge_compute(FULL)  # compiled while every rank is alive
        compute_calls(exact, FULL)
        fast.fail((3,))
        exact.fail((3,))
        with pytest.raises(DeadNodeError):
            fast.charge_compute(FULL)
        with pytest.raises(DeadNodeError):
            compute_calls(exact, FULL)
        assert_identical(fast, exact)

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_exchange_with_a_dead_endpoint_raises_like_exchange(self, noise):
        fast, exact = pair(noise)
        compiled = fast.compile_exchange(PHASE, PIGGYBACK)
        fast.exchange_compiled(compiled)  # compiled effect, everyone alive
        exact.exchange(PHASE, piggyback=PIGGYBACK)
        fast.fail((2,))
        exact.fail((2,))
        with pytest.raises(DeadNodeError):
            fast.exchange_compiled(compiled)
        with pytest.raises(DeadNodeError):
            exact.exchange(PHASE, piggyback=PIGGYBACK)
        assert_identical(fast, exact)
