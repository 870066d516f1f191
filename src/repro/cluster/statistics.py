"""Per-node communication/computation accounting.

Beyond the simulated clock, the benchmarks report *why* a strategy is
slow: bytes moved by SpMV halos vs. ASpMV extras vs. checkpoints,
message counts, flops, and redundant-storage memory footprints.  The
:class:`ClusterStats` object accumulates these per node and per named
channel so ablation benches (e.g. A4 in DESIGN.md) can slice them.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

import numpy as np


@dataclasses.dataclass
class ChannelTotals:
    """Aggregate traffic for one named channel (e.g. ``"spmv_halo"``)."""

    messages: int = 0
    bytes: int = 0

    def add(self, nbytes: int, messages: int = 1) -> None:
        self.messages += int(messages)
        self.bytes += int(nbytes)


class ClusterStats:
    """Accumulates per-node and per-channel statistics.

    Channels used by the library:

    ``spmv_halo``
        Vector entries exchanged for the plain sparse matrix-vector
        product (the communication a non-resilient solver pays anyway).
    ``aspmv_extra``
        Additional entries sent by the augmented SpMV to guarantee ϕ
        redundant copies (ESR/ESRP overhead traffic).
    ``checkpoint``
        Buddy-checkpoint traffic (IMCR overhead traffic).
    ``reduction``
        Allreduce/broadcast traffic for scalars.
    ``recovery``
        Data gathered/retrieved while reconstructing after a failure.
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = int(n_nodes)
        #: Per-rank totals are numpy arrays so batched charges and
        #: compiled exchanges can bump whole rank sets in one fused
        #: operation (scalar indexing semantics are unchanged; integer
        #: counters use exact int64 arithmetic).
        self.flops = np.zeros(self.n_nodes, dtype=np.float64)
        self.bytes_sent = np.zeros(self.n_nodes, dtype=np.int64)
        self.bytes_received = np.zeros(self.n_nodes, dtype=np.int64)
        self.messages_sent = np.zeros(self.n_nodes, dtype=np.int64)
        self.local_copy_bytes = np.zeros(self.n_nodes, dtype=np.int64)
        self.redundancy_peak_bytes = np.zeros(self.n_nodes, dtype=np.int64)
        self.channels: dict[str, ChannelTotals] = defaultdict(ChannelTotals)
        #: Fault-subsystem counters (injections, detections, rollbacks)
        #: keyed by kind — see :mod:`repro.faults` for the taxonomy.
        self.faults: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def record_compute(self, rank: int, flops: float) -> None:
        self.flops[rank] += float(flops)

    def record_message(self, src: int, dst: int, nbytes: int, channel: str) -> None:
        self.bytes_sent[src] += int(nbytes)
        self.bytes_received[dst] += int(nbytes)
        self.messages_sent[src] += 1
        self.channels[channel].add(nbytes)

    def record_payload(self, src: int, dst: int, nbytes: int, channel: str) -> None:
        """Extra payload merged into an existing message (no new message)."""
        self.bytes_sent[src] += int(nbytes)
        self.bytes_received[dst] += int(nbytes)
        self.channels[channel].add(nbytes, messages=0)

    def record_collective(self, nbytes: int, channel: str = "reduction") -> None:
        self.bytes_sent += int(nbytes)
        self.bytes_received += int(nbytes)
        totals = self.channels[channel]
        totals.bytes += int(nbytes * self.n_nodes)
        totals.messages += self.n_nodes

    def record_local_copy(self, rank: int, nbytes: int) -> None:
        self.local_copy_bytes[rank] += int(nbytes)

    def record_fault(self, kind: str, count: int = 1) -> None:
        """Count an injected fault / detection / rollback of ``kind``."""
        self.faults[kind] = self.faults.get(kind, 0) + int(count)

    def record_redundancy_footprint(self, rank: int, nbytes: int) -> None:
        """Track the peak bytes of redundant data resident on a node."""
        if nbytes > self.redundancy_peak_bytes[rank]:
            self.redundancy_peak_bytes[rank] = int(nbytes)

    # -- queries ---------------------------------------------------------------

    def total_bytes(self, channel: str | None = None) -> int:
        if channel is None:
            return sum(self.bytes_sent)
        return self.channels[channel].bytes

    def total_messages(self, channel: str | None = None) -> int:
        if channel is None:
            return sum(self.messages_sent)
        return self.channels[channel].messages

    def total_flops(self) -> float:
        return sum(self.flops)

    def summary(self) -> dict[str, float]:
        """Flat dictionary of headline totals, for reports and tests."""
        out: dict[str, float] = {
            "total_flops": self.total_flops(),
            "total_bytes": float(self.total_bytes()),
            "total_messages": float(self.total_messages()),
            "peak_redundancy_bytes": float(max(self.redundancy_peak_bytes, default=0)),
        }
        for name, totals in sorted(self.channels.items()):
            out[f"bytes[{name}]"] = float(totals.bytes)
            out[f"messages[{name}]"] = float(totals.messages)
        # Fault counters appear only when faults were injected, so
        # fail-stop-free runs keep their historical stats shape.
        for kind, count in sorted(self.faults.items()):
            out[f"faults[{kind}]"] = float(count)
        return out
