"""Per-node state of the virtual cluster.

A :class:`NodeState` owns everything that physically resides in one
node's memory and is therefore lost when the node fails:

* named local vector blocks (``store``) — e.g. the starred copies
  ``x*, r*, z*, p*`` of ESRP, or a node's own local checkpoint in IMCR;
* replicated scalars (``scalars``) — e.g. ``β*`` and ``β**``;
* the redundancy store — pieces of *other* nodes' search-direction
  entries received during augmented SpMVs, keyed by iteration and
  owning rank (the physical realisation of the paper's "redundant
  copies" p′);
* buddy checkpoints received from other nodes (IMCR).

Failure semantics follow the paper §4: "the nodes set to fail zero-out
all their vector entries, as well as the scalars they contain"; a
replacement node "starts without knowledge of the state of the node it
is replacing".
"""

from __future__ import annotations

from typing import Any

import numpy as np


class NodeState:
    """Dynamic memory of one virtual cluster node."""

    def __init__(self, rank: int):
        self.rank = int(rank)
        self.alive = True
        #: How many times this rank has been replaced by a spare node.
        self.incarnation = 0
        #: Named local vector blocks (starred copies, own checkpoints, ...).
        self.store: dict[str, np.ndarray] = {}
        #: Replicated scalar copies (β*, β**, checkpointed rz, ...).
        self.scalars: dict[str, float] = {}
        #: iteration -> owner rank -> (global indices, values) received via ASpMV.
        self.redundancy: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        #: owner rank -> {name: block copy, "_scalars": {...}} received via IMCR.
        self.buddy_checkpoints: dict[int, dict[str, Any]] = {}

    # -- redundancy store ------------------------------------------------------

    def stash_redundant(
        self, iteration: int, owner: int, indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Store (part of) owner's search-direction entries for ``iteration``.

        Multiple stashes for the same (iteration, owner) — the natural
        halo part and the ASpMV extras — are concatenated.
        """
        per_owner = self.redundancy.setdefault(int(iteration), {})
        if owner in per_owner:
            old_idx, old_val = per_owner[owner]
            indices = np.concatenate([old_idx, np.asarray(indices, dtype=np.int64)])
            values = np.concatenate([old_val, np.asarray(values, dtype=np.float64)])
        per_owner[int(owner)] = (
            np.asarray(indices, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        )

    def stash_holding(
        self, iteration: int, holding: dict[int, tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """Store everything this node holds for ``iteration`` at once.

        ``holding`` maps owner rank to ``(int64 global indices, float64
        values)`` and is kept as given.  The result equals one
        :meth:`stash_redundant` call per owner in ``holding``'s order;
        a holding that meets earlier stashes for the same iteration is
        merged exactly that way.
        """
        iteration = int(iteration)
        if iteration not in self.redundancy:
            self.redundancy[iteration] = holding
            return
        for owner, (indices, values) in holding.items():
            self.stash_redundant(iteration, owner, indices, values)

    def drop_redundant(self, iteration: int) -> None:
        """Release the redundant copy for ``iteration`` (queue eviction)."""
        self.redundancy.pop(int(iteration), None)

    def redundant_for(self, iteration: int, owner: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Entries of ``owner``'s vector held here for ``iteration``, if any."""
        per_owner = self.redundancy.get(int(iteration))
        if per_owner is None:
            return None
        return per_owner.get(int(owner))

    def redundancy_bytes(self) -> int:
        """Total bytes of redundant data currently resident on this node."""
        total = 0
        for per_owner in self.redundancy.values():
            for indices, values in per_owner.values():
                total += indices.nbytes + values.nbytes
        for payload in self.buddy_checkpoints.values():
            for key, value in payload.items():
                if isinstance(value, np.ndarray):
                    total += value.nbytes
        for block in self.store.values():
            total += block.nbytes
        return total

    # -- failure semantics -------------------------------------------------------

    def wipe(self) -> None:
        """Lose all dynamic data (node failure)."""
        self.alive = False
        self.store.clear()
        self.scalars.clear()
        self.redundancy.clear()
        self.buddy_checkpoints.clear()

    def revive(self) -> None:
        """Bring a spare node up in place of this rank (empty memory)."""
        self.alive = True
        self.incarnation += 1
