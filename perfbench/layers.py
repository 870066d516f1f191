"""The layer map: which public calls each layer's spans wrap, and the
per-layer metrics computed from the spans and from exact counts.

Span names are ``<layer>.<call>``.  Metric conventions:

* ``*.self_ms``: self time per operation, in ms;
* ``*.ms``: inclusive time per call, in ms, except the set-up layers
  (``preconditioners.setup``, ``distribution.matrix_build``,
  ``matrices.load``, ``api.session_build``), which are per session
  built, because a warm session re-binds without factorising again;
* ``*.calls``: calls per operation;
* counts (``kernels.flops``, ``cluster.*``, ``solvers.*``,
  ``core.recoveries``, ``core.peak_redundancy_bytes``): means per
  distinct operation, read from the program's own reports, so they
  repeat exactly for a seed;
* ``serve.pool.*``: the server's ``/stats`` counters per server, read
  after the warm-up and exactly one pass of the request pool, so they
  cover a fixed number of requests.

On ``direct_bench`` the session set-ups are traced apart from the
timed solves and only their :data:`SETUP_LAYERS` are kept, so the
reference solve a set-up makes does not enter the per-operation
figures.

A count or ratio of a layer a workload does not enter reads 0.  The
times of the layers only one workload enters (:data:`WORKLOAD_ONLY`)
are printed by that workload's traced run but left out of every result
line, where they would read 0 on every run of the other workloads.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Mapping, Sequence

from common import add_counts
from tracing import Patches, Tracer

#: Modules imported before patching, so every re-export is found.
_MODULES = (
    "repro",
    "repro.cli",
    "repro.api.session",
    "repro.kernels",
    "repro.core.strategies",
    "repro.preconditioners",
    "repro.matrices.suite",
    "repro.distribution.matrix",
    "repro.serve",
    "repro.campaign.executor",
    "repro.queue",
)

KERNEL_CALLS = (
    "spmv_local", "halo_exchange", "aspmv", "precond_apply", "dot_many", "cg_update",
)
BILLING_CALLS = (
    "charge", "charge_compute", "charge_memcpy", "exchange", "exchange_compiled",
    "allreduce", "broadcast", "send", "piggyback",
)

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"kernels.{call}.self_ms", "ms") for call in KERNEL_CALLS),
    ("kernels.dot_many.calls", "count"),
    ("kernels.flops", "flop"),
    ("kernels.bytes_moved", "bytes"),
    ("cluster.billing.self_ms", "ms"),
    ("cluster.billing.calls", "count"),
    ("cluster.messages", "count"),
    ("cluster.bytes", "bytes"),
    ("cluster.modeled_s", "s"),
    ("solvers.engine.self_ms", "ms"),
    ("solvers.executed_iterations", "count"),
    ("solvers.useful_ratio", "ratio"),
    ("core.spmv_hook.self_ms", "ms"),
    ("core.post_iteration.self_ms", "ms"),
    ("core.recover.ms", "ms"),
    ("core.recoveries", "count"),
    ("core.peak_redundancy_bytes", "bytes"),
    ("preconditioners.setup.ms", "ms"),
    ("distribution.matrix_build.ms", "ms"),
    ("matrices.load.ms", "ms"),
    ("api.session_build.ms", "ms"),
    ("api.solve.self_ms", "ms"),
    ("api.reference.computed", "count"),
    ("api.reference.disk_hits", "count"),
    ("api.solve_many.batch_size", "count"),
    ("serve.pool.hit_rate", "ratio"),
    ("serve.pool.hits", "count"),
    ("serve.pool.misses", "count"),
    ("serve.pool.evictions", "count"),
    ("queue.claim.useful_ratio", "ratio"),
    ("queue.worker.busy_ratio", "ratio"),
    ("queue.reclaims", "count"),
    ("queue.retries", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
)

#: Per-layer times printed only by the workload that enters the layer.
WORKLOAD_ONLY: dict[str, tuple[tuple[str, str], ...]] = {
    "serve_tiny": (
        ("serve.parse.ms", "ms"),
        ("serve.stamp.ms", "ms"),
        ("serve.wait_ms", "ms"),
        ("serve.transport_ms", "ms"),
    ),
    "campaign_queue": (
        ("campaign.run_one.ms", "ms"),
        ("campaign.expand.ms", "ms"),
        ("queue.claim.ms", "ms"),
        ("queue.append_record.ms", "ms"),
        ("queue.complete.ms", "ms"),
        ("queue.compact.ms", "ms"),
        ("queue.collect.ms", "ms"),
        ("queue.worker.startup_s", "s"),
    ),
}
ALL_LAYER = PER_LAYER + tuple(m for ms in WORKLOAD_ONLY.values() for m in ms)


#: Layers that build a session; their times are per session built.
SETUP_LAYERS = (
    "api.session_build", "preconditioners.setup", "distribution.matrix_build",
    "matrices.load",
)


def setup_part(summary: Mapping[str, Any]) -> dict[str, Any]:
    """A summary of session set-ups cut to :data:`SETUP_LAYERS`, so the
    solves a set-up makes (the reference trajectory) do not count as
    operations; the top-level time stays whole, for ``trace.coverage``."""
    return {
        "layers": {
            name: entry for name, entry in summary["layers"].items()
            if name in SETUP_LAYERS
        },
        "top_level_s": summary["top_level_s"],
        "edges": {},
    }


@dataclasses.dataclass
class Installation:
    """Wrappers installed by :func:`install`, plus what they observed."""

    tracer: Tracer
    patches: Patches
    #: Every :class:`SolverSession` built while installed.
    sessions: list = dataclasses.field(default_factory=list)
    #: Every ``WorkerSummary`` returned by ``run_worker``.
    worker_summaries: list = dataclasses.field(default_factory=list)

    def uninstall(self) -> None:
        self.patches.uninstall()

    def setup_events(self) -> dict[str, int]:
        return add_counts(session.setup_events for session in self.sessions)


def install() -> Installation:
    """Patch span wrappers onto every layer's public calls."""
    for module in _MODULES:
        importlib.import_module(module)
    from repro.api.session import SolverSession
    from repro.cluster.communicator import VirtualCluster
    from repro.distribution.matrix import DistributedMatrix
    from repro.kernels.base import KernelBackend
    from repro.preconditioners.base import Preconditioner
    from repro.queue.store import QueueStore
    from repro.serve.service import ServeRequest, SolverService
    from repro.solvers.engine import PCGEngine, ResilienceStrategy

    tracer = Tracer()
    patches = Patches(tracer)
    installed = Installation(tracer, patches)

    for call in KERNEL_CALLS:
        patches.class_tree(KernelBackend, (call,), f"kernels.{call}")
    patches.class_tree(VirtualCluster, BILLING_CALLS, "cluster.billing")
    patches.class_tree(PCGEngine, ("solve",), "solvers.engine")
    patches.class_tree(ResilienceStrategy, ("spmv",), "core.spmv_hook")
    patches.class_tree(ResilienceStrategy, ("post_iteration",), "core.post_iteration")
    patches.class_tree(ResilienceStrategy, ("recover",), "core.recover")
    patches.class_tree(Preconditioner, ("setup",), "preconditioners.setup")
    patches.method(DistributedMatrix, "__init__", "distribution.matrix_build")
    patches.function("repro.matrices.suite", "load", "matrices.load")

    patches.method(
        SolverSession, "from_problem", "api.session_build",
        on_result=installed.sessions.append,
    )
    patches.method(SolverSession, "reference", "api.reference")
    patches.method(SolverSession, "solve", "api.solve")
    patches.method(SolverSession, "solve_many", "api.solve_many")

    patches.method(SolverService, "solve", "serve.request")
    patches.method(ServeRequest, "from_dict", "serve.parse")
    patches.function("repro.serve.service", "canonical_report", "serve.stamp")
    patches.function("repro.serve.service", "stamp_response", "serve.stamp")

    patches.function("repro.campaign.executor", "run_one", "campaign.run_one")
    patches.function("repro.campaign.spec", "expand_spec", "campaign.expand")

    patches.method(QueueStore, "submit", "queue.submit")
    patches.method(QueueStore, "try_claim_task", "queue.claim")
    patches.method(QueueStore, "claim", "queue.claim")
    patches.method(QueueStore, "append_record", "queue.append_record")
    patches.method(QueueStore, "complete", "queue.complete")
    patches.method(QueueStore, "compact_shard", "queue.compact")
    patches.function("repro.queue.collect", "collect", "queue.collect")
    patches.function(
        "repro.queue.worker", "run_worker", None,
        on_result=installed.worker_summaries.append,
    )
    return installed


# ------------------------------------------------------------------ counts


def report_counts(reports: Sequence[Mapping[str, Any]]) -> dict[str, float]:
    """Exact per-operation means over distinct reports.

    Each item needs ``stats`` (the cluster statistics), ``modeled_time``,
    ``iterations`` and ``executed_iterations`` — the shape shared by
    ``SolveReport.to_dict()``, a served reply's ``report`` and a
    ``CampaignRunRecord.to_dict()``.
    """
    if not reports:
        return {}
    n = len(reports)
    stats = [report["stats"] for report in reports]
    iterations = sum(report["iterations"] for report in reports)
    executed = sum(report["executed_iterations"] for report in reports)
    return {
        "kernels.flops": sum(s["total_flops"] for s in stats) / n,
        "cluster.messages": sum(s["total_messages"] for s in stats) / n,
        "cluster.bytes": sum(s["total_bytes"] for s in stats) / n,
        "cluster.modeled_s": sum(r["modeled_time"] for r in reports) / n,
        "solvers.executed_iterations": executed / n,
        "solvers.useful_ratio": iterations / executed if executed else 0.0,
        "core.recoveries": sum(s.get("faults[rollback]", 0.0) for s in stats) / n,
        "core.peak_redundancy_bytes": max(s["peak_redundancy_bytes"] for s in stats),
    }


# ----------------------------------------------------------------- metrics


@dataclasses.dataclass
class LayerInputs:
    """Everything a workload measured in its traced phase."""

    #: Merged span summary of every traced process.
    summary: Mapping[str, Any]
    #: Operations completed in the traced phase.
    ops: int
    #: Problem size, for the computed ``kernels.bytes_moved``.
    n: int
    nnz: int
    #: Exact counts: :func:`report_counts` output.
    counts: Mapping[str, float]
    #: Summed ``SolverSession.setup_events`` of every traced process.
    setup_events: Mapping[str, int]
    #: Wall time of the callers waiting on the top-level spans.
    coverage_wall_s: float
    #: Traced throughput over untraced throughput.
    overhead_ratio: float
    #: Top-level span time set against ``coverage_wall_s`` (default:
    #: every top-level span of ``summary``).
    coverage_top_level_s: float | None = None
    #: Workload-specific metrics measured outside the spans.
    extra: Mapping[str, float] = dataclasses.field(default_factory=dict)


def layer_metrics(inputs: LayerInputs) -> dict[str, float]:
    """Every :data:`ALL_LAYER` metric (0 for layers not entered)."""
    layers = inputs.summary["layers"]
    ops = max(inputs.ops, 1)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    def total_ms(name: str) -> float:
        return 1e3 * layers.get(name, {}).get("total_s", 0.0)

    def self_per_op(name: str) -> float:
        return 1e3 * layers.get(name, {}).get("self_s", 0.0) / ops

    def per_call(name: str) -> float:
        return total_ms(name) / calls(name) if calls(name) else 0.0

    sessions = calls("api.session_build")

    def per_session(name: str) -> float:
        return total_ms(name) / sessions if sessions else 0.0

    spmv_calls = calls("kernels.spmv_local") + calls("kernels.aspmv")
    bytes_moved = (
        spmv_calls * (12 * inputs.nnz + 20 * inputs.n + 4)
        + calls("kernels.dot_many") * 24 * inputs.n
        + calls("kernels.precond_apply") * 16 * inputs.n
        + calls("kernels.cg_update") * 72 * inputs.n
    )
    batches = calls("api.solve_many")
    metrics: dict[str, float] = {
        **{f"kernels.{c}.self_ms": self_per_op(f"kernels.{c}") for c in KERNEL_CALLS},
        "kernels.dot_many.calls": calls("kernels.dot_many") / ops,
        "kernels.bytes_moved": bytes_moved / ops,
        "cluster.billing.self_ms": self_per_op("cluster.billing"),
        "cluster.billing.calls": calls("cluster.billing") / ops,
        "solvers.engine.self_ms": self_per_op("solvers.engine"),
        "core.spmv_hook.self_ms": self_per_op("core.spmv_hook"),
        "core.post_iteration.self_ms": self_per_op("core.post_iteration"),
        "core.recover.ms": per_call("core.recover"),
        "preconditioners.setup.ms": per_session("preconditioners.setup"),
        "distribution.matrix_build.ms": per_session("distribution.matrix_build"),
        "matrices.load.ms": per_session("matrices.load"),
        "api.session_build.ms": per_call("api.session_build"),
        "api.solve.self_ms": self_per_op("api.solve"),
        "api.reference.computed": (
            inputs.setup_events.get("reference", 0) / sessions if sessions else 0.0
        ),
        "api.reference.disk_hits": (
            inputs.setup_events.get("reference_disk", 0) / sessions if sessions else 0.0
        ),
        "api.solve_many.batch_size": (
            inputs.summary["edges"].get("api.solve_many>api.solve", 0) / batches
            if batches else 0.0
        ),
        "serve.parse.ms": per_call("serve.parse"),
        "serve.stamp.ms": (
            total_ms("serve.stamp") / calls("serve.request")
            if calls("serve.request") else 0.0
        ),
        "campaign.run_one.ms": per_call("campaign.run_one"),
        "campaign.expand.ms": per_call("campaign.expand"),
        "queue.claim.ms": per_call("queue.claim"),
        "queue.append_record.ms": per_call("queue.append_record"),
        "queue.complete.ms": per_call("queue.complete"),
        "queue.compact.ms": per_call("queue.compact"),
        "queue.collect.ms": per_call("queue.collect"),
        "trace.overhead_ratio": inputs.overhead_ratio,
        "trace.coverage": (
            (
                inputs.summary["top_level_s"]
                if inputs.coverage_top_level_s is None
                else inputs.coverage_top_level_s
            ) / inputs.coverage_wall_s
            if inputs.coverage_wall_s > 0 else 0.0
        ),
    }
    metrics.update(inputs.counts)
    metrics.update(inputs.extra)
    return {name: float(metrics.get(name, 0.0)) for name, _ in ALL_LAYER}


def with_units(values: Mapping[str, float], specs: Sequence[tuple[str, str]]) -> dict:
    """``{name: {"value", "unit"}}`` in ``specs`` order."""
    return {name: {"value": values[name], "unit": unit} for name, unit in specs}

