"""``serve_tiny``: two closed-loop HTTP clients against ``repro serve``.

The server runs in its own process, started fresh (with a fresh
``--cache-dir``) for every measured segment.  Requests solve
``emilia_923_like``/``tiny`` (576 unknowns, 4 nodes) with a seeded
mix of ESR/ESRP/IMCR and T in {10, 20}; two preconditioner keys are
skewed 3:1 and half the requests lose one node.  The pool capacity
covers both keys, so after the warm-up every request is a pool hit.
Failure iterations follow :func:`workload.failure_iteration`.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import time

import client as http_client
import common
import layers
import tracing
from common import BenchmarkError, add_counts
from workload import Outcome, Phase, failure_iteration, passes, split_phases

PROBLEM = ("emilia_923_like", "tiny")
N_NODES = 4
STRATEGIES = ("esr", "esrp", "imcr")
INTERVALS = (10, 20)
#: Preconditioner slots: block Jacobi three times as often as Jacobi.
PRECONDITIONERS = ("block_jacobi", "block_jacobi", "block_jacobi", "jacobi")
DRAWS = 2
CLIENTS = 2
POOL_SIZE = 4
#: Server processes (each set up and measured) per untraced run.
SERVERS = 3


def payload_pool(seed: int) -> list[dict]:
    from repro.api import SolveRequest
    from repro.serve import ServeRequest

    rng = random.Random(seed)
    pool = []
    for draw in range(DRAWS):
        for strategy in STRATEGIES:
            for T in INTERVALS:
                for preconditioner in PRECONDITIONERS:
                    for failing in (False, True):
                        failures = ()
                        if failing:
                            iteration = failure_iteration(rng, T, draw, DRAWS, 5, 60)
                            failures = ((iteration, (rng.randrange(N_NODES),)),)
                        request = SolveRequest(
                            strategy=strategy, T=T, phi=1,
                            preconditioner=preconditioner, failures=failures,
                        )
                        pool.append(ServeRequest(
                            problem=PROBLEM[0], scale=PROBLEM[1], n_nodes=N_NODES,
                            request=request,
                        ).to_dict())
    return pool


class Segment:
    """What one server process measured."""

    def __init__(self) -> None:
        self.replies: list[http_client.Reply] = []
        self.transport_errors = 0
        self.loop_s = 0.0
        self.setup_s = 0.0
        #: ``GET /stats`` after the warm-up and one pass of the pool.
        self.stats: dict = {}
        #: What the launcher wrote when the server exited.
        self.launcher: dict = {}


def serve_segment(
    pool: list[dict], order, seconds: float, trace: bool, work, label: str
) -> Segment:
    segment = Segment()
    stats_path = work / f"server-{label}.json"
    started = time.monotonic()
    errors_path = work / f"server-{label}.err"
    with open(errors_path, "w") as errors:
        process = common.launch(
            ["serve", "--host", "127.0.0.1", "--port", "0",
             "--pool-size", str(POOL_SIZE), "--cache-dir", str(work / f"cache-{label}"),
             "--quiet"],
            stats_path, trace,
            stdout=subprocess.PIPE, stderr=errors, text=True,
        )
    try:
        line = process.stdout.readline()
        if "listening on http://" not in line:
            raise BenchmarkError(f"repro serve did not start: {line!r}")
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        port = int(port)
        status, _ = http_client.request(host, port, "GET", "/health")
        if status != 200:
            raise BenchmarkError(f"/health answered {status}")
        # One warm-up request per pool key builds each session.
        for preconditioner in sorted(set(PRECONDITIONERS)):
            payload_index = next(
                i for i, p in enumerate(pool)
                if p["request"]["preconditioner"] == preconditioner
            )
            sent = time.monotonic()
            status, body = http_client.request(
                host, port, "POST", "/solve", pool[payload_index]
            )
            segment.replies.append(http_client.Reply(
                payload_index, status, time.monotonic() - sent, body
            ))
        segment.setup_s = time.monotonic() - started
        # Exactly one pass of the pool first, so every distinct request
        # is served in every segment and the pool counters read after it
        # cover a fixed number of requests; then load for the rest of
        # the segment's time.
        one_pass, errors, elapsed = http_client.run_closed_loop(
            host, port, pool, order, CLIENTS, 0.0, min_requests=len(pool)
        )
        _, segment.stats = http_client.request(host, port, "GET", "/stats")
        rest, more_errors, more_elapsed = http_client.run_closed_loop(
            host, port, pool, order, CLIENTS, seconds - elapsed, min_requests=0
        )
        segment.replies += one_pass + rest
        segment.transport_errors = errors + more_errors
        segment.loop_s = elapsed + more_elapsed
    finally:
        process.send_signal(signal.SIGINT)
        common.stop(process, timeout=30)
        process.stdout.close()
    segment.launcher = common.read_stats(stats_path, errors_path)
    return segment


def check(phase: Phase, replies: list[http_client.Reply], warmups: int) -> list[float]:
    """Record every reply in ``phase``; returns the loop latencies."""
    from repro.serve import verify_response

    latencies = []
    for position, reply in enumerate(replies):
        body = reply.body
        ok = (
            reply.status == 200
            and verify_response(body)
            and body["report"]["converged"]
        )
        phase.record(
            ok=ok,
            key=body.get("request_fingerprint", f"error-{reply.payload_index}"),
            digest=body.get("response_digest", ""),
            report=body.get("report"),
        )
        if position >= warmups:
            latencies.append(reply.latency_s)
    return latencies


def run_phase(seed: int, seconds: float, servers: int, trace: bool, work):
    pool = payload_pool(seed)
    order = passes(len(pool), seed)
    # Identical payloads repeat (that is how the key skew is made), so
    # the exact counts run over the distinct ones.
    phase = Phase(pool_size=len({json.dumps(p, sort_keys=True) for p in pool}))
    segments = []
    for index in range(servers):
        label = f"{'traced' if trace else 'plain'}-{index}"
        segment = serve_segment(pool, order, seconds / servers, trace, work, label)
        segments.append(segment)
        phase.latencies += check(phase, segment.replies, len(set(PRECONDITIONERS)))
        phase.attempted += segment.transport_errors
        phase.failed += segment.transport_errors
        phase.setups.append(segment.setup_s)
        phase.timed_s += segment.loop_s
        phase.peak_rss_mb = max(phase.peak_rss_mb, segment.launcher["peak_rss_mb"])
    return phase, segments


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    work = common.work_dir()
    try:
        return _run(seed, seconds, trace, work)
    finally:
        common.remove_work_dir(work)


def _run(seed: int, seconds: float, trace: bool, work) -> Outcome:
    if not trace:
        phase, _ = run_phase(seed, seconds, SERVERS, False, work)
        return Outcome.from_phase(phase)
    first_seconds, second_seconds = split_phases(seconds)
    plain, _ = run_phase(seed, first_seconds, 1, False, work)
    traced, segments = run_phase(seed, second_seconds, 1, True, work)

    from repro.matrices import suite

    _, _, meta = suite.load(*PROBLEM, seed=2020)

    summary = tracing.merge_summaries(s.launcher["trace"] for s in segments)
    replies = [r for s in segments for r in s.replies if r.status == 200]
    pools = [s.stats["pool"] for s in segments]
    hits = sum(p["hits"] for p in pools)
    misses = sum(p["misses"] for p in pools)
    served_ops = sum(len(s.replies) for s in segments)
    return Outcome.traced(
        plain,
        traced,
        layers.LayerInputs(
            summary=summary,
            ops=served_ops,
            n=meta.n,
            nnz=meta.nnz,
            counts=layers.report_counts(traced.distinct_reports()),
            setup_events=add_counts(s.launcher["setup_events"] for s in segments),
            coverage_wall_s=sum(r.latency_s for s in segments for r in s.replies),
            overhead_ratio=traced.throughput / plain.throughput,
            extra={
                "serve.wait_ms": 1e3 * _mean(
                    r.body["timing"]["service_seconds"] - r.body["timing"]["wall_time"]
                    for r in replies
                ),
                "serve.transport_ms": 1e3 * _mean(
                    r.latency_s - r.body["timing"]["service_seconds"] for r in replies
                ),
                "serve.pool.hit_rate": hits / (hits + misses),
                "serve.pool.hits": hits / len(pools),
                "serve.pool.misses": misses / len(pools),
                "serve.pool.evictions": sum(p["evictions"] for p in pools) / len(pools),
            },
        ),
    )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
