"""``direct_bench``: one in-process caller of ``SolverSession.solve``.

Closed loop on ``poisson3d``/``bench`` (32,768 unknowns, 32 virtual
nodes).  The request pool crosses ESR, ESRP (T = 20, 50) and IMCR
(T = 50) with phi in {1, 3}; half the requests are failure-free and
half lose phi nodes at once at a seeded iteration (see
:func:`workload.failure_iteration`).  The pool is sent in seeded
permutations, so every run sees the same mix.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import random
import resource
import time

import numpy as np

import layers
import tracing
from common import BenchmarkError, add_counts
from workload import Outcome, Phase, failure_iteration, passes, split_phases

PROBLEM = ("poisson3d", "bench")
N_NODES = 32
CONFIGS = (("esr", 1), ("esrp", 20), ("esrp", 50), ("imcr", 50))
PHIS = (1, 3)
#: Seeded failure draws per (configuration, phi) pair.
DRAWS = 2
#: Sessions set up (and measured) per phase.
SESSIONS = 7
MIN_OPS = 100


def request_pool(seed: int) -> list:
    from repro.api import SolveRequest

    rng = random.Random(seed)
    pool = []
    for draw in range(DRAWS):
        for strategy, T in CONFIGS:
            for phi in PHIS:
                for failing in (False, True):
                    failures = ()
                    if failing:
                        ranks = tuple(sorted(rng.sample(range(N_NODES), phi)))
                        iteration = failure_iteration(rng, T, draw, DRAWS, 10, 80)
                        failures = ((iteration, ranks),)
                    pool.append(SolveRequest(
                        strategy=strategy, T=T, phi=phi, failures=failures,
                        n_nodes=N_NODES,
                    ))
    return pool


def report_digest(report) -> str:
    payload = report.to_dict()
    payload.pop("wall_time")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@contextlib.contextmanager
def traced_into(installations: list | None):
    """Install the span wrappers for the block and append the
    installation to ``installations``; do nothing when it is ``None``."""
    if installations is None:
        yield
        return
    installation = layers.install()
    try:
        yield
    finally:
        installation.uninstall()
        installations.append(installation)


def run_phase(
    seed: int, seconds: float, min_ops: int, traces: tuple[list, list] | None = None
) -> Phase:
    """Set up :data:`SESSIONS` sessions in turn and solve on each for a
    share of ``seconds``.  With ``traces``, session set-ups and timed
    solves are traced apart, into its first and second list."""
    from repro.api import SolverSession

    setup_traces, solve_traces = traces or (None, None)

    pool = request_pool(seed)
    order = passes(len(pool), seed)
    phase = Phase()
    started = time.monotonic()
    for index in range(SESSIONS):
        gc.collect()
        with traced_into(setup_traces):
            set_up = time.monotonic()
            session = SolverSession.from_problem(*PROBLEM, n_nodes=N_NODES)
            session.matrix  # distributed matrix + communication plan
            session.reference()  # preconditioner factorisation + reference solve
            phase.setups.append(time.monotonic() - set_up)
        a, b = session.matrix_csr, session.b
        b_norm = float(np.linalg.norm(b))
        budget = seconds * (index + 1) / SESSIONS
        last = index == SESSIONS - 1
        with traced_into(solve_traces):
            while phase.timed_s < budget or (last and phase.ops < min_ops):
                if phase.timed_s > 3 * seconds + 30:
                    raise BenchmarkError(
                        f"direct_bench completed {phase.ops} solves in "
                        f"{phase.timed_s:.0f}s; {min_ops} are needed"
                    )
                request = pool[next(order)]
                sent = time.monotonic()
                report = session.solve(request, with_reference=True)
                latency = time.monotonic() - sent
                phase.timed_s += latency
                phase.latencies.append(latency)
                residual = float(np.linalg.norm(b - a @ report.x)) / b_norm
                phase.record(
                    ok=report.converged and residual <= request.rtol,
                    key=request.to_json(),
                    digest=report_digest(report),
                    report=report.to_dict(),
                )
        del session, a, b
    phase.wall_s = time.monotonic() - started
    phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phase.pool_size = len({request.to_json() for request in pool})
    return phase


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    if not trace:
        return Outcome.from_phase(run_phase(seed, seconds, MIN_OPS))
    first_seconds, second_seconds = split_phases(seconds)
    one_pass = len(request_pool(seed))
    plain = run_phase(seed, first_seconds, min_ops=one_pass)
    setup_traces, solve_traces = [], []
    traced = run_phase(seed, second_seconds, one_pass, (setup_traces, solve_traces))
    from repro.matrices import suite

    _, _, meta = suite.load(*PROBLEM)
    return Outcome.traced(
        plain,
        traced,
        layers.LayerInputs(
            summary=tracing.merge_summaries(
                [layers.setup_part(i.tracer.summary()) for i in setup_traces]
                + [i.tracer.summary() for i in solve_traces]
            ),
            ops=traced.ops,
            n=meta.n,
            nnz=meta.nnz,
            counts=layers.report_counts(traced.distinct_reports()),
            setup_events=add_counts(i.setup_events() for i in setup_traces),
            coverage_wall_s=traced.wall_s,
            overhead_ratio=traced.throughput / plain.throughput,
        ),
    )
