"""``campaign_queue``: a campaign through submit -> 2 queue workers -> collect.

Each campaign gets a fresh queue directory and a fresh ``--cache-dir``
shared by its two ``repro campaign worker`` processes.  The spec runs
``emilia_923_like``/``tiny`` on 4 nodes with two preconditioners (two
task shards, so each worker computes one reference trajectory and the
one stealing at the tail reads the other's from disk), crossing
ESR/ESRP/IMCR, phi in {1, 2} and the failure-free and worst-case
scenarios: 200 tasks.  The campaign seed comes from ``--seed``.

One operation is one task.  Its latency is the time between two
consecutive progress lines of the worker that ran it (the first from
the worker's spawn), so it covers claim, solve, spool and completion.
"""

from __future__ import annotations

import json
import subprocess
import threading
import time

import common
import layers
import tracing
from common import BenchmarkError, add_counts
from workload import Outcome, Phase, split_phases

WORKERS = 2
#: Compact each worker's spool every this many records, so a 200-task
#: campaign exercises segment compaction (the default suits sweeps of
#: thousands of tasks).
COMPACT_EVERY = 32
MIN_OPS = 100


def campaign_spec(seed: int):
    from repro.campaign import CampaignSpec, ScenarioSpec, StrategySpec

    return CampaignSpec(
        name=f"perfbench-{seed}",
        problems=(("emilia_923_like", "tiny"),),
        n_nodes=4,
        preconditioners=("block_jacobi", "jacobi"),
        strategies=(
            StrategySpec("esr"),
            StrategySpec("esrp", (10, 20)),
            StrategySpec("imcr", (10, 20)),
        ),
        phis=(1, 2),
        scenarios=(
            ScenarioSpec.make("failure_free"),
            ScenarioSpec.make("worst_case", location="start"),
        ),
        repetitions=5,
        seed=seed,
    )


class Campaign:
    """What one submit -> workers -> collect cycle measured."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.timed_s = 0.0
        self.latencies: list[float] = []
        self.tasks = 0
        self.collected = 0
        self.result_bytes = b""
        self.spawned = 0.0
        #: Launcher stats of the submit and worker processes.
        self.submit: dict = {}
        self.workers: list[dict] = []
        self.reclaims = 0


def _progress_stamps(process: subprocess.Popen, stamps: list[float]) -> None:
    """Timestamp every per-task progress line a worker prints."""
    for line in process.stdout:
        if line.lstrip().startswith("["):
            stamps.append(time.monotonic())


def run_campaign(spec_path, trace: bool, work, label: str) -> Campaign:
    from repro.queue import QueueStore, collect

    campaign = Campaign()
    queue = work / f"queue-{label}"
    started = time.monotonic()
    submit = common.launch(
        ["campaign", "submit", "--queue", str(queue), "--spec", str(spec_path)],
        work / f"submit-{label}.json", trace,
        stdout=subprocess.DEVNULL,
    )
    common.stop(submit, timeout=120)
    campaign.setup_s = time.monotonic() - started
    if submit.returncode != 0:
        raise BenchmarkError(f"campaign submit exited with {submit.returncode}")
    campaign.submit = common.read_stats(work / f"submit-{label}.json")

    campaign.spawned = time.monotonic()
    workers, readers, stamps = [], [], []
    try:
        for index in range(WORKERS):
            process = common.launch(
                ["campaign", "worker", "--queue", str(queue),
                 "--cache-dir", str(work / f"cache-{label}"),
                 "--id", f"w{index}", "--compact-every", str(COMPACT_EVERY)],
                work / f"worker-{label}-{index}.json", trace,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
            workers.append(process)
            stamps.append([])
            readers.append(threading.Thread(
                target=_progress_stamps, args=(process, stamps[-1])
            ))
            readers[-1].start()
    finally:
        for process in workers:
            common.stop(process, timeout=150)
        for reader in readers:
            reader.join()
    result = collect(queue, allow_partial=True)
    campaign.timed_s = time.monotonic() - campaign.spawned

    for worker_stamps in stamps:
        previous = campaign.spawned
        for stamp in worker_stamps:
            campaign.latencies.append(stamp - previous)
            previous = stamp
    store = QueueStore(queue)
    campaign.tasks = store.n_tasks
    campaign.collected = len(result)
    campaign.reclaims = sum(1 for _ in (queue / "reclaimed").glob("*"))
    out = work / f"result-{label}.json"
    result.to_json(out)
    campaign.result_bytes = out.read_bytes()
    campaign.workers = [
        common.read_stats(work / f"worker-{label}-{index}.json")
        for index in range(WORKERS)
    ]
    return campaign


def run_phase(spec_path, seconds: float, trace: bool, work, min_ops: int):
    phase = Phase()
    campaigns = []
    started = time.monotonic()
    while phase.timed_s < seconds or phase.ops < min_ops:
        if phase.timed_s > 3 * seconds + 30:
            raise BenchmarkError(f"campaign_queue completed {phase.ops} tasks in time")
        label = f"{'traced' if trace else 'plain'}-{len(campaigns)}"
        campaign = run_campaign(spec_path, trace, work, label)
        campaigns.append(campaign)
        phase.setups.append(campaign.setup_s)
        phase.timed_s += campaign.timed_s
        phase.latencies += campaign.latencies
        phase.attempted += campaign.tasks
        phase.failed += campaign.tasks - campaign.collected
        phase.peak_rss_mb = max(
            [phase.peak_rss_mb] + [w["peak_rss_mb"] for w in campaign.workers]
        )
    phase.wall_s = time.monotonic() - started
    return phase, campaigns


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    work = common.work_dir()
    try:
        return _run(seed, seconds, trace, work)
    finally:
        common.remove_work_dir(work)


def _run(seed: int, seconds: float, trace: bool, work) -> Outcome:
    spec = campaign_spec(seed)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    if not trace:
        phase, campaigns = run_phase(spec_path, seconds, False, work, MIN_OPS)
        return Outcome.from_phase(phase, problems=_check_serial(spec, campaigns, work))

    first_seconds, second_seconds = split_phases(seconds)
    plain, plain_campaigns = run_phase(spec_path, first_seconds, False, work, 1)
    installation = layers.install()  # traces collect() in this process
    try:
        traced, campaigns = run_phase(spec_path, second_seconds, True, work, 1)
    finally:
        installation.uninstall()
    problems = _check_serial(spec, plain_campaigns + campaigns, work)

    from repro.campaign import CampaignResult

    workers = [w for c in campaigns for w in c.workers]
    summary = tracing.merge_summaries(
        [installation.tracer.summary()]
        + [c.submit["trace"] for c in campaigns]
        + [w["trace"] for w in workers]
    )
    loops = [s for w in workers for s in w["workers"]]
    lifetimes = [w["ended"] - c.spawned for c in campaigns for w in c.workers]
    startups = [
        w["trace"]["layers"]["queue.claim"]["first_start"] - c.spawned
        for c in campaigns for w in c.workers
        if "queue.claim" in w["trace"]["layers"]
    ]
    claim_calls = summary["layers"].get("queue.claim", {}).get("calls", 0)
    records = CampaignResult.from_json(work / "result-traced-0.json").records
    from repro.matrices import suite

    _, _, meta = suite.load("emilia_923_like", "tiny", seed=spec.seed)
    return Outcome.traced(
        plain,
        traced,
        layers.LayerInputs(
            summary=summary,
            ops=traced.ops,
            n=meta.n,
            nnz=meta.nnz,
            counts=layers.report_counts([r.to_dict() for r in records]),
            setup_events=add_counts(w["setup_events"] for w in workers),
            coverage_wall_s=sum(lifetimes),
            overhead_ratio=traced.throughput / plain.throughput,
            coverage_top_level_s=sum(w["trace"]["top_level_s"] for w in workers),
            extra={
                "queue.claim.useful_ratio": (
                    sum(s["claimed"] for s in loops) / claim_calls if claim_calls else 0.0
                ),
                "queue.worker.busy_ratio": (
                    sum(s["busy_seconds"] for s in loops) / sum(lifetimes)
                ),
                "queue.worker.startup_s": sum(startups) / len(startups),
                "queue.reclaims": sum(c.reclaims for c in campaigns) / len(campaigns),
                "queue.retries": sum(s["retried"] for s in loops) / len(campaigns),
            },
        ),
        problems=problems,
    )


def _check_serial(spec, campaigns, work) -> list[str]:
    """Every collected result must be byte-identical to a serial run."""
    from repro.campaign import execute_campaign

    serial = work / "serial.json"
    execute_campaign(spec, workers=0).to_json(serial)
    expected = serial.read_bytes()
    differing = sum(1 for c in campaigns if c.result_bytes != expected)
    if differing:
        return [f"{differing} of {len(campaigns)} collected campaigns differ "
                "from the serial run"]
    return []
