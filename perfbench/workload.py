"""What a workload measures in one phase, and the outcome of a run."""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Iterator

import layers
from common import median, percentile

#: Share of ``--seconds`` the traced run spends untraced (the baseline
#: of ``trace.overhead_ratio``); the rest is traced.
UNTRACED_SHARE = 0.5


def split_phases(seconds: float) -> tuple[float, float]:
    first = seconds * UNTRACED_SHARE
    return first, seconds - first


def passes(size: int, seed: int) -> Iterator[int]:
    """Endless seeded permutations of ``range(size)``: every pass sends
    each request of the pool once, so every run sees the same mix."""
    rng = random.Random(seed ^ 0x5EED)
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield from order


def failure_iteration(
    rng: random.Random, T: int, draw: int, draws: int, first: int, last: int
) -> int:
    """A seeded failure iteration in ``[first, last]`` whose phase within
    the storage/checkpoint interval ``T`` is fixed by ``draw``.

    A rollback discards work that grows with that phase, so spreading it
    evenly over the interval across the draws (instead of drawing it)
    keeps the cost mix, and with it the latency tail, the same for every
    seed; the seed still picks the interval and the failed ranks.
    """
    phase = (T * (2 * draw + 1)) // (2 * draws)
    return rng.choice([i for i in range(first, last + 1) if i % T == phase])


@dataclasses.dataclass
class Phase:
    """Operations of one measured phase, checked for correctness."""

    setups: list[float] = dataclasses.field(default_factory=list)
    #: One sample per timed operation (set-up work such as warm-up
    #: requests is checked but not timed).
    latencies: list[float] = dataclasses.field(default_factory=list)
    #: Wall time the timed operations took.
    timed_s: float = 0.0
    #: Wall time of the whole phase, set-ups included.
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    #: Distinct operations the workload cycles through.
    pool_size: int = 0
    #: Result digest per distinct operation (first one seen).
    digests: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Report per distinct operation (first one seen), for exact counts.
    reports: dict[str, dict] = dataclasses.field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        return self.ops / self.timed_s if self.timed_s > 0 else 0.0

    def record(self, ok: bool, key: str, digest: str, report: dict | None) -> None:
        """Count one operation; a digest differing from an earlier
        result of the same request fails it."""
        self.attempted += 1
        previous = self.digests.setdefault(key, digest)
        if not ok or previous != digest:
            self.failed += 1
        elif report is not None:
            self.reports.setdefault(key, report)

    def distinct_reports(self) -> list[dict]:
        return [self.reports[key] for key in sorted(self.reports)]


@dataclasses.dataclass
class Outcome:
    """Everything ``run.py`` prints for one run."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    #: ``name -> note`` printed next to a metric (sample counts).
    notes: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Why ``correct`` is false, when it is.
    problems: list[str] = dataclasses.field(default_factory=list)

    @classmethod
    def from_phase(cls, phase: Phase, problems: list[str] | None = None) -> "Outcome":
        """The end-to-end outcome of an untraced phase."""
        problems = list(problems or [])
        if phase.failed:
            problems.append(f"{phase.failed} of {phase.attempted} operations failed")
        samples = f"n={len(phase.latencies)}"
        return cls(
            correct=not problems,
            attempted=phase.attempted,
            failed=phase.failed,
            metrics={
                "throughput_per_s": phase.throughput,
                "latency_p50_ms": 1e3 * percentile(phase.latencies, 0.5),
                "latency_p90_ms": 1e3 * percentile(phase.latencies, 0.9),
                "setup_s": median(phase.setups),
                "peak_rss_mb": phase.peak_rss_mb,
                "error_rate": phase.failed / phase.attempted,
            },
            notes={
                "throughput_per_s": f"{phase.ops} ops in {phase.timed_s:.2f}s",
                "latency_p50_ms": samples,
                "latency_p90_ms": samples,
                "setup_s": f"median of {len(phase.setups)}",
                "error_rate": f"{phase.failed}/{phase.attempted}",
            },
            problems=problems,
        )

    @classmethod
    def traced(
        cls,
        plain: Phase,
        traced: Phase,
        inputs: "layers.LayerInputs",
        problems: list[str] | None = None,
    ) -> "Outcome":
        """The per-layer outcome of an untraced + traced phase pair."""
        problems = list(problems or [])
        for name, phase in (("untraced", plain), ("traced", traced)):
            if phase.failed:
                problems.append(
                    f"{phase.failed} of {phase.attempted} {name} operations failed"
                )
        differing = [
            key for key, digest in traced.digests.items()
            if plain.digests.get(key, digest) != digest
        ]
        if differing:
            problems.append(
                f"{len(differing)} traced results differ from the untraced ones"
            )
        if len(traced.reports) < traced.pool_size:
            problems.append(
                f"traced phase covered {len(traced.reports)} of "
                f"{traced.pool_size} distinct operations; counts are not exact"
            )
        return cls(
            correct=not problems,
            attempted=plain.attempted + traced.attempted,
            failed=plain.failed + traced.failed,
            metrics=layers.layer_metrics(inputs),
            notes={"trace.overhead_ratio": (
                f"{traced.throughput:.4g} / {plain.throughput:.4g} ops/s"
            )},
            problems=problems,
        )

    def result_line(self, specs: list[tuple[str, str]]) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": layers.with_units(self.metrics, specs),
        }
