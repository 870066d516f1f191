"""The repository benchmark: three workloads against the three entry points.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload direct_bench --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program.  ``--trace 1`` spends half of ``--seconds`` the same way
and half with span wrappers around every layer's public calls, and
reports the per-layer metrics of :mod:`layers` instead.  Run the tests
of the helpers with ``python3 -m pytest perfbench/tests -q``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print the host stamp and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import common
import layers

WORKLOADS = ("direct_bench", "serve_tiny", "campaign_queue")

#: ``(name, unit)`` of the end-to-end metrics, in report order.
END_TO_END = (
    ("throughput_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
#: Printed with the others but carried in ``failed``/``attempted`` of
#: the result line rather than as a metric: it is 0 on a correct
#: program, and a bound relative to 0 means nothing.
ERROR_RATE = ("error_rate", "ratio")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        backend = common.pin_environment()
        workload = importlib.import_module(args.workload)
        host = common.host_stamp(backend)
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    except common.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    specs = list(layers.PER_LAYER if args.trace else END_TO_END)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    if args.trace:
        shown = specs + list(layers.WORKLOAD_ONLY.get(args.workload, ()))
    else:
        shown = specs + [ERROR_RATE]
    for name, unit in shown:
        note = outcome.notes.get(name)
        print(f"  {name:<32} {outcome.metrics[name]:>14.6g} {unit:<6}"
              + (f" ({note})" if note else ""))
    for problem in outcome.problems:
        print(f"  INCORRECT: {problem}")
    print(json.dumps(outcome.result_line(specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
