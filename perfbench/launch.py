"""Run one ``repro`` CLI command for the benchmark, optionally traced.

Usage::

    python3 perfbench/launch.py --stats OUT.json [--trace] -- <repro args>

With ``--trace`` the span wrappers of :mod:`layers` are installed
before ``repro.cli.main`` runs.  When the command ends — normally or by
SIGINT, which is how the benchmark stops ``repro serve`` — the launcher
writes ``OUT.json`` with the exit code, the peak resident memory of
this process and, when traced, the span summary plus the set-up events
of every session and the summary of every queue worker loop.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, help="where to write the exit stats")
    parser.add_argument("--trace", action="store_true", help="install the span wrappers")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    started = time.monotonic()
    # The benchmark stops ``repro serve`` with SIGINT, which a process
    # started in the background may have inherited as ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    import common

    common.require_program()
    from repro.cli import main as cli_main

    installed = None
    if args.trace:
        import layers

        installed = layers.install()
    code = 1
    try:
        code = cli_main(cli_args)
    except KeyboardInterrupt:
        code = 0
    finally:
        stats = {
            "exit_code": code,
            "started": started,
            "ended": time.monotonic(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if installed is not None:
            installed.uninstall()
            stats["trace"] = installed.tracer.summary()
            stats["setup_events"] = installed.setup_events()
            stats["workers"] = [
                {
                    "claimed": s.claimed,
                    "done": s.done,
                    "failed": s.failed,
                    "retried": s.retried,
                    "abandoned": s.abandoned,
                    "busy_seconds": s.busy_seconds,
                }
                for s in installed.worker_summaries
            ]
        with open(args.stats, "w", encoding="utf-8") as handle:
            json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
