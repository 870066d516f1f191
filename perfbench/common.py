"""Shared plumbing: checkout paths, host stamp, statistics, child processes."""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Sequence

HERE = pathlib.Path(__file__).resolve().parent
#: Root of the checkout the benchmark runs from.
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment variables that would leak state or inputs into a run.
_ISOLATED_ENV = ("REPRO_CACHE_DIR", "REPRO_MATRIX_DIR", "REPRO_ALLOW_LOOPED")
#: One BLAS thread per process: the program's vectors are too small to
#: gain from more, and idle BLAS threads spinning on the second core
#: would contend with the other process of a two-process workload.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


def require_program() -> None:
    """Make ``repro`` importable from the checkout's ``src`` or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_environment() -> str:
    """Fix what the program inherits, for this process and every child.

    Call before numpy is imported.  Returns the kernel backend, resolved
    once (``REPRO_BACKEND`` or the library default) and exported.
    """
    for name in _BLAS_THREADS:
        os.environ[name] = "1"
    require_program()
    from repro.kernels.base import BACKEND_ENV, default_backend

    backend = default_backend()
    os.environ[BACKEND_ENV] = backend
    for name in _ISOLATED_ENV:
        os.environ.pop(name, None)
    return backend


def host_stamp(backend: str) -> dict:
    """The host block every result carries."""
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        numba_present = True
    except ImportError:
        numba_present = False
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_present,
        "backend": backend,
        "blas_threads": int(os.environ.get(_BLAS_THREADS[0], 0)),
        "machine": platform.machine(),
        "speed_probe_ms": speed_probe_ms(),
    }


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python and numpy task, in ms.

    It measures the host, not the program: sets of runs taken while a
    shared host ran at different speeds show different probe times, so
    they can be told apart rather than read as a change of the program.
    """
    import numpy

    matrix = numpy.arange(256 * 256, dtype=float).reshape(256, 256) / 65536.0
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        matrix @ matrix
        times.append(time.perf_counter() - started)
    return round(1e3 * median(times), 3)


def work_dir() -> pathlib.Path:
    """A fresh scratch directory inside the checkout (removed by the caller)."""
    parent = ROOT / ".perfbench-work"
    parent.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=parent))


def remove_work_dir(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # only succeeds once no other run uses it
    except OSError:
        pass


# ------------------------------------------------------------------ statistics


def add_counts(counters) -> dict[str, int]:
    """Sum ``{key: count}`` mappings."""
    total: dict[str, int] = {}
    for counter in counters:
        for key, count in counter.items():
            total[key] = total.get(key, 0) + count
    return total


#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile, refused when the tail is too thin.

    At least :data:`MIN_TAIL` samples must lie beyond the percentile,
    i.e. ``len(values) * (1 - q) >= MIN_TAIL``; otherwise the figure
    would rest on a handful of samples and :class:`BenchmarkError` is
    raised.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(values)
    if n * (1.0 - q) < MIN_TAIL - 1e-9:
        raise BenchmarkError(
            f"p{q * 100:g} needs {math.ceil(MIN_TAIL / (1.0 - q) - 1e-9)} samples "
            f"for {MIN_TAIL} beyond it, got {n}"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchmarkError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# ------------------------------------------------------------ child processes


def launch(
    cli_args: Sequence[str],
    stats_path: pathlib.Path,
    trace: bool,
    **popen_kwargs,
) -> subprocess.Popen:
    """Start ``repro <cli_args>`` through the launcher in this directory."""
    command = [sys.executable, str(HERE / "launch.py"), "--stats", str(stats_path)]
    if trace:
        command.append("--trace")
    command += ["--", *cli_args]
    return subprocess.Popen(command, cwd=str(ROOT), **popen_kwargs)


def read_stats(path: pathlib.Path, errors: pathlib.Path | None = None) -> dict:
    """What the launcher wrote when its ``repro`` command exited.

    ``errors`` names the file holding the command's standard error,
    quoted when the stats are missing.
    """
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        detail = ""
        if errors is not None and errors.exists():
            detail = "; its stderr ends with: " + errors.read_text()[-2000:]
        raise BenchmarkError(
            f"launcher left no readable stats at {path}: {exc}{detail}"
        ) from exc


def stop(process: subprocess.Popen, timeout: float) -> None:
    """Wait for ``process``; kill it if it outlives ``timeout``.

    The wait blocks, so it returns the moment the process exits:
    ``Popen.wait(timeout=...)`` polls in steps of up to 50 ms, which
    would quantise every timing that ends at a process exit.
    """
    watchdog = threading.Timer(timeout, process.kill)
    watchdog.start()
    try:
        process.wait()
    finally:
        watchdog.cancel()
