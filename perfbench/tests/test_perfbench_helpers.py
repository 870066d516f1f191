"""Tests of the benchmark's own helpers.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import pytest

import common
import layers
import run
import tracing


# ------------------------------------------------------------------ percentile


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert common.percentile(values, 0.5) == 50
    assert common.percentile(values, 0.9) == 90
    assert common.percentile(list(reversed(values)), 0.9) == 90


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(common.BenchmarkError, match="p90 needs 100 samples"):
        common.percentile(list(range(99)), 0.9)
    assert common.percentile(list(range(100)), 0.9) == 89
    with pytest.raises(common.BenchmarkError):
        common.percentile(list(range(19)), 0.5)
    assert common.percentile(list(range(20)), 0.5) == 9


def test_median():
    assert common.median([3.0, 1.0, 2.0]) == 2.0
    assert common.median([4.0, 1.0, 2.0, 3.0]) == 2.5


# ------------------------------------------------------------------- self time


def test_self_time_subtracts_direct_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("b", 11.0, 12.0, -1),
    ]
    summary = tracing.summarise(spans)
    layers_ = summary["layers"]
    assert layers_["a"]["self_s"] == pytest.approx(3.0)
    assert layers_["b"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert layers_["b"]["total_s"] == pytest.approx(4.0)
    assert layers_["b"]["calls"] == 2
    assert layers_["c"]["self_s"] == pytest.approx(1.0)
    assert layers_["d"]["self_s"] == pytest.approx(4.0)
    assert summary["top_level_s"] == pytest.approx(11.0)
    assert summary["edges"] == {"a>b": 1, "b>c": 1, "a>d": 1}


def test_merge_adds_threads_and_processes():
    one = tracing.summarise([("a", 0.0, 2.0, -1)])
    two = tracing.summarise([("a", 5.0, 6.0, -1), ("b", 5.5, 5.75, 0)])
    merged = tracing.merge_summaries([one, two])
    assert merged["layers"]["a"]["calls"] == 2
    assert merged["layers"]["a"]["self_s"] == pytest.approx(2.75)
    assert merged["layers"]["a"]["first_start"] == 0.0
    assert merged["top_level_s"] == pytest.approx(3.0)
    assert merged["edges"] == {"a>b": 1}


def test_tracer_records_nesting_and_collapses_reentry(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "clock", lambda: float(next(ticks)))
    tracer = tracing.Tracer()

    def inner():
        return "x"

    def recursive(depth):
        return recursive_traced(depth - 1) if depth else inner_traced()

    inner_traced = tracer.wrap(inner, "inner")
    recursive_traced = tracer.wrap(recursive, "outer")

    assert recursive_traced(3) == "x"
    (spans,) = tracer.spans()
    # Re-entering "outer" three times records one span, not four.
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("outer", -1), ("inner", 0),
    ]
    summary = tracer.summary()
    assert summary["layers"]["outer"]["total_s"] == 3.0
    assert summary["layers"]["outer"]["self_s"] == 2.0
    assert summary["layers"]["inner"]["self_s"] == 1.0


def test_tracer_keeps_threads_apart():
    import threading

    tracer = tracing.Tracer()
    traced = tracer.wrap(lambda: None, "call")
    threads = [threading.Thread(target=traced) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert [len(spans) for spans in tracer.spans()] == [1, 1, 1]
    assert all(spans[0][3] == -1 for spans in tracer.spans())


# -------------------------------------------------------------------- patching


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.impl`` defines things; ``fakepkg.api`` re-exports one."""
    impl = types.ModuleType("fakepkg.impl")
    api = types.ModuleType("fakepkg.api")

    def helper(x):
        return x + 1

    class Base:
        def method(self):
            return "base"

        @classmethod
        def build(cls):
            return cls()

    class Child(Base):
        pass

    impl.helper, impl.Base, impl.Child = helper, Base, Child
    api.helper = helper
    for module in (impl, api):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return impl, api


def test_uninstall_restores_every_patched_attribute(fake_package):
    impl, api = fake_package
    helper, Base, Child = impl.helper, impl.Base, impl.Child
    before = {
        "impl": dict(vars(impl)),
        "api": dict(vars(api)),
        "Base": dict(Base.__dict__),
        "Child": dict(Child.__dict__),
    }
    patches = tracing.Patches(tracing.Tracer())
    patches.function("fakepkg.impl", "helper", "fake.helper")
    patches.class_tree(Base, ("method", "build"), "fake.method")

    assert impl.helper is not helper and api.helper is impl.helper
    assert api.helper(1) == 2
    assert "method" not in Child.__dict__  # wrapped once, where defined
    assert Child().method() == "base" and isinstance(Child.build(), Child)
    assert isinstance(Base.__dict__["build"], classmethod)
    assert len(patches) == 4

    patches.uninstall()
    after = {
        "impl": dict(vars(impl)),
        "api": dict(vars(api)),
        "Base": dict(Base.__dict__),
        "Child": dict(Child.__dict__),
    }
    assert after.keys() == before.keys()
    for owner in before:
        assert after[owner].keys() == before[owner].keys()
        for key, value in before[owner].items():
            assert after[owner][key] is value, (owner, key)
    assert len(patches) == 0


def test_layer_install_restores_the_program():
    common.require_program()
    installation = layers.install()
    installation.uninstall()  # the first install imports every module

    def snapshot():
        seen = {}
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] != "repro":
                continue
            seen[name] = dict(vars(module))
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__.startswith("repro"):
                    key = f"{value.__module__}.{value.__qualname__}"
                    seen[key] = dict(value.__dict__)
        return seen

    before = snapshot()
    installation = layers.install()
    from repro.api.session import SolverSession

    assert SolverSession.__dict__["solve"] is not before[
        "repro.api.session.SolverSession"]["solve"]
    installation.uninstall()
    after = snapshot()
    for owner, attributes in before.items():
        assert after[owner].keys() == attributes.keys(), owner
        for key, value in attributes.items():
            assert after[owner][key] is value, (owner, key)


# ---------------------------------------------------------------- the contract


def test_metric_lists_match_benchmark_json():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_layer_metrics_cover_every_per_layer_metric():
    summary = tracing.summarise([
        ("api.session_build", 0.0, 0.5, -1),
        ("api.solve", 1.0, 2.0, -1),
        ("solvers.engine", 1.1, 1.9, 1),
        ("api.solve", 2.0, 3.0, -1),
    ])
    metrics = layers.layer_metrics(layers.LayerInputs(
        summary=summary, ops=2, n=10, nnz=30, counts={"kernels.flops": 7.0},
        setup_events={"reference": 1}, coverage_wall_s=4.0, overhead_ratio=0.9,
    ))
    assert list(metrics) == [name for name, _ in layers.ALL_LAYER]
    assert metrics["api.solve.self_ms"] == pytest.approx(1e3 * (0.2 + 1.0) / 2)
    assert metrics["solvers.engine.self_ms"] == pytest.approx(400.0)
    assert metrics["api.session_build.ms"] == pytest.approx(500.0)
    assert metrics["api.reference.computed"] == 1.0
    assert metrics["kernels.flops"] == 7.0
    assert metrics["trace.coverage"] == pytest.approx(2.5 / 4.0)
    assert metrics["serve.parse.ms"] == 0.0
    assert set(layers.WORKLOAD_ONLY) < set(run.WORKLOADS)
    assert not {name for name, _ in layers.PER_LAYER} & {
        name for only in layers.WORKLOAD_ONLY.values() for name, _ in only
    }


def test_setup_part_keeps_only_the_set_up_layers():
    summary = tracing.summarise([
        ("api.session_build", 0.0, 1.0, -1),
        ("preconditioners.setup", 0.2, 0.4, 0),
        ("api.reference", 1.0, 3.0, -1),
        ("kernels.spmv_local", 1.5, 2.0, 2),
    ])
    part = layers.setup_part(summary)
    assert set(part["layers"]) == {"api.session_build", "preconditioners.setup"}
    assert part["top_level_s"] == pytest.approx(3.0)
    merged = tracing.merge_summaries([part, tracing.summarise([
        ("kernels.spmv_local", 5.0, 5.5, -1),
    ])])
    assert merged["layers"]["kernels.spmv_local"]["calls"] == 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(common.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "direct_bench",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "no program to benchmark" in done.stderr
