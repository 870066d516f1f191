"""In-memory spans around the public calls of each layer.

The program under test carries no instrumentation of its own, so the
traced run patches wrappers onto the functions and methods named in
:mod:`layers` from outside, records one span per call, and removes the
wrappers again afterwards.  Untraced runs never install anything, so
their timings carry no wrapper cost.

A span is ``(name, start, end, parent)``: ``parent`` is the index of
the enclosing span recorded by the same thread, or ``-1`` for a
top-level span.  Spans live in per-thread buffers (no lock on the hot
path) and are reduced to a small JSON-friendly summary by
:func:`summarise`; a layer's *self time* is its span's duration minus
the time its child spans cover.

A call into a layer that is already the innermost open span (a method
calling its base-class implementation through ``super()``, a billing
call issuing another billing call) is not recorded again, so every
layer counts each logical call once.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from typing import Any, Callable, Iterable, Sequence

#: Clock shared by every process of a run: CLOCK_MONOTONIC is
#: system-wide on Linux, so spans from the server and worker processes
#: line up with timestamps taken by the load process.
clock = time.monotonic


class _Buffer:
    """One thread's spans, stored column-wise in compact arrays."""

    __slots__ = ("names", "parents", "starts", "ends", "stack")

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []

    def spans(self, names: Sequence[str]) -> list[tuple[str, float, float, int]]:
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


class Tracer:
    """Records spans from any number of threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self._names)
                self._names.append(name)
            return self._ids[name]

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(buffer)
            return buffer

    def wrap(
        self, fn: Callable, name: str | None, on_result: Callable | None = None
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``name=None`` records no span; ``on_result`` is handed every
        value ``fn`` returns.
        """
        if name is None:
            @functools.wraps(fn)
            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(result)
                return result

            return observed

        name_id = self.name_id(name)
        get_buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer = get_buffer()
            stack = buffer.stack
            if stack and buffer.names[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            index = len(buffer.starts)
            buffer.names.append(name_id)
            buffer.parents.append(stack[-1] if stack else -1)
            buffer.ends.append(0.0)
            stack.append(index)
            buffer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buffer.ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def spans(self) -> list[list[tuple[str, float, float, int]]]:
        """Every thread's finished spans (one list per thread)."""
        with self._lock:
            buffers = list(self._buffers)
            names = list(self._names)
        return [buffer.spans(names) for buffer in buffers]

    def summary(self) -> dict[str, Any]:
        return merge_summaries(summarise(spans) for spans in self.spans())


# --------------------------------------------------------------- reduction


def summarise(spans: Sequence[tuple[str, float, float, int]]) -> dict[str, Any]:
    """Reduce one thread's spans to per-layer totals.

    Returns ``{"layers": {name: {"calls", "total_s", "self_s",
    "first_start"}}, "top_level_s": ..., "edges": {"parent>child": n}}``.
    Self time is a span's duration minus the summed durations of its
    direct children (children of one thread never overlap).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict[str, dict[str, float]] = {}
    edges: dict[str, int] = {}
    top_level = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        entry = layers.setdefault(
            name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "first_start": start},
        )
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[index]
        entry["first_start"] = min(entry["first_start"], start)
        if parent < 0:
            top_level += duration
        else:
            edge = f"{spans[parent][0]}>{name}"
            edges[edge] = edges.get(edge, 0) + 1
    return {"layers": layers, "top_level_s": top_level, "edges": edges}


def merge_summaries(summaries: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Add up summaries from several threads or processes."""
    merged: dict[str, Any] = {"layers": {}, "top_level_s": 0.0, "edges": {}}
    for summary in summaries:
        merged["top_level_s"] += summary["top_level_s"]
        for edge, count in summary["edges"].items():
            merged["edges"][edge] = merged["edges"].get(edge, 0) + count
        for name, entry in summary["layers"].items():
            into = merged["layers"].get(name)
            if into is None:
                merged["layers"][name] = dict(entry)
                continue
            into["calls"] += entry["calls"]
            into["total_s"] += entry["total_s"]
            into["self_s"] += entry["self_s"]
            into["first_start"] = min(into["first_start"], entry["first_start"])
    return merged


# ---------------------------------------------------------------- patching


class Patches:
    """Wrappers installed on live modules and classes, and their undo log."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: ``(owner, attribute, original raw value or _ABSENT)``.
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        original = owner.__dict__.get(attribute, _ABSENT)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def function(
        self,
        module_name: str,
        attribute: str,
        name: str | None,
        on_result: Callable | None = None,
    ) -> None:
        """Wrap a module-level function, including every re-export of it.

        ``from x import f`` copies the binding into the importing
        module, so every loaded ``repro`` module holding the same
        function object gets the wrapper too.
        """
        module = sys.modules[module_name]
        original = getattr(module, attribute)
        wrapper = self.tracer.wrap(original, name, on_result)
        root = module_name.split(".")[0]
        for other_name, other in list(sys.modules.items()):
            if other is None or other_name.split(".")[0] != root:
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, wrapper)

    def method(
        self,
        cls: type,
        attribute: str,
        name: str | None,
        on_result: Callable | None = None,
    ) -> bool:
        """Wrap ``cls.attribute`` if ``cls`` defines it itself."""
        raw = cls.__dict__.get(attribute, _ABSENT)
        if raw is _ABSENT:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(self.tracer.wrap(raw.__func__, name, on_result))
        elif inspect.isfunction(raw):
            wrapper = self.tracer.wrap(raw, name, on_result)
        else:
            return False
        self._set(cls, attribute, wrapper)
        return True

    def class_tree(self, base: type, attributes: Iterable[str], name: str) -> None:
        """Wrap ``attributes`` wherever ``base`` or a subclass defines them."""
        attributes = tuple(attributes)
        for cls in _subclasses(base):
            for attribute in attributes:
                self.method(cls, attribute, name)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def __len__(self) -> int:
        return len(self._undo)


_ABSENT = object()


def _subclasses(base: type) -> list[type]:
    seen: list[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen
