"""Spans around calls into the library, recorded from outside it.

``Tracer.install`` replaces every public function and public method of the
library's modules with a wrapper that records a span (name, start, end,
parent) in memory.  Names that a module re-binds with ``from ... import``
(``verification.reconstruct``, ``stats.map_blocks``, ...) are pointed at the
same wrappers, and so are the entries of ``verification.ALL_CHECKS``.
``uninstall`` puts every original back.  Generator functions are left alone:
a span around one would close before any work is done.

Spans only nest correctly within one process, so traced passes run at
jobs=1.  ``count_fanout`` is the one wrapper that also works at jobs > 1:
it tags each block's result with the pid of the process that computed it,
which counts the workers that actually ran.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import os
import time
from typing import Any, Callable, Iterator

MODULES = ("perm", "bruhat", "graphs", "reconstruct", "stats", "extremal",
           "_parallel", "verification", "cli")

clock = time.perf_counter


class PidTagged:
    """Picklable block function returning (worker pid, result)."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, block: Any) -> tuple[int, Any]:
        return os.getpid(), self.fn(block)


class Tracer:
    def __init__(self, spans: bool = True) -> None:
        self.record_spans = spans
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.fanout: list[dict] = []  # one record per map_blocks call
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.t0 = clock()

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = [name, clock(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = clock()

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def count_fanout(self, map_blocks: Callable) -> Callable:
        records = self.fanout

        @functools.wraps(map_blocks)
        def counted(fn: Callable, blocks: Any, *args: Any, **kwargs: Any) -> list:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
            # with spans on, blocks run in this process (jobs=1), so the
            # block function can be a closure; its span bills the block's
            # work to the module that defined it rather than to _parallel
            block_fn = self.wrap(name, fn) if self.record_spans else fn
            start = clock()
            tagged = map_blocks(PidTagged(block_fn), blocks, *args, **kwargs)
            records.append({
                "fn": name,
                "blocks": len(blocks),
                "workers": len({pid for pid, _ in tagged}),
                "seconds": clock() - start,
            })
            return [result for _, result in tagged]

        return counted

    # -- installation ----------------------------------------------------------

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the library's public callables (spans on), or only
        ``map_blocks`` (spans off)."""
        package = importlib.import_module("bruhat_degrees")
        modules = {short: importlib.import_module(f"bruhat_degrees.{short}") for short in MODULES}
        replaced: dict[int, Any] = {}  # id(original) -> wrapper

        if self.record_spans:
            for short, module in modules.items():
                for name, obj in list(vars(module).items()):
                    if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                        continue
                    if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                        replaced[id(obj)] = self.wrap(f"{short}.{name}", obj)
                    elif inspect.isclass(obj):
                        self._wrap_methods(f"{short}.{name}", obj)

        map_blocks = modules["_parallel"].map_blocks
        fanout = self.count_fanout(map_blocks)
        if self.record_spans:
            fanout = self.wrap("_parallel.map_blocks", fanout)
        replaced[id(map_blocks)] = fanout

        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    self._patch(module, name, replaced[id(obj)])

        if self.record_spans:
            verification = modules["verification"]
            checks = tuple((name, self.wrap(f"verification.{name}", fn))
                           for name, fn in verification.ALL_CHECKS)
            self._patch(verification, "ALL_CHECKS", checks)

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(f"{prefix}.{name}", raw.__func__))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                wrapped = self.wrap(f"{prefix}.{name}", raw)
            else:
                continue
            self._patches.append((cls, name, raw))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries ---------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (its own
        duration minus the time covered by its direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return table

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds summed by layer, the module part of the span name."""
        layers: dict[str, float] = {}
        for name, row in self.self_times().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return layers

    def dump(self, path: str, extra: dict) -> None:
        """Write every span, gzipped: ``names`` lists the span names and each
        span is [name index, start ns, end ns, parent span index or -1],
        times counted from the tracer's creation."""
        names: dict[str, int] = {}
        spans = [[names.setdefault(name, len(names)), round((start - self.t0) * 1e9),
                  round((end - self.t0) * 1e9), parent]
                 for name, start, end, parent in self.spans]
        payload = dict(extra, layer_self_s=self.layer_self_times(), span_table=self.self_times(),
                       fanout=self.fanout, names=list(names), spans=spans)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
