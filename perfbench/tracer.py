"""Outside-in tracing: spans around the public entry points of each layer.

The tracer patches methods of RodentStore's classes from the benchmark's
side (no file under ``src/`` changes) and records one span per call — or,
for methods returning an iterator, one span per ``next()`` — so every span
covers at most one page, chunk, batch, commit or operator step. Per-record
calls are never wrapped.

A span's *self time* is its duration minus the time its child spans
cover. Each wrapped method belongs to a *group* (one per-layer metric); a
group's *total time* and *items* count only its outermost span, so a group
method calling another of the same group (``iter_batches`` →
``iter_row_batches``) is not counted twice.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Iterator

_perf = time.perf_counter


class GroupStats:
    """Accumulated figures for one span group."""

    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0


class Tracer:
    """Span recorder with a stack for self-time accounting.

    Single-threaded by design: the benchmark runs one client thread with
    ``scan_workers=0``, so spans nest strictly.
    """

    def __init__(self, max_spans: int = 250_000) -> None:
        self.active = False
        #: Identifier of the measured operation in flight (spans of one
        #: request share it); ``None`` outside measured operations.
        self.query_id: Any = None
        self.max_spans = max_spans
        self.spans: list[list] = []
        self.dropped_spans = 0
        self.groups: dict[str, GroupStats] = {}
        #: Free-form counts kept by the wrappers' item callbacks.
        self.counters: dict[str, int] = {}
        self._depth: dict[str, int] = {}
        # Open spans: [span index or -1, group, start, child seconds].
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._t0 = _perf()

    # -- span bookkeeping ------------------------------------------------

    def reset(self) -> None:
        """Forget accumulated figures and counts (kept spans stay)."""
        self.groups = {}
        for key in self.counters:
            self.counters[key] = 0

    def enter(self, group: str, name: str | None = None) -> list:
        """Open a span of ``group``; ``name`` (default: the group) labels
        it in the written spans."""
        parent = self._stack[-1][0] if self._stack else -1
        start = _perf()
        index = -1
        if len(self.spans) < self.max_spans:
            index = len(self.spans)
            self.spans.append(
                [name or group, start - self._t0, None, parent, self.query_id]
            )
        else:
            self.dropped_spans += 1
        frame = [index, group, start, 0.0]
        self._stack.append(frame)
        self._depth[group] = self._depth.get(group, 0) + 1
        return frame

    def exit(self, frame: list, items: int = 0) -> float:
        """Close ``frame`` (the innermost open span); returns its self time."""
        end = _perf()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        index, group, start, child_s = frame
        duration = end - start
        self_s = duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self.spans[index][2] = end - self._t0
        depth = self._depth[group] - 1
        self._depth[group] = depth
        stats = self.groups.get(group)
        if stats is None:
            stats = self.groups[group] = GroupStats()
        stats.calls += 1
        stats.self_s += self_s
        if depth == 0:
            stats.total_s += duration
            stats.items += items
        return self_s

    def depth(self, group: str) -> int:
        """How many spans of ``group`` are open."""
        return self._depth.get(group, 0)

    def inside(self, group: str) -> bool:
        """Whether a span of ``group`` is open."""
        return self._depth.get(group, 0) > 0

    # -- patching ---------------------------------------------------------

    def wrap_call(
        self,
        owner: Any,
        attr: str,
        group: str,
        count: Callable[[Any, tuple], int] | None = None,
    ) -> None:
        """One span per call of ``owner.attr``; ``count(result, args)``
        gives the call's item count."""
        original = owner.__dict__[attr]
        tracer = self
        name = f"{owner.__name__}.{attr}"

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            frame = tracer.enter(group, name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.exit(frame)
                raise
            tracer.exit(frame, count(result, args) if count else 1)
            return result

        self._patch(owner, attr, original, traced)

    def wrap_iter(
        self,
        owner: Any,
        attr: str,
        group: str,
        count: Callable[[Any], int] = len,
    ) -> None:
        """One span for the call of ``owner.attr`` (its eager part) and one
        per ``next()`` on the iterator it returns; ``count(item)`` gives
        each yielded item's size."""
        original = owner.__dict__[attr]
        tracer = self
        name = f"{owner.__name__}.{attr}"

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            frame = tracer.enter(group, name)
            try:
                iterator = original(*args, **kwargs)
            except BaseException:
                tracer.exit(frame)
                raise
            tracer.exit(frame, 0)
            return tracer._iterate(group, name, iter(iterator), count)

        self._patch(owner, attr, original, traced)

    def _iterate(
        self,
        group: str,
        name: str,
        iterator: Iterator,
        count: Callable[[Any], int],
    ) -> Iterator:
        try:
            while True:
                frame = self.enter(group, name)
                try:
                    item = next(iterator)
                except StopIteration:
                    self.exit(frame)
                    return
                except BaseException:
                    self.exit(frame)
                    raise
                self.exit(frame, count(item))
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def _patch(self, owner: Any, attr: str, original: Any, traced) -> None:
        traced.__name__ = getattr(original, "__name__", attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write kept spans as JSON lines; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": round(start, 7),
                            "end": None if end is None else round(end, 7),
                            "parent": parent,
                            "query": query,
                        }
                    )
                )
                fh.write("\n")
        return len(self.spans)
