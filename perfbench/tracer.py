"""In-memory call tracing for the benchmark, installed from outside archex.

A :class:`Tracer` replaces attributes of archex modules and classes with
timing wrappers and puts the originals back on :meth:`Tracer.uninstall`.
Every wrapped call adds to a per-name aggregate (calls, total seconds, self
seconds); self time is the call's duration minus the time spent in wrapped
calls it made, so self times over all names plus the root span add up to
the traced wall time. Calls named with ``span=True`` also record a span
(id, parent id, trace id, name, start, end); hot per-step calls are only
aggregated, which keeps the trace bounded. Everything stays in memory until
the caller writes :meth:`Tracer.dump` out.

Wrappers pass arguments and results through untouched, so a traced run must
produce the same outputs as an untraced one; the benchmark checks that.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.trace_id = 0
        self._stack: list[list] = []  # frames: [child_s, span_id or 0]
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self._next_span = 1

    # -- aggregates ----------------------------------------------------------

    def _stat(self, name: str, layer: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
            self.layer_of[name] = layer
        return stat

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_seconds_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    # -- spans ---------------------------------------------------------------

    def current_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[1]:
                return frame[1]
        return 0

    def add_span(self, name: str, start: float, end: float, parent: int | None = None) -> None:
        """Record an interval that is not a single call (an attempt, an
        episode), by default under the innermost open span."""
        span_id = self._next_span
        self._next_span += 1
        if parent is None:
            parent = self.current_span()
        self.spans.append((span_id, parent, self.trace_id, name, start, end))

    @contextmanager
    def span(self, name: str, layer: str):
        """Time a block of the benchmark's own code as a span."""
        stat = self._stat(name, layer)
        span_id = self._next_span
        self._next_span += 1
        parent = self.current_span()
        frame = [0.0, span_id]
        self._stack.append(frame)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            self._stack.pop()
            self._close(stat, frame, end - start)
            self.spans.append((span_id, parent, self.trace_id, name, start, end))

    def _close(self, stat: list, frame: list, duration: float) -> None:
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        span: bool = False,
        after: Callable[[Any, tuple], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``after(result, args)`` runs once the call returns, outside the
        timed interval, to count what the call produced.
        """
        original = getattr(owner, attr)
        stat = self._stat(name, layer)
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = 0
            if span:
                span_id = tracer._next_span
                tracer._next_span += 1
                parent = tracer.current_span()
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer._close(stat, frame, end - start)
            if span:
                tracer.spans.append((span_id, parent, tracer.trace_id, name, start, end))
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = original
        self.patch(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`."""
        own = not isinstance(owner, type) or attr in owner.__dict__
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self) -> dict:
        return {
            "stats": {
                name: {"layer": self.layer_of[name], "calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "spans": [
                {"id": i, "parent": p, "trace": tr, "name": n, "start": s, "end": e}
                for i, p, tr, n, s, e in self.spans
            ],
        }
