"""Timed spans recorded from the benchmark's side of each layer boundary.

A span is one call into a layer: its name, layer, start, end, the span
that was open when it started (its parent, per thread) and the request
it served.  Spans stay in memory and are written out once, when the run
ends.  A layer's *self time* is the duration of its spans minus the part
covered by their children, so the self times of every layer add up to
the time the root spans cover.

Tracing is off unless asked for: :class:`NullSpans` has the same surface
and does nothing, so the untraced run pays one no-op context manager per
call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    """Records spans; nesting is tracked per thread.  A span's request is
    its parent's, or for a root span the current :attr:`request`."""

    enabled = True

    def __init__(self) -> None:
        #: the request (one user operation) root spans started now serve
        self.request: Optional[str] = None
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.main_thread = threading.current_thread().name

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id, name, layer, time.perf_counter(), 0.0,
            parent.id if parent else None,
            parent.request if parent else self.request,
            threading.current_thread().name,
        )
        stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, obj: Any, attr: str, name: str, layer: str,
             result_hook: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``obj.attr`` (a bound method) on this one instance by a
        version that records a span around each call -- how a layer's
        inner public call is timed without touching the layer's code.
        ``result_hook`` sees each return value (to wrap what it returns)."""
        inner = getattr(obj, attr)

        @functools.wraps(inner)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, layer):
                result = inner(*args, **kwargs)
            if result_hook is not None:
                result_hook(result)
            return result

        setattr(obj, attr, traced)

    # ------------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self, thread: Optional[str] = None) -> dict[str, float]:
        """Layer -> summed self time of its spans (one thread's, or all)."""
        chosen = [s for s in self.spans if thread is None or s.thread == thread]
        child_time: dict[int, float] = {}
        for s in chosen:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        out: dict[str, float] = {}
        for s in chosen:
            own = s.duration - child_time.get(s.id, 0.0)
            out[s.layer] = out.get(s.layer, 0.0) + own
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0) + 1
        return out

    def covered(self) -> float:
        """Seconds the main thread's root spans cover."""
        return sum(
            s.duration for s in self.spans
            if s.parent is None and s.thread == self.main_thread
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            rows = [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]
        path.write_text(json.dumps({"spans": rows}, separators=(",", ":")) + "\n")


class NullSpans:
    """The untraced run's recorder: every operation is a no-op."""

    enabled = False
    request: Optional[str] = None
    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str):
        return self._null

    def wrap(self, obj: Any, attr: str, name: str, layer: str,
             result_hook: Optional[Callable[[Any], None]] = None) -> None:
        return None

    def durations(self, name: str) -> list[float]:
        return []


def span_cost(samples: int = 2000) -> float:
    """Seconds one enter/exit of a recorded span costs on this machine
    (the basis of the traced run's overhead estimate)."""
    probe = Spans()
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe", "bench"):
            pass
    return (time.perf_counter() - start) / samples
