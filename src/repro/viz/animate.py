"""The VK-style animated window view (paper §3.1).

    "VK, on the other hand, gives the user a window into the trace file
    and provides an animated view of the events of execution.  The user
    can scroll through the history in both directions and change the
    time scale."

:class:`AnimatedView` holds a fixed-width window over the history and
yields successive ASCII frames as the window advances (or rewinds).  It
runs in two modes:

* over an in-memory :class:`TimeSpaceDiagram` (the original form);
* over a trace *file*, via :meth:`AnimatedView.from_file` -- literally
  "a window into the trace file": each frame is
  :func:`~repro.viz.timespace.build_window_diagram` of its window, read
  through a paged index (of a footerless file: the reader), so a pan
  reuses cached blocks and scrolling never loads the whole history.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.paged import OutOfCoreIndex

from .layout import Viewport
from .timespace import TimeSpaceDiagram, build_window_diagram, render_ascii


class AnimatedView:
    """A scrollable, rescalable window over a time-space diagram."""

    def __init__(
        self,
        diagram: Optional[TimeSpaceDiagram] = None,
        window: Optional[float] = None,
        columns: int = 80,
        *,
        reader=None,
    ) -> None:
        if (diagram is None) == (reader is None):
            raise ValueError("pass exactly one of diagram or reader")
        self.diagram = diagram
        t_lo, t_hi = diagram.span if reader is None else reader.span()
        # file frames are drawn through the paged index (a footerless file: the reader)
        self.source = OutOfCoreIndex(reader) if reader is not None and reader.has_index else reader
        self._t_lo = t_lo
        self._t_hi = max(t_hi, t_lo + 1.0)
        span = self._t_hi - self._t_lo
        self.window = window if window is not None else span / 4
        if self.window <= 0:
            raise ValueError("window must be positive")
        self.columns = columns
        self._start = self._t_lo

    @classmethod
    def from_file(
        cls,
        reader,
        window: Optional[float] = None,
        columns: int = 80,
    ) -> "AnimatedView":
        """A view streaming straight from a ``TraceFileReader`` --
        frames load only their window's blocks on indexed files."""
        return cls(window=window, columns=columns, reader=reader)

    # ------------------------------------------------------------------
    @property
    def position(self) -> float:
        return self._start

    def viewport(self) -> Viewport:
        return Viewport(self._start, self._start + self.window, self.columns)

    def _window_diagram(self) -> TimeSpaceDiagram:
        if self.source is None:
            return self.diagram
        return build_window_diagram(
            self.source, self._start, self._start + self.window
        )

    def frame(self) -> str:
        """Render the current window."""
        return render_ascii(self._window_diagram(), self.viewport(), self.columns)

    # ------------------------------------------------------------------
    # scrolling "in both directions"
    # ------------------------------------------------------------------
    def forward(self, fraction: float = 0.5) -> str:
        """Advance by a fraction of the window; returns the new frame."""
        self._start = min(
            self._start + self.window * fraction, self._t_hi - self.window
        )
        self._start = max(self._start, self._t_lo)
        return self.frame()

    def backward(self, fraction: float = 0.5) -> str:
        self._start = max(self._start - self.window * fraction, self._t_lo)
        return self.frame()

    def seek(self, t: float) -> str:
        """Jump the window start to ``t`` (clamped)."""
        self._start = max(self._t_lo, min(t, self._t_hi - self.window))
        return self.frame()

    # ------------------------------------------------------------------
    # "change the time scale"
    # ------------------------------------------------------------------
    def rescale(self, factor: float) -> str:
        """Multiply the window width by ``factor`` (>1 = wider/coarser)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        self.window = min(self.window * factor, self._t_hi - self._t_lo)
        return self.frame()

    # ------------------------------------------------------------------
    def animate(self, step_fraction: float = 0.5) -> Iterator[str]:
        """Yield frames from the current position to the end of history."""
        yield self.frame()
        while self._start + self.window < self._t_hi - 1e-12:
            before = self._start
            yield self.forward(step_fraction)
            if self._start == before:  # clamped: no further progress
                break

    def frames(self, step_fraction: float = 0.5) -> list[str]:
        """All frames as a list (convenience for tests/examples)."""
        return list(self.animate(step_fraction))
