"""Time-space diagrams -- the paper's §3.1 display, NTV-style.

    "Each construct is represented by a bar positioned according to its
    process number and start/end times.  The bar is colored depending on
    the type of the construct.  Each message is represented by a
    straight line segment connecting (time_sent, source) and
    (time_received, destination) points."

:class:`TimeSpaceDiagram` is the display *model*: bars, message lines,
optional stopline and frontier overlays, and the hit-testing that backs
"clicking on a bar ... can identify the location of the send or receive
in the source code".  :func:`render_ascii` draws it in a terminal; the
SVG renderer lives in :mod:`repro.viz.svg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.trace.events import EventKind, TraceRecord
from repro.trace.trace import Trace

from .layout import Viewport

#: Bar glyph per construct category for the ASCII renderer.
_GLYPHS = {
    "compute": "=",
    "send": "S",
    "recv": "R",
    "collective": "C",
    "func": "-",
    "other": ".",
}


def _category(kind: EventKind) -> str:
    from repro.trace.events import COLLECTIVE_KINDS, RECV_KINDS, SEND_KINDS

    if kind in SEND_KINDS:
        return "send"
    if kind in RECV_KINDS:
        return "recv"
    if kind in COLLECTIVE_KINDS:
        return "collective"
    if kind is EventKind.COMPUTE:
        return "compute"
    if kind in (EventKind.FUNC_ENTRY, EventKind.FUNC_EXIT):
        return "func"
    return "other"


@dataclass(frozen=True)
class Bar:
    """One construct's bar in the diagram."""

    record: TraceRecord
    category: str

    @property
    def proc(self) -> int:
        return self.record.proc

    @property
    def t0(self) -> float:
        return self.record.t0

    @property
    def t1(self) -> float:
        return self.record.t1


@dataclass(frozen=True)
class MessageLine:
    """A message line from (t_sent, src) to (t_received, dst)."""

    send: TraceRecord
    recv: TraceRecord

    @property
    def t_sent(self) -> float:
        return self.send.t1

    @property
    def t_received(self) -> float:
        return self.recv.t1

    @property
    def src(self) -> int:
        return self.send.proc

    @property
    def dst(self) -> int:
        return self.recv.proc


@dataclass
class TimeSpaceDiagram:
    """The display model: rows of bars + message lines + overlays."""

    trace: Trace
    bars: list[Bar] = field(default_factory=list)
    messages: list[MessageLine] = field(default_factory=list)
    #: vertical indicator ("the vertical line near the left side
    #: represents the stopline", Figure 2)
    stopline_time: Optional[float] = None
    #: past/future frontier overlays: proc -> time (Figure 8)
    past_frontier: Optional[dict[int, float]] = None
    future_frontier: Optional[dict[int, float]] = None

    @property
    def nprocs(self) -> int:
        return self.trace.nprocs

    # ------------------------------------------------------------------
    # interaction
    # ------------------------------------------------------------------
    def hit_test(self, proc: int, time: float) -> Optional[TraceRecord]:
        """The construct under a click at (time, proc) -- the record
        whose bar spans the time, preferring the latest-starting one."""
        best: Optional[TraceRecord] = None
        for bar in self.bars:
            if bar.proc == proc and bar.t0 <= time <= bar.t1:
                if best is None or bar.t0 > best.t0:
                    best = bar.record
        return best

    def hit_test_message(self, time: float, tolerance: float = 0.0) -> Optional[MessageLine]:
        """The message line whose lifetime covers ``time`` (earliest
        send first).  Clicking it identifies send/recv source locations."""
        hits = [
            m
            for m in self.messages
            if m.t_sent - tolerance <= time <= m.t_received + tolerance
        ]
        return min(hits, key=lambda m: m.t_sent) if hits else None

    def source_of_click(self, proc: int, time: float) -> Optional[str]:
        """The paper's click-through: the construct's source location."""
        rec = self.hit_test(proc, time)
        return str(rec.location) if rec is not None else None

    def set_stopline(self, time: float) -> None:
        self.stopline_time = time

    def set_frontiers(
        self,
        past: Optional[dict[int, float]],
        future: Optional[dict[int, float]],
    ) -> None:
        self.past_frontier = past
        self.future_frontier = future


def build_diagram(
    trace: "Trace | Iterable[TraceRecord]",
    kinds: Optional[Sequence[EventKind]] = None,
    nprocs: Optional[int] = None,
    index=None,
) -> TimeSpaceDiagram:
    """Construct the display model from a trace or any record stream.

    ``kinds`` restricts which constructs get bars (message lines always
    come from the matched pairs).  Zero-duration records (function
    entries) are skipped as bars -- they have no extent to draw.
    """
    from repro.analysis.history import ensure_index

    idx = ensure_index(trace, nprocs=nprocs, index=index)
    trace = idx.trace
    diagram = TimeSpaceDiagram(trace=trace)
    wanted = set(kinds) if kinds is not None else None
    for rec in trace:
        if rec.kind in (EventKind.PROC_START, EventKind.PROC_EXIT):
            continue
        if wanted is not None and rec.kind not in wanted:
            continue
        if rec.t1 <= rec.t0:
            continue
        diagram.bars.append(Bar(record=rec, category=_category(rec.kind)))
    for pair in idx.message_pairs():
        diagram.messages.append(MessageLine(send=pair.send, recv=pair.recv))
    return diagram


def build_columns_diagram(
    block,
    nprocs: int,
    kinds: Optional[Sequence[EventKind]] = None,
) -> TimeSpaceDiagram:
    """Display model from a decoded columnar block (the
    ``TraceFileReader.read_columns`` feed): the block is bulk-ingested
    into a fresh :class:`~repro.analysis.history.HistoryIndex` without
    per-record parsing, then laid out as usual."""
    from repro.analysis.history import HistoryIndex

    idx = HistoryIndex(nprocs=nprocs)
    idx.extend_columns(block)
    return build_diagram(idx.trace, kinds=kinds, index=idx)


def build_file_diagram(
    reader,
    kinds: Optional[Sequence[EventKind]] = None,
    t_lo: Optional[float] = None,
    t_hi: Optional[float] = None,
    procs: Optional[set[int]] = None,
) -> TimeSpaceDiagram:
    """Display model for a trace *file* through the bulk columnar path.

    ``reader`` is a ``TraceFileReader``; the file, or the window
    ``[t_lo, t_hi]`` of it, is read column-wise (``read_columns``).
    """
    block = reader.read_columns(t_lo=t_lo, t_hi=t_hi, procs=procs)
    return build_columns_diagram(block, reader.nprocs, kinds=kinds)


def build_window_diagram(
    reader,
    t_lo: float,
    t_hi: float,
    procs: Optional[set[int]] = None,
    kinds: Optional[Sequence[EventKind]] = None,
) -> TimeSpaceDiagram:
    """Display model for one window of a trace *file* (the NTV zoom
    without the full-file reload): the window arrives as columns from
    ``reader.read_columns``, which reads only the blocks an indexed
    file's footer selects, on every format version.
    """
    return build_file_diagram(
        reader, kinds=kinds, t_lo=t_lo, t_hi=t_hi, procs=procs
    )


# ----------------------------------------------------------------------
# ASCII rendering
# ----------------------------------------------------------------------
def render_ascii(
    diagram: TimeSpaceDiagram,
    viewport: Optional[Viewport] = None,
    columns: int = 100,
    show_messages: bool = True,
) -> str:
    """Terminal rendering: one row per process (highest rank on top, as
    in the paper's figures), bars as glyph runs, message endpoints as
    ``s``/``r`` on an interleaved lane, the stopline as ``|``."""
    if viewport is None:
        t_lo, t_hi = diagram.trace.span
        viewport = Viewport.fit(t_lo, t_hi, columns=columns)
    nprocs = diagram.nprocs
    width = viewport.columns
    rows = [[" "] * width for _ in range(nprocs)]

    for bar in diagram.bars:
        if not viewport.overlaps(bar.t0, bar.t1):
            continue
        c0 = viewport.column_of(max(bar.t0, viewport.t0))
        c1 = viewport.column_of(min(bar.t1, viewport.t1))
        glyph = _GLYPHS[bar.category]
        for c in range(c0, c1 + 1):
            rows[bar.proc][c] = glyph

    if show_messages:
        for msg in diagram.messages:
            if viewport.contains(msg.t_sent):
                rows[msg.src][viewport.column_of(msg.t_sent)] = "s"
            if viewport.contains(msg.t_received):
                rows[msg.dst][viewport.column_of(msg.t_received)] = "r"

    overlay_cols: dict[int, str] = {}
    if diagram.stopline_time is not None and viewport.contains(diagram.stopline_time):
        overlay_cols[viewport.column_of(diagram.stopline_time)] = "|"

    lines = []
    header = f"t: {viewport.t0:.2f} .. {viewport.t1:.2f}  ({viewport.time_per_column:.3f}/col)"
    lines.append(header)
    for p in range(nprocs - 1, -1, -1):
        row = rows[p]
        for col, ch in overlay_cols.items():
            row[col] = ch
        frontier_marks = ""
        if diagram.past_frontier and p in diagram.past_frontier:
            t = diagram.past_frontier[p]
            if viewport.contains(t):
                row[viewport.column_of(t)] = "<"
        if diagram.future_frontier and p in diagram.future_frontier:
            t = diagram.future_frontier[p]
            if viewport.contains(t):
                row[viewport.column_of(t)] = ">"
        lines.append(f"p{p:<2}|" + "".join(row) + frontier_marks)
    lines.append("   +" + "-" * width)
    return "\n".join(lines)
