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

:func:`build_diagram` builds it from an in-memory history;
:func:`build_window_diagram` from a trace file or one window of it (the
§4.3 rescan), straight from the window's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.analysis.history import RECV_CODES, SEND_CODES, ensure_index, match_messages
from repro.trace.columnar import (
    DEFAULT_KIND_TABLE,
    KIND_CODES,
    _quiet_collector,
    kind_code_lut,
)
from repro.trace.events import COLLECTIVE_KINDS, RECV_KINDS, SEND_KINDS, EventKind, TraceRecord
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


#: bar category per canonical kind code ("the bar is colored depending
#: on the type of the construct")
_CATEGORIES: list[str] = [
    {
        **dict.fromkeys(SEND_KINDS, "send"),
        **dict.fromkeys(RECV_KINDS, "recv"),
        **dict.fromkeys(COLLECTIVE_KINDS, "collective"),
        EventKind.COMPUTE: "compute",
        EventKind.FUNC_ENTRY: "func",
        EventKind.FUNC_EXIT: "func",
    }.get(kind, "other")
    for kind in DEFAULT_KIND_TABLE
]


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

    nprocs: int
    #: (earliest, latest) time of the history drawn
    span: tuple[float, float]
    bars: list[Bar] = field(default_factory=list)
    messages: list[MessageLine] = field(default_factory=list)
    #: vertical indicator ("the vertical line near the left side
    #: represents the stopline", Figure 2)
    stopline_time: Optional[float] = None
    #: past/future frontier overlays: proc -> time (Figure 8)
    past_frontier: Optional[dict[int, float]] = None
    future_frontier: Optional[dict[int, float]] = None

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


def _bar_rows(kind: np.ndarray, t0: np.ndarray, t1: np.ndarray, kinds) -> np.ndarray:
    """Rows that get a bar (canonical kind codes): a kind in ``kinds``
    (any when None) other than process start/exit, with ``t1 > t0``."""
    drawn = np.zeros(len(DEFAULT_KIND_TABLE), dtype=bool)
    drawn[[KIND_CODES[k] for k in (DEFAULT_KIND_TABLE if kinds is None else kinds)]] = True
    drawn[[KIND_CODES[EventKind.PROC_START], KIND_CODES[EventKind.PROC_EXIT]]] = False
    return np.flatnonzero(drawn[kind] & (t1 > t0))


def _bars(records: Sequence[TraceRecord], kind: np.ndarray) -> list[Bar]:
    return [Bar(rec, _CATEGORIES[k]) for rec, k in zip(records, kind.tolist())]


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
    idx = ensure_index(trace, nprocs=nprocs, index=index)
    kind = idx.column("kind")
    rows = _bar_rows(kind, idx.column("t0"), idx.column("t1"), kinds)
    return TimeSpaceDiagram(
        nprocs=idx.nprocs,
        span=idx.span,
        bars=_bars(idx.records_at(rows), kind[rows]),
        messages=[MessageLine(p.send, p.recv) for p in idx.message_pairs()],
    )


def build_window_diagram(
    source,
    t_lo: Optional[float] = None,
    t_hi: Optional[float] = None,
    procs: Optional[set[int]] = None,
    kinds: Optional[Sequence[EventKind]] = None,
) -> TimeSpaceDiagram:
    """Display model for a trace *file*, or the window ``[t_lo, t_hi]``
    of it (the NTV zoom without the full-file reload).

    ``source`` is a ``TraceFileReader`` or an ``OutOfCoreIndex`` (which
    serves the window's blocks from its cache); the window is one column
    block from ``source.read_columns``.  A message gets a line when both
    its ends lie in the window.  Records, built only for the rows drawn,
    keep their trace index.  Records, bars and message lines are built
    as one burst with the cyclic collector paused (see
    :func:`~repro.trace.columnar._quiet_collector`).
    """
    block = source.read_columns(t_lo, t_hi, procs)
    cols = block.columns
    kind = cols["kind"]
    if block.kind_table != DEFAULT_KIND_TABLE:  # the file's own kind codes
        kind = kind_code_lut(block.kind_table)[kind]
    bar_rows = _bar_rows(kind, cols["t0"], cols["t1"], kinds)
    pair_s, pair_r, _, _ = match_messages(
        np.flatnonzero(np.isin(kind, SEND_CODES)),
        np.flatnonzero(kind == RECV_CODES[0]),
        cols["src"], cols["dst"], cols["tag"], cols["seq"],
    )
    rows = np.unique(np.concatenate([bar_rows, pair_s, pair_r]))
    at = rows.searchsorted
    # records, bars and message lines are one burst of acyclic objects
    with _quiet_collector(rows.size + bar_rows.size + pair_s.size):
        records = block.to_records(rows)
        bars = _bars([records[i] for i in at(bar_rows).tolist()], kind[bar_rows])
        messages = [
            MessageLine(records[s], records[r])
            for s, r in zip(at(pair_s).tolist(), at(pair_r).tolist())
        ]
    return TimeSpaceDiagram(
        nprocs=source.nprocs,
        span=(block.t_min, block.t_max),
        bars=bars,
        messages=messages,
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
        t_lo, t_hi = diagram.span
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
