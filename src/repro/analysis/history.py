"""The :class:`HistoryIndex`: one shared analysis substrate per trace.

Every history analysis the debugger offers (§4.1-§4.4: frontiers,
stoplines, deadlock, races, critical path, matching reports) rests on
the same derived primitives -- vector clocks, send/receive matching,
per-process program-order rows, span/marker lookup tables -- and before
this module each analysis re-derived them with a full O(n*p) pass over
the trace.  MAD's event-graph-centric design (Kranzlmüller et al.) and
Okita et al.'s scalable trace analysis both argue the opposite
structure: *one* incrementally-maintained derived-state container that
all debugging activities consume.  That container is this class.

Storage is **columnar**: alongside the record list the index keeps the
fixed-width fields (``index/proc/kind/src/dst/tag/seq/t0/t1/marker/
size``) as incrementally-grown numpy arrays (amortized doubling),
appended per record in :meth:`extend` and bulk-copied from a decoded
:class:`~repro.trace.columnar.ColumnBlock` in :meth:`extend_columns`.
The hot kernels run on these columns as batched array operations:

* vector clocks -- only receive-join events are touched in Python; the
  segments between joins are filled by broadcast (O(messages*p) array
  work instead of O(n*p) Python iterations);
* message matching -- one ``np.lexsort`` grouping over the
  (src, dst, tag, seq) key columns instead of a per-record dict loop;
* :meth:`window` -- a sorted-t0 interval index answered with
  ``searchsorted`` instead of a full list scan;
* :meth:`row_table` -- trace indexes grouped by process in program
  order (CSR), the substrate of the O(p log n) frontier, closure and
  stopline queries of :class:`~repro.analysis.causality.CausalOrder`.

Scalar per-record reference implementations live in ``tests/oracles.py``;
the property suite (``tests/property/test_analysis_kernels_properties``)
checks these kernels equal to them, and
``benchmarks/test_analysis_kernels.py`` gates the speedup over them.

Maintenance is incremental with a lazy catch-up discipline:

* :meth:`extend` (fed by an :class:`IndexSink` on the TraceBus) appends
  the record and updates the O(1) components eagerly -- program-order
  rows, the (proc, marker) lookup table, the span, the columns;
* the expensive components -- vector clocks, message matching, the
  window index, the row table -- keep a high-water mark and, on first
  access after new records arrived, fold in only the suffix.  They are
  never rebuilt from scratch once built, which is what
  ``stats().clock_builds == 1`` asserts.

Generation discipline: an index belongs to one execution.  When
``DebugSession.replay()``/``undo()`` discards an execution it calls
:meth:`invalidate` on that generation's index; a stale index refuses
every query (raising :class:`StaleIndexError`) so analyses can never
silently read the previous execution's history.

Sharing discipline: :func:`ensure_index` memoizes the index on the
:class:`~repro.trace.trace.Trace` itself, so consumers that still take
a bare trace (the pre-index call signatures all still work) share one
index per trace without threading any argument.

Incremental matching assumes trace causality (a receive record never
precedes its matching send record -- the recording order is a causal
linearization, the same §4.1 property stoplines rest on).  A trace that
violates it -- see :func:`~repro.analysis.causality.check_trace_causality`
-- would list such receives as unmatched where the batch two-pass
matcher pairs them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.trace.columnar import DEFAULT_KIND_TABLE, KIND_CODES, kind_code_lut
from repro.trace.events import RECV_KINDS, SEND_KINDS, TraceRecord
from repro.trace.sinks import TraceSink
from repro.trace.trace import MessagePair, Trace, ensure_trace

from .causality import CausalOrder, RowTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mp.process import WaitInfo
    from repro.trace.columnar import ColumnBlock
    from repro.trace.tracefile import TraceFileReader

    from .paged import OutOfCoreIndex


class StaleIndexError(RuntimeError):
    """A query hit an index whose execution generation was discarded."""


#: the index's column-store layout: every fixed-width field an analysis
#: kernel touches.  dtypes mirror the v3 file's COLUMN_SPEC so
#: ``extend_columns`` copies block columns without a cast.
STORE_SPEC: tuple[tuple[str, str], ...] = (
    ("index", "<i8"),
    ("proc", "<i4"),
    ("kind", "u1"),
    ("src", "<i4"),
    ("dst", "<i4"),
    ("tag", "<i4"),
    ("seq", "<i8"),
    ("t0", "<f8"),
    ("t1", "<f8"),
    ("marker", "<i8"),
    ("size", "<i8"),
)

#: kind codes (shared with the v3 file format) of message operations
SEND_CODES: np.ndarray = np.array(
    sorted(KIND_CODES[k] for k in SEND_KINDS), dtype=np.uint8
)
RECV_CODES: np.ndarray = np.array(
    sorted(KIND_CODES[k] for k in RECV_KINDS), dtype=np.uint8
)
_RECV_CODE = int(RECV_CODES[0])  # RECV is the single receive-side kind


@dataclass
class IndexStats:
    """Observability snapshot of one index's build/extend economics.

    ``*_builds`` counts from-scratch derivations of a component (the
    multi-analysis acceptance criterion: exactly one each per trace);
    ``*_extends`` counts records folded in incrementally;
    ``*_seconds`` is wall-clock spent deriving; ``hits``/``misses``
    count memoized-component lookups per component name.
    ``kernel_calls``/``kernel_seconds`` count the analysis kernels that
    consume the index without owning state in it (race detection,
    critical path), keyed by kernel name.
    """

    generation: int = 0
    records: int = 0
    clock_builds: int = 0
    clock_extends: int = 0
    clock_seconds: float = 0.0
    matching_builds: int = 0
    matching_extends: int = 0
    matching_seconds: float = 0.0
    window_builds: int = 0
    window_extends: int = 0
    window_seconds: float = 0.0
    row_builds: int = 0
    row_extends: int = 0
    row_seconds: float = 0.0
    trace_snapshots: int = 0
    hits: dict = field(default_factory=dict)
    misses: dict = field(default_factory=dict)
    kernel_calls: dict = field(default_factory=dict)
    kernel_seconds: dict = field(default_factory=dict)

    def hit(self, component: str) -> None:
        self.hits[component] = self.hits.get(component, 0) + 1

    def miss(self, component: str) -> None:
        self.misses[component] = self.misses.get(component, 0) + 1

    def kernel(self, name: str, seconds: float) -> None:
        self.kernel_calls[name] = self.kernel_calls.get(name, 0) + 1
        self.kernel_seconds[name] = self.kernel_seconds.get(name, 0.0) + seconds

    def snapshot(self) -> "IndexStats":
        return IndexStats(
            generation=self.generation,
            records=self.records,
            clock_builds=self.clock_builds,
            clock_extends=self.clock_extends,
            clock_seconds=self.clock_seconds,
            matching_builds=self.matching_builds,
            matching_extends=self.matching_extends,
            matching_seconds=self.matching_seconds,
            window_builds=self.window_builds,
            window_extends=self.window_extends,
            window_seconds=self.window_seconds,
            row_builds=self.row_builds,
            row_extends=self.row_extends,
            row_seconds=self.row_seconds,
            trace_snapshots=self.trace_snapshots,
            hits=dict(self.hits),
            misses=dict(self.misses),
            kernel_calls=dict(self.kernel_calls),
            kernel_seconds=dict(self.kernel_seconds),
        )

    def as_text(self) -> str:
        lines = [
            f"history index stats (generation {self.generation}, "
            f"{self.records} records)",
            f"  vector clocks : {self.clock_builds} build(s), "
            f"{self.clock_extends} record(s) folded, "
            f"{self.clock_seconds * 1e3:.2f} ms",
            f"  matching      : {self.matching_builds} build(s), "
            f"{self.matching_extends} record(s) folded, "
            f"{self.matching_seconds * 1e3:.2f} ms",
            f"  window index  : {self.window_builds} build(s), "
            f"{self.window_extends} record(s) folded, "
            f"{self.window_seconds * 1e3:.2f} ms",
            f"  row table     : {self.row_builds} build(s), "
            f"{self.row_extends} record(s) folded, "
            f"{self.row_seconds * 1e3:.2f} ms",
            f"  trace snapshots: {self.trace_snapshots}",
        ]
        for name in sorted(self.kernel_calls):
            lines.append(
                f"  kernel {name:<15s}: {self.kernel_calls[name]} call(s), "
                f"{self.kernel_seconds.get(name, 0.0) * 1e3:.2f} ms"
            )
        for name in sorted(set(self.hits) | set(self.misses)):
            lines.append(
                f"  {name:<13s} : {self.hits.get(name, 0)} hit(s), "
                f"{self.misses.get(name, 0)} miss(es)"
            )
        return "\n".join(lines)


class HistoryIndex:
    """Shared, incrementally-maintained derived state for one history.

    Components (each computed once, then extended):

    * ``order`` -- vector clocks as a :class:`CausalOrder`;
    * ``message_pairs()`` / ``unmatched_sends()`` / ``unmatched_recvs()``
      / ``send_of_recv`` -- send/receive matching;
    * ``by_proc(p)`` -- per-process program-order rows;
    * ``span`` / ``record_at_marker()`` / ``window()`` -- span, marker
      and time-window lookup;
    * ``row_table()`` -- trace indexes grouped by process in program
      order, for the frontier and closure queries;
    * ``column(name)`` / ``columns`` -- the structure-of-arrays view of
      the indexed records, the substrate the vectorized kernels (and
      columnar consumers such as race detection and the critical-path
      DP) run on;
    * ``blocked`` -- the runtime's blocked-wait snapshot, when supplied.

    The clock, matching, window and row-table kernels are vectorized
    over the column store and incremental.

    ``trace`` materializes (and memoizes) an immutable
    :class:`~repro.trace.trace.Trace` view over the indexed records for
    consumers that navigate positionally.
    """

    def __init__(
        self,
        records: Optional[Iterable[TraceRecord]] = None,
        nprocs: Optional[int] = None,
        generation: int = 0,
    ) -> None:
        if nprocs is None:
            if records is None:
                raise ValueError("need nprocs when starting from an empty stream")
            records = list(records)
            nprocs = 0
            for rec in records:
                nprocs = max(nprocs, rec.proc + 1, rec.src + 1, rec.dst + 1)
        self.nprocs = max(1, nprocs)
        self.generation = generation
        self._stale = False
        self._records: list[TraceRecord] = []
        # indexed rows; >= len(self._records) while column blocks await
        # record materialization (the deferred-ingest path below)
        self._n = 0
        # blocks ingested column-only; their TraceRecord objects are
        # materialized on first record-level access (_ensure_records)
        self._pending_blocks: list["ColumnBlock"] = []
        # column store (structure of arrays, amortized doubling) --------
        self._cap = 0
        self._cols: dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dt) for name, dt in STORE_SPEC
        }
        # eager O(1) components -------------------------------------------
        self._rows: list[list[TraceRecord]] = [[] for _ in range(self.nprocs)]
        self._marker_first: dict[tuple[int, int], TraceRecord] = {}
        self._t_lo: Optional[float] = None
        self._t_hi: Optional[float] = None
        # matching (lazy catch-up) ----------------------------------------
        self._matched_upto = 0
        self._open_sends: dict[tuple[int, int, int, int], TraceRecord] = {}
        self._pairs: list[MessagePair] = []
        self._pair_index = np.zeros((0, 2), dtype=np.int64)  # (send, recv)
        self._send_of_recv: dict[int, int] = {}
        self._unmatched_recvs: list[TraceRecord] = []
        # vector clocks (lazy catch-up) -----------------------------------
        self._clocked_upto = 0
        self._clocks = np.zeros((0, self.nprocs), dtype=np.int64)
        self._current = np.zeros((self.nprocs, self.nprocs), dtype=np.int64)
        # window interval index (lazy catch-up) ---------------------------
        self._window_upto = 0
        self._t0_order: Optional[np.ndarray] = None
        self._t0_sorted: Optional[np.ndarray] = None
        # row table (lazy catch-up) -----------------------------------------
        self._row_upto = 0
        self._row_table = RowTable(
            members=np.zeros(0, dtype=np.int64),
            offsets=np.zeros(self.nprocs + 1, dtype=np.int64),
        )
        # memoized views ---------------------------------------------------
        self._trace: Optional[Trace] = None
        self._order: Optional[CausalOrder] = None
        self._blocked: Optional[list["WaitInfo"]] = None
        self._stats = IndexStats(generation=generation)
        if records is not None:
            self.extend_many(records)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace, generation: int = 0) -> "HistoryIndex":
        """Index an existing immutable trace (the batch entry point).

        When the trace's record indexes are already positional the trace
        object itself becomes the index's materialized view, so
        trace-level caches (``by_proc`` and friends) are shared rather
        than duplicated.  The positional check rides along the single
        ingest pass.
        """
        index = cls(nprocs=trace.nprocs, generation=generation)
        positional = True
        for pos, rec in enumerate(trace):
            if positional and rec.index != pos:
                positional = False
            index.extend(rec)
        if positional:
            index._trace = trace
            index._stats.trace_snapshots += 1
        return index

    @classmethod
    def from_file(
        cls,
        reader: "TraceFileReader",
        generation: int = 0,
        *,
        paged: bool = False,
        cache_blocks: Optional[int] = None,
        cache_bytes: Optional[int] = None,
        prefetch_blocks: Optional[int] = None,
    ) -> "HistoryIndex | OutOfCoreIndex":
        """Index a trace file through the bulk columnar path.

        Uses :meth:`TraceFileReader.read_columns`, so a v3 file is
        ingested column-wise (no per-record JSON parsing); v1/v2 files
        bridge through the record path transparently.  The blocks are
        decoded serially, in file order, and ingested through
        :meth:`extend_columns`, which defers record-object creation to
        the first record-level access.

        ``paged=True`` returns an
        :class:`~repro.analysis.paged.OutOfCoreIndex` instead: only
        block metadata is read now, record data is paged in per window
        query through a bounded LRU (``cache_blocks``/``cache_bytes``),
        with background readahead of adjacent blocks
        (``prefetch_blocks``) -- resident memory stays O(cache) rather
        than O(trace).  The paged facade serves window queries only;
        build an in-memory index for the global derivations (clocks,
        matching).
        """
        if paged:
            from .paged import OutOfCoreIndex

            kwargs: dict = {}
            if cache_blocks is not None:
                kwargs["cache_blocks"] = cache_blocks
            if cache_bytes is not None:
                kwargs["cache_bytes"] = cache_bytes
            if prefetch_blocks is not None:
                kwargs["prefetch_blocks"] = prefetch_blocks
            return OutOfCoreIndex(reader, **kwargs)
        if cache_blocks is not None or cache_bytes is not None:
            raise ValueError(
                "cache_blocks/cache_bytes apply to paged=True only"
            )
        if prefetch_blocks is not None:
            raise ValueError("prefetch_blocks applies to paged=True only")
        index = cls(nprocs=reader.nprocs, generation=generation)
        index.extend_columns(reader.read_columns())
        return index

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Mark this generation's history as discarded (post-replay).

        Every subsequent query or extension raises
        :class:`StaleIndexError`: an index must never answer for an
        execution that no longer exists.
        """
        self._stale = True

    @property
    def stale(self) -> bool:
        return self._stale

    def _check_live(self) -> None:
        if self._stale:
            raise StaleIndexError(
                f"history index for generation {self.generation} was "
                "invalidated by a replay; ask the session for the current "
                "generation's index"
            )

    # ------------------------------------------------------------------
    # column store plumbing
    # ------------------------------------------------------------------
    def _grow(self, need: int) -> None:
        if need <= self._cap:
            return
        new_cap = max(64, need, 2 * self._cap)
        n = self._n
        for name, dt in STORE_SPEC:
            buf = np.empty(new_cap, dtype=dt)
            buf[:n] = self._cols[name][:n]
            self._cols[name] = buf
        self._cap = new_cap

    def column(self, name: str) -> np.ndarray:
        """One column of the store, trimmed to the indexed length.

        The returned array is a live view: it reflects (and is
        invalidated by) subsequent extensions.  ``index`` is positional,
        ``kind`` holds :data:`~repro.trace.columnar.KIND_CODES` codes.
        """
        self._check_live()
        return self._cols[name][: self._n]

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """All store columns, trimmed to the indexed length."""
        self._check_live()
        n = self._n
        return {name: self._cols[name][:n] for name, _ in STORE_SPEC}

    # ------------------------------------------------------------------
    # deferred record materialization (every column ingest)
    # ------------------------------------------------------------------
    def _ensure_records(self) -> None:
        """Catch the record list up to the column store.

        :meth:`extend_columns` (and so every :meth:`from_file` build)
        ingests columns only -- record objects, per-proc rows, and the
        marker table are materialized here, on first record-level
        access.  Columnar consumers (window index, race masks, the
        matching/clock key columns) never pay for objects they do not
        touch.
        """
        if not self._pending_blocks:
            return
        pending, self._pending_blocks = self._pending_blocks, []
        rows = self._rows
        marker_first = self._marker_first
        for block in pending:
            records = block.to_records()
            pos = len(self._records)
            for rec in records:
                if rec.index != pos:
                    rec.index = pos  # to_records() objects are ours to mutate
                pos += 1
                rows[rec.proc].append(rec)
                marker_first.setdefault((rec.proc, rec.marker), rec)
            self._records.extend(records)

    # ------------------------------------------------------------------
    # extension (the IndexSink feed)
    # ------------------------------------------------------------------
    def extend(self, record: TraceRecord) -> None:
        """Fold one record in: O(1) now, amortized O(p) once the clock
        and matching components catch up to it.

        Raises :class:`ValueError` for a record whose ``proc`` falls
        outside ``[0, nprocs)`` -- such a record would silently vanish
        from the per-process rows and every clock/matching kernel.
        """
        self._check_live()
        if not 0 <= record.proc < self.nprocs:
            raise ValueError(
                f"record {record.index} has proc {record.proc} outside "
                f"[0, {self.nprocs}); the index cannot place it"
            )
        self._ensure_records()  # appended records must follow materialized ones
        pos = self._n
        if record.index != pos:
            # windowed / ring-buffer streams have sparse global indexes;
            # positional invariants (clock rows, path DP) need re-indexed
            # copies, same as ensure_trace.
            record = replace(record, index=pos)
        if self._cap <= pos:
            self._grow(pos + 1)
        self._records.append(record)
        cols = self._cols
        cols["index"][pos] = pos
        cols["proc"][pos] = record.proc
        cols["kind"][pos] = KIND_CODES[record.kind]
        cols["src"][pos] = record.src
        cols["dst"][pos] = record.dst
        cols["tag"][pos] = record.tag
        cols["seq"][pos] = record.seq
        cols["t0"][pos] = record.t0
        cols["t1"][pos] = record.t1
        cols["marker"][pos] = record.marker
        cols["size"][pos] = record.size
        self._n = pos + 1
        self._rows[record.proc].append(record)
        self._marker_first.setdefault((record.proc, record.marker), record)
        if self._t_lo is None or record.t0 < self._t_lo:
            self._t_lo = record.t0
        if self._t_hi is None or record.t1 > self._t_hi:
            self._t_hi = record.t1
        self._stats.records = self._n

    def extend_many(self, records: Iterable[TraceRecord]) -> int:
        n = 0
        for rec in records:
            self.extend(rec)
            n += 1
        return n

    def extend_columns(self, block: "ColumnBlock") -> int:
        """Bulk-ingest one decoded columnar block (the
        :meth:`TraceFileReader.read_columns` feed).

        Equivalent to ``extend_many(block.to_records())`` but feeds the
        column store with vectorized slice copies straight from the
        block's arrays (no per-record field stores) and updates the span
        from the block's time columns in one step.  Record-object
        creation, the dominant cost of a bulk build, is deferred: the
        block is stashed and its TraceRecords, per-proc rows, and marker
        entries appear on first record-level access
        (:meth:`_ensure_records`), re-indexed positionally in place.
        """
        self._check_live()
        n = len(block)
        if n == 0:
            return 0
        bcols = block.columns
        nprocs = self.nprocs
        bproc = bcols["proc"]
        bad = (bproc < 0) | (bproc >= nprocs)
        if bad.any():
            culprit = int(bproc[int(np.argmax(bad))])
            raise ValueError(
                f"column block contains proc {culprit} outside "
                f"[0, {nprocs}); the index cannot place it"
            )
        pos = self._n
        # columns: one vectorized copy per field --------------------------
        self._grow(pos + n)
        cols = self._cols
        sl = slice(pos, pos + n)
        cols["index"][sl] = np.arange(pos, pos + n, dtype=np.int64)
        kind_codes = bcols["kind"]
        if block.kind_table != DEFAULT_KIND_TABLE:
            # the block carries the *file's* kind codes; remap to ours
            kind_codes = kind_code_lut(block.kind_table)[kind_codes]
        cols["kind"][sl] = kind_codes
        for name in ("proc", "src", "dst", "tag", "seq", "t0", "t1",
                     "marker", "size"):
            cols[name][sl] = bcols[name]
        self._n = pos + n
        if not all(col.flags.owndata for col in bcols.values()):
            # a decoded block may view its file's mapping; the stash must
            # not change if that file is rewritten before materialization
            block = replace(
                block, columns={k: col.copy() for k, col in bcols.items()}
            )
        self._pending_blocks.append(block)
        t_lo = float(bcols["t0"].min())
        t_hi = float(bcols["t1"].max())
        if self._t_lo is None or t_lo < self._t_lo:
            self._t_lo = t_lo
        if self._t_hi is None or t_hi > self._t_hi:
            self._t_hi = t_hi
        self._stats.records = self._n
        return n

    def __len__(self) -> int:
        return self._n

    @property
    def records(self) -> Sequence[TraceRecord]:
        self._check_live()
        self._ensure_records()
        return self._records

    def sink(self) -> "IndexSink":
        """A bus sink feeding this index (attach to a recorder)."""
        return IndexSink(self)

    # ------------------------------------------------------------------
    # eager components
    # ------------------------------------------------------------------
    def by_proc(self, proc: int) -> Sequence[TraceRecord]:
        """This process's records in program order (live view)."""
        self._check_live()
        self._ensure_records()
        return self._rows[proc]

    @property
    def span(self) -> tuple[float, float]:
        """(earliest t0, latest t1); (0, 0) while empty."""
        self._check_live()
        if self._t_lo is None or self._t_hi is None:
            return (0.0, 0.0)
        return (self._t_lo, self._t_hi)

    def record_at_marker(self, proc: int, marker: int) -> Optional[TraceRecord]:
        """First record of ``proc`` carrying ``marker`` (O(1) lookup)."""
        self._check_live()
        self._ensure_records()
        return self._marker_first.get((proc, marker))

    # ------------------------------------------------------------------
    # time windows (the zoom-rescan primitive)
    # ------------------------------------------------------------------
    def _ensure_window_index(self) -> None:
        n = self._n
        if self._t0_order is not None and self._window_upto >= n:
            self._stats.hit("window")
            return
        self._stats.miss("window")
        start = time.perf_counter()
        lo = self._window_upto
        t0 = self._cols["t0"]
        if self._t0_order is None or lo == 0:
            self._stats.window_builds += 1
            order = np.argsort(t0[:n], kind="stable").astype(np.int64)
            self._t0_order = order
            self._t0_sorted = t0[:n][order]
        else:
            # merge the sorted suffix into the existing order (ties keep
            # trace order: suffix indexes are all larger, insert after)
            suf = t0[lo:n]
            suf_order = np.argsort(suf, kind="stable").astype(np.int64) + lo
            suf_sorted = t0[suf_order]
            at = np.searchsorted(self._t0_sorted, suf_sorted, side="right")
            self._t0_order = np.insert(self._t0_order, at, suf_order)
            self._t0_sorted = np.insert(self._t0_sorted, at, suf_sorted)
        self._window_upto = n
        self._stats.window_extends += n - lo
        self._stats.window_seconds += time.perf_counter() - start

    def window(self, t_lo: float, t_hi: float) -> list[TraceRecord]:
        """Records overlapping [t_lo, t_hi], in trace order.

        Served from a sorted-t0 interval index: ``searchsorted`` bounds
        the candidates with ``t0 <= t_hi``, one vectorized compare keeps
        those with ``t1 >= t_lo``.
        """
        self._check_live()
        self._ensure_records()  # results are record objects
        self._ensure_window_index()
        n = self._n
        if n == 0:
            return []
        k = int(np.searchsorted(self._t0_sorted, t_hi, side="right"))
        cand = self._t0_order[:k]
        sel = cand[self._cols["t1"][cand] >= t_lo]
        sel = np.sort(sel)
        records = self._records
        return [records[i] for i in sel.tolist()]

    # ------------------------------------------------------------------
    # process rows (the frontier / closure primitive)
    # ------------------------------------------------------------------
    def row_table(self) -> RowTable:
        """Trace indexes grouped by process in program order.

        Caught up lazily: a catch-up sorts only the new suffix by
        process and inserts each process's part at the end of its row.
        The returned table is immutable; a later catch-up builds a new
        one.
        """
        self._check_live()
        n = self._n
        if self._row_upto >= n:
            self._stats.hit("rows")
            return self._row_table
        self._stats.miss("rows")
        start = time.perf_counter()
        lo = self._row_upto
        proc = self._cols["proc"][lo:n]
        # a 16-bit key turns numpy's stable sort into a radix sort
        key = proc.astype(np.int16) if self.nprocs <= 1 << 15 else proc
        suffix = np.argsort(key, kind="stable").astype(np.int64) + lo
        counts = np.bincount(proc, minlength=self.nprocs).astype(np.int64)
        old = self._row_table
        if lo == 0:
            self._stats.row_builds += 1
            members = suffix
        else:
            at = np.repeat(old.offsets[1:], counts)  # each row's old end
            members = np.insert(old.members, at, suffix)
        offsets = old.offsets.copy()
        offsets[1:] += np.cumsum(counts)
        self._row_table = RowTable(members=members, offsets=offsets)
        self._row_upto = n
        self._stats.row_extends += n - lo
        self._stats.row_seconds += time.perf_counter() - start
        return self._row_table

    # ------------------------------------------------------------------
    # message matching
    # ------------------------------------------------------------------
    def _ensure_matching(self) -> None:
        n = self._n
        if self._matched_upto >= n:
            self._stats.hit("matching")
            return
        self._ensure_records()  # the kernel pairs record objects
        self._stats.miss("matching")
        start = time.perf_counter()
        if self._matched_upto == 0:
            self._stats.matching_builds += 1
        lo = self._matched_upto
        self._match_suffix(lo, n)
        self._matched_upto = n
        self._stats.matching_extends += n - lo
        self._stats.matching_seconds += time.perf_counter() - start

    def _match_suffix(self, lo: int, n: int) -> None:
        """Vectorized kernel: lexsort-group the (src, dst, tag, seq) key
        columns, pair each group's send with its receive.

        Sends still open from earlier catch-ups join the sort as
        carried-in events (their record indexes precede the suffix), so
        incremental state is exact.  Groups with at most one send and
        one receive -- every key under MPI non-overtaking -- are paired
        by pure array ops; pathological duplicate-key groups fall back
        to a per-group slot walk (the last open send with the key takes
        the next receive).
        """
        cols = self._cols
        kind = cols["kind"][lo:n]
        send_rel = np.nonzero(np.isin(kind, SEND_CODES))[0]
        recv_rel = np.nonzero(kind == _RECV_CODE)[0]
        records = self._records
        if recv_rel.size == 0:
            for i in (send_rel + lo).tolist():
                rec = records[i]
                self._open_sends[rec.message_key()] = rec
            return
        carry = np.fromiter(
            (rec.index for rec in self._open_sends.values()),
            dtype=np.int64,
            count=len(self._open_sends),
        )
        m_s = carry.size + send_rel.size
        evt = np.concatenate([carry, send_rel + lo, recv_rel + lo])
        src = cols["src"][evt]
        dst = cols["dst"][evt]
        tag = cols["tag"][evt]
        seq = cols["seq"][evt]
        order = np.lexsort((evt, seq, tag, dst, src))
        sc, dc, tc, qc = src[order], dst[order], tag[order], seq[order]
        boundary = np.empty(evt.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = (
            (sc[1:] != sc[:-1])
            | (dc[1:] != dc[:-1])
            | (tc[1:] != tc[:-1])
            | (qc[1:] != qc[:-1])
        )
        ngroups = int(boundary.sum())
        gid = np.empty(evt.size, dtype=np.int64)
        gid[order] = np.cumsum(boundary) - 1
        send_gid, recv_gid = gid[:m_s], gid[m_s:]
        s_cnt = np.bincount(send_gid, minlength=ngroups)
        r_cnt = np.bincount(recv_gid, minlength=ngroups)
        simple = (s_cnt <= 1) & (r_cnt <= 1)
        s_of = np.full(ngroups, -1, dtype=np.int64)
        s_of[send_gid] = evt[:m_s]
        r_of = np.full(ngroups, -1, dtype=np.int64)
        r_of[recv_gid] = evt[m_s:]
        paired = simple & (s_of >= 0) & (r_of >= 0) & (s_of < r_of)
        new_pairs = list(zip(s_of[paired].tolist(), r_of[paired].tolist()))
        unmatched = r_of[simple & (r_of >= 0) & ~paired].tolist()
        opened = s_of[simple & (s_of >= 0) & ~paired].tolist()
        consumed: list[int] = [s for s, _ in new_pairs if s < lo]
        # duplicate-key groups: slot semantics, per group ---------------
        cplx = np.nonzero(~simple)[0]
        if cplx.size:
            corder = np.lexsort((evt, gid))
            g_sorted = gid[corder]
            starts = np.searchsorted(g_sorted, cplx, side="left")
            ends = np.searchsorted(g_sorted, cplx, side="right")
            is_recv_flag = np.zeros(evt.size, dtype=bool)
            is_recv_flag[m_s:] = True
            for a, b in zip(starts.tolist(), ends.tolist()):
                slot = -1
                group = corder[a:b]
                first = int(evt[group[0]])
                for j in group.tolist():
                    e = int(evt[j])
                    if is_recv_flag[j]:
                        if slot >= 0:
                            new_pairs.append((slot, e))
                            slot = -1
                        else:
                            unmatched.append(e)
                    else:
                        slot = e
                if slot >= 0:
                    opened.append(slot)
                elif first < lo:
                    # the group consumed (or overwrote away) its carried
                    # open send; drop its key below
                    consumed.append(first)
        # fold results into the incremental state ----------------------
        open_sends = self._open_sends
        for s in consumed:
            del open_sends[records[s].message_key()]
        for i in opened:
            if i >= lo:  # carried sends that stayed open are already there
                rec = records[i]
                open_sends[rec.message_key()] = rec
        new_pairs.sort(key=lambda p: p[1])
        send_of_recv = self._send_of_recv
        pairs = self._pairs
        for s, r in new_pairs:
            pairs.append(MessagePair(records[s], records[r]))
            send_of_recv[r] = s
        if new_pairs:
            self._pair_index = np.concatenate(
                [self._pair_index, np.asarray(new_pairs, dtype=np.int64)]
            )
        unmatched.sort()
        self._unmatched_recvs.extend(records[i] for i in unmatched)

    def message_pairs(self) -> list[MessagePair]:
        """All matched (send, recv) pairs, in receive order."""
        self._check_live()
        self._ensure_matching()
        return self._pairs

    def pair_indexes(self) -> tuple[np.ndarray, np.ndarray]:
        """(send, recv) trace-index arrays of :meth:`message_pairs`."""
        self._check_live()
        self._ensure_matching()
        return self._pair_index[:, 0], self._pair_index[:, 1]

    def unmatched_sends(self) -> list[TraceRecord]:
        """Sends whose message was never received, in trace order."""
        self._check_live()
        self._ensure_matching()
        return sorted(self._open_sends.values(), key=lambda r: r.index)

    def unmatched_recvs(self) -> list[TraceRecord]:
        """Receives with no matching send in the indexed history."""
        self._check_live()
        self._ensure_matching()
        return self._unmatched_recvs

    @property
    def send_of_recv(self) -> dict[int, int]:
        """recv record index -> matched send record index."""
        self._check_live()
        self._ensure_matching()
        return self._send_of_recv

    # ------------------------------------------------------------------
    # vector clocks
    # ------------------------------------------------------------------
    def _ensure_clocks(self) -> None:
        n = self._n
        if self._clocked_upto >= n:
            self._stats.hit("clocks")
            return
        self._ensure_matching()  # recv joins need send_of_recv
        self._stats.miss("clocks")
        start = time.perf_counter()
        if self._clocked_upto == 0:
            self._stats.clock_builds += 1
        if self._clocks.shape[0] < n:
            cap = max(64, n, 2 * self._clocks.shape[0])
            grown = np.zeros((cap, self.nprocs), dtype=np.int64)
            grown[: self._clocks.shape[0]] = self._clocks
            self._clocks = grown
        lo = self._clocked_upto
        self._clocks_suffix(lo, n)
        self._clocked_upto = n
        self._stats.clock_extends += n - lo
        self._stats.clock_seconds += time.perf_counter() - start

    def _clocks_suffix(self, lo: int, n: int) -> None:
        """Vectorized kernel: Python touches only receive-join events.

        A process's clock changes its *own* component at every event but
        its other components only at receive joins, so each per-process
        row splits into segments delimited by joins: within a segment
        every clock row equals the segment base except the own column,
        which is a running count.  The kernel walks the joins in trace
        order maintaining the per-process running bases as plain Python
        lists (length p -- no numpy-call overhead inside the loop) and
        collects each new segment base into a per-process table; the
        clock matrix is then written in two bulk operations per process
        -- one ``B[segment_id]`` gather for the inter-join broadcasts,
        one global scatter for the own-component counters.

        ``self._current`` carries the state between catch-ups: row p is
        the clock after p's last indexed event.
        """
        from bisect import bisect_right

        cols = self._cols
        nprocs = self.nprocs
        clocks = self._clocks
        current = self._current
        m = n - lo
        proc_sub = cols["proc"][lo:n]
        kind_sub = cols["kind"][lo:n]
        order = np.argsort(proc_sub, kind="stable")
        bounds = np.searchsorted(proc_sub[order], np.arange(nprocs + 1))
        idxs_by_proc = [order[bounds[p]: bounds[p + 1]] for p in range(nprocs)]
        counts0 = [int(current[p, p]) for p in range(nprocs)]
        own_abs = np.empty(m, dtype=np.int64)
        for p in range(nprocs):
            rows = idxs_by_proc[p]
            own_abs[rows] = counts0[p] + np.arange(
                1, rows.size + 1, dtype=np.int64
            )
        # matched joins of the suffix, in trace order, with the scalar
        # reads the loop needs gathered up front (no full-column tolist)
        send_map = self._send_of_recv
        recv_rels = np.nonzero(kind_sub == _RECV_CODE)[0]
        sends = [send_map.get(int(i) + lo) for i in recv_rels]
        keep = [k for k, s in enumerate(sends) if s is not None]
        i_rels = recv_rels[keep].tolist() if keep else []
        s_abs = [sends[k] for k in keep]
        own_i_l = own_abs[recv_rels[keep]].tolist() if keep else []
        p_l = proc_sub[recv_rels[keep]].tolist() if keep else []
        s_rel_arr = np.asarray([s - lo for s in s_abs], dtype=np.int64)
        in_suffix = [s >= lo for s in s_abs]
        own_s_l = np.where(
            s_rel_arr >= 0, own_abs[np.maximum(s_rel_arr, 0)], 0
        ).tolist() if keep else []
        q_l = proc_sub[np.maximum(s_rel_arr, 0)].tolist() if keep else []
        # per-process running base (non-own components) + segment tables
        base = [current[p].tolist() for p in range(nprocs)]
        seg_bases: list[list[list[int]]] = [[base[p][:]] for p in range(nprocs)]
        join_rows: list[list[int]] = [[] for _ in range(nprocs)]
        for k in range(len(i_rels)):
            own_i = own_i_l[k]
            p = p_l[k]
            bp = base[p]
            if in_suffix[k]:
                q = q_l[k]
                # the send's segment: last join of q at or before its row
                rel_row = own_s_l[k] - 1 - counts0[q]
                sc = seg_bases[q][bisect_right(join_rows[q], rel_row)]
                bp = [a if a >= b else b for a, b in zip(bp, sc)]
                v = own_s_l[k]  # the send's own component
                if v > bp[q]:
                    bp[q] = v
            else:
                # prior-batch send: its clock row is already final
                sc = clocks[s_abs[k]].tolist()
                bp = [a if a >= b else b for a, b in zip(bp, sc)]
            bp[p] = own_i
            base[p] = bp  # the old list stays frozen in its segment table
            join_rows[p].append(own_i - 1 - counts0[p])
            seg_bases[p].append(bp)
        # bulk fill: global segment ids -> one contiguous gather, then
        # one scatter for the own-component counters -----------------
        gid = np.empty(m, dtype=np.int64)
        offset = 0
        tables = []
        for p in range(nprocs):
            rows = idxs_by_proc[p]
            tables.extend(seg_bases[p])
            if rows.size:
                if join_rows[p]:
                    gid[rows] = offset + np.searchsorted(
                        np.asarray(join_rows[p], dtype=np.int64),
                        np.arange(rows.size, dtype=np.int64),
                        side="right",
                    )
                else:
                    gid[rows] = offset
            offset += len(seg_bases[p])
            current[p] = base[p]
            current[p, p] = counts0[p] + rows.size
        table_all = np.asarray(tables, dtype=np.int64)
        # gid is in [0, len(tables)) by construction; "clip" skips the
        # bounds pass, and writing straight into the matrix avoids a
        # second (n x p)-sized temporary
        table_all.take(gid, axis=0, mode="clip", out=clocks[lo:n])
        clocks[np.arange(lo, n), proc_sub] = own_abs

    @property
    def clocks(self) -> np.ndarray:
        """The (n_records, nprocs) vector-clock matrix (read-only view)."""
        self._check_live()
        self._ensure_clocks()
        return self._clocks[: self._n]

    @property
    def order(self) -> CausalOrder:
        """Happens-before queries over the indexed history.

        The returned :class:`CausalOrder` is a zero-copy view of the
        incrementally-maintained clock matrix; accessing it never
        re-derives clocks already computed.
        """
        self._check_live()
        self._ensure_clocks()
        trace = self.trace
        if self._order is None or self._order.trace is not trace:
            self._stats.miss("order")
            self._order = CausalOrder(
                trace=trace, clocks=self._clocks[: self._n], index=self
            )
        else:
            self._stats.hit("order")
        return self._order

    # ------------------------------------------------------------------
    # kernel observability (races, critical path, ... report here)
    # ------------------------------------------------------------------
    def record_kernel(self, name: str, seconds: float) -> None:
        """Attribute one analysis-kernel invocation to this index's
        stats (surfaced by the debugger ``stats`` command)."""
        self._stats.kernel(name, seconds)

    # ------------------------------------------------------------------
    # trace view
    # ------------------------------------------------------------------
    @property
    def trace(self) -> Trace:
        """An immutable Trace snapshot of the indexed records, memoized
        until the next extension."""
        self._check_live()
        self._ensure_records()
        if self._trace is None or len(self._trace) != len(self._records):
            self._stats.miss("trace")
            self._stats.trace_snapshots += 1
            self._trace = Trace(self._records, self.nprocs)
            # The snapshot and the index describe the same history; hand
            # the trace our derived state so its own lazy accessors
            # never re-derive what the index already holds.
            bind_trace_index(self._trace, self)
        else:
            self._stats.hit("trace")
        return self._trace

    # ------------------------------------------------------------------
    # blocked-wait state (runtime snapshot for §4.4 diagnoses)
    # ------------------------------------------------------------------
    def set_blocked(self, waiting: Optional[Sequence["WaitInfo"]]) -> None:
        """Cache the runtime's blocked-wait snapshot for §4.4 consumers
        (missed-message and deadlock diagnoses)."""
        self._check_live()
        self._blocked = list(waiting) if waiting is not None else None

    @property
    def blocked(self) -> Optional[list["WaitInfo"]]:
        self._check_live()
        return self._blocked

    # ------------------------------------------------------------------
    def stats(self) -> IndexStats:
        """A point-in-time copy of the build/extend counters."""
        return self._stats.snapshot()


class IndexSink(TraceSink):
    """Feeds a :class:`HistoryIndex` from a TraceBus as records stream
    in -- the streaming half of the shared substrate."""

    def __init__(self, index: HistoryIndex) -> None:
        self.index = index

    def emit(self, record: TraceRecord) -> None:
        self.index.extend(record)


def bind_trace_index(trace: Trace, index: HistoryIndex) -> None:
    """Memoize ``index`` on ``trace`` so every consumer handed the bare
    trace shares the same derived state (the back-compat seam)."""
    trace._history_index = index


def ensure_index(
    source: "HistoryIndex | Trace | Iterable[TraceRecord]",
    nprocs: Optional[int] = None,
    index: Optional[HistoryIndex] = None,
) -> HistoryIndex:
    """Coerce anything history-shaped into a shared :class:`HistoryIndex`.

    Precedence: an explicitly passed ``index`` wins; an index argument
    passes through; a :class:`Trace` gets an index memoized *on the
    trace object*, so repeated analyses over the same trace share one
    derivation; any other record iterable is materialized first.
    """
    if index is not None:
        return index
    if isinstance(source, HistoryIndex):
        return source
    if not isinstance(source, Trace):
        source = ensure_trace(source, nprocs=nprocs)
    cached = getattr(source, "_history_index", None)
    if cached is not None and not cached.stale:
        return cached
    built = HistoryIndex.from_trace(source)
    bind_trace_index(source, built)
    return built
