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

Storage is **columnar**, and the column store is the only in-memory
form of the history: the fixed-width fields
(``index/proc/kind/src/dst/tag/seq/t0/t1/marker/size``) are
incrementally-grown numpy arrays (amortized doubling), appended per
record in :meth:`extend` and bulk-copied from a decoded
:class:`~repro.trace.columnar.ColumnBlock` in :meth:`extend_columns`,
which also keeps the block for the fields the store does not hold
(locations, peer fields, ``extra``).  A
:class:`~repro.trace.events.TraceRecord` is built only for a row a
caller reads -- ``trace[i]``, ``records``, ``by_proc``,
``window``, the members of pairs, unmatched lists, races, paths and
frontiers -- and memoized, so a second read returns the same object;
``stats().records_built`` counts them.  Records fed through
:meth:`extend` are kept as they arrive.

The hot kernels run on the columns as batched array operations, and
their state is trace-index arrays:

* vector clocks -- only receive-join events are touched in Python, one
  ``np.maximum`` per join into an int64 table of segment bases; the
  segments between joins are filled by one gather (O(messages*p) array
  work instead of O(n*p) Python iterations);
* message matching -- one ``np.lexsort`` grouping over the
  (src, dst, tag, seq) key columns; pairs, the send of each receive,
  open sends and unmatched receives are int64 arrays;
* :meth:`window` -- a sorted-t0 interval index answered with
  ``searchsorted`` instead of a full list scan;
* :meth:`row_table` -- trace indexes grouped by process in program
  order (CSR), the substrate of ``by_proc``, the per-process time and
  marker searches and the O(p log n) frontier, closure and stopline
  queries of :class:`~repro.analysis.causality.CausalOrder`.

Scalar per-record reference implementations live in ``tests/oracles.py``;
the property suite (``tests/property/test_analysis_kernels_properties``)
checks these kernels equal to them, and
``benchmarks/test_analysis_kernels.py`` gates the speedup over them.

Maintenance is incremental with a lazy catch-up discipline:

* :meth:`extend` (fed by an :class:`IndexSink` on the TraceBus) appends
  the record and updates the O(1) components eagerly -- the columns
  and the span;
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

import operator
import time
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

import numpy as np

from repro.trace.columnar import DEFAULT_KIND_TABLE, KIND_CODES, kind_code_lut
from repro.trace.events import RECV_KINDS, SEND_KINDS, EventKind, TraceRecord
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
    critical path), keyed by kernel name.  ``records_built`` counts the
    column-ingested rows turned into record objects because a caller
    read them.
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
    records_built: int = 0
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
        return replace(
            self,
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
            f"  records built : {self.records_built} of {self.records} row(s)",
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


class _LazySequence(Sequence):
    """A read-only sequence whose items are built on first read.

    Subclasses supply ``__len__`` and ``_items(ks)``, the items at the
    positions of the range ``ks``.  Iteration builds ahead
    geometrically, so a loop that stops early builds at most twice the
    items it read, in O(log n) batches.
    """

    def _items(self, ks: range) -> list:  # pragma: no cover - abstract
        raise NotImplementedError

    def __getitem__(self, k):
        n = len(self)
        if isinstance(k, slice):
            return self._items(range(n)[k])
        k = operator.index(k)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._item(k)

    def _item(self, k: int):
        return self._items(range(k, k + 1))[0]

    def __iter__(self):
        n = len(self)
        lo, step = 0, 1
        while lo < n:
            hi = min(n, lo + step)
            yield from self._items(range(lo, hi))
            lo, step = hi, 2 * step

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class IndexRows(_LazySequence):
    """Records of an index's rows: the rows at ``positions``, or rows
    ``[0, stop)`` when ``positions`` is None.  Each record is built on
    first read and memoized by the index, so every view of a row
    returns the same object."""

    def __init__(
        self, index: "HistoryIndex", positions: Optional[np.ndarray], stop: int = 0
    ) -> None:
        self._index = index
        self._positions = positions
        self._stop = stop if positions is None else int(positions.size)

    def __len__(self) -> int:
        return self._stop

    def _items(self, ks: range) -> list[TraceRecord]:
        if self._positions is None:
            return self._index._records_at(ks)
        return self._index._records_at(
            self._positions[np.asarray(ks, dtype=np.int64)]
        )

    def _item(self, k: int) -> TraceRecord:
        pos = k if self._positions is None else int(self._positions[k])
        rec = self._index._built[pos]
        return rec if rec is not None else self._index._records_at((pos,))[0]


class IndexPairs(_LazySequence):
    """Matched (send, recv) pairs by trace index; each
    :class:`~repro.trace.trace.MessagePair` is built when it is read."""

    def __init__(
        self, index: "HistoryIndex", sends: np.ndarray, recvs: np.ndarray
    ) -> None:
        self._index = index
        self._sends = sends
        self._recvs = recvs

    def __len__(self) -> int:
        return int(self._recvs.size)

    def _items(self, ks: range) -> list[MessagePair]:
        sel = np.asarray(ks, dtype=np.int64)
        records = self._index._records_at(
            np.concatenate([self._sends[sel], self._recvs[sel]])
        )
        m = sel.size
        return [MessagePair(s, r) for s, r in zip(records[:m], records[m:])]


class _Payload(NamedTuple):
    """The decoded block ingested as rows ``[start, stop)``, kept for
    the fields the store does not hold (locations, peer fields,
    ``extra``)."""

    start: int
    stop: int
    block: "ColumnBlock"


class HistoryIndex:
    """Shared, incrementally-maintained derived state for one history.

    Components (each computed once, then extended):

    * ``order`` -- vector clocks as a :class:`CausalOrder`;
    * ``message_pairs()`` / ``pair_indexes()`` / ``matched_sends()`` /
      ``unmatched_sends()`` / ``unmatched_recvs()`` / ``send_of_recv``
      -- send/receive matching, held as trace-index arrays;
    * ``row_table()`` / ``by_proc(p)`` -- trace indexes grouped by
      process in program order, for the frontier and closure queries;
    * ``span`` / ``record_at_marker()`` / ``window()`` and the
      per-process time searches -- span, marker and time lookup;
    * ``column(name)`` / ``columns`` -- the structure-of-arrays store
      every kernel runs on (and the only in-memory form of a row);
    * ``blocked`` -- the runtime's blocked-wait snapshot, when supplied.

    A :class:`~repro.trace.events.TraceRecord` exists only for a row a
    caller reads (``records``, ``trace[i]``, ``by_proc``, ``window``,
    the members of pairs, unmatched lists, races, paths and frontiers);
    it is built from the columns on first read and memoized.  Records
    fed through :meth:`extend` are kept as they arrive.

    ``trace`` is an immutable :class:`~repro.trace.trace.Trace` over
    these rows that answers its whole-trace queries from the index.
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
        self._n = 0
        # column store (structure of arrays, amortized doubling) --------
        self._cap = 0
        self._cols: dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dt) for name, dt in STORE_SPEC
        }
        # row -> its record once built (None until a caller reads it),
        # and the side tables column-ingested rows are built from
        self._built: list[Optional[TraceRecord]] = []
        self._unbuilt = 0  # None entries of _built
        self._payloads: list[_Payload] = []
        self._t_lo: Optional[float] = None
        self._t_hi: Optional[float] = None
        # matching (lazy catch-up), all by trace index -------------------
        self._matched_upto = 0
        self._open_sends = np.zeros(0, dtype=np.int64)  # ascending
        self._pair_send = np.zeros(0, dtype=np.int64)  # in receive order
        self._pair_recv = np.zeros(0, dtype=np.int64)
        self._send_of = np.zeros(0, dtype=np.int64)  # per row; -1: none
        self._unmatched_recvs = np.zeros(0, dtype=np.int64)
        self._send_of_recv: Optional[dict[int, int]] = None
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
        # memoized views, held weakly: each view holds the index, so a
        # strong memo would form a cycle keeping a dropped index (and its
        # clock matrix) alive until the next GC pass -------------------
        self._trace: Optional[weakref.ref[Trace]] = None
        self._order: Optional[weakref.ref[CausalOrder]] = None
        self._pairs: Optional[weakref.ref[IndexPairs]] = None
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
        object itself becomes the index's trace view, so trace-level
        caches are shared rather than duplicated.  The positional check
        rides along the single ingest pass.
        """
        index = cls(nprocs=trace.nprocs, generation=generation)
        positional = True
        for pos, rec in enumerate(trace):
            if positional and rec.index != pos:
                positional = False
            index.extend(rec)
        if positional:
            index._trace = weakref.ref(trace)
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
    ) -> "HistoryIndex | OutOfCoreIndex":
        """Index a trace file through the bulk columnar path.

        Uses :meth:`TraceFileReader.read_columns`, so a v3 file is
        ingested column-wise (no per-record JSON parsing); v1/v2 files
        bridge through the record path transparently.  The blocks are
        decoded serially, in file order, and ingested through
        :meth:`extend_columns`: no record object is built until a
        caller reads its row.

        ``paged=True`` returns an
        :class:`~repro.analysis.paged.OutOfCoreIndex` instead: only
        block metadata is read now, record data is paged in per window
        query through a bounded LRU (``cache_blocks``/``cache_bytes``)
        -- resident memory stays O(cache) rather than O(trace).  The paged facade serves window queries only;
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
            return OutOfCoreIndex(reader, **kwargs)
        if cache_blocks is not None or cache_bytes is not None:
            raise ValueError(
                "cache_blocks/cache_bytes apply to paged=True only"
            )
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
        execution that no longer exists.  Rows already handed out (a
        trace view, pairs) stay readable.
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

    def answers_for(self, trace: Trace) -> bool:
        """Is ``trace`` this live index's trace view, at full length?
        Such a trace answers its whole-trace queries from the index."""
        return not self._stale and _alive(self._trace) is trace and len(trace) == self._n

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
    # rows as records (built on first read, then memoized)
    # ------------------------------------------------------------------
    def _records_at(self, rows: "Iterable[int] | np.ndarray") -> list[TraceRecord]:
        """The records of trace indexes ``rows``, building the missing
        ones.  Deliberately skips the liveness check: rows handed out
        before an invalidation stay readable."""
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        built = self._built
        out = [built[i] for i in rows]
        if self._unbuilt:
            missing = [i for i, rec in zip(rows, out) if rec is None]
            if missing:
                self._build(np.unique(np.asarray(missing, dtype=np.int64)))
                out = [built[i] for i in rows]
        return out

    def _payload_groups(self, rows: np.ndarray):
        """(payload, mask over ``rows``) for each ingested block holding
        some of ``rows``."""
        for payload in self._payloads:
            mask = (rows >= payload.start) & (rows < payload.stop)
            if mask.any():
                yield payload, mask

    def _build(self, rows: np.ndarray) -> None:
        """Build and memoize the records of ``rows`` (distinct,
        ascending, column-ingested, none built yet) from their kept
        blocks, re-indexed positionally."""
        built = self._built
        for payload, mask in self._payload_groups(rows):
            sel = rows[mask]
            records = payload.block.to_records(sel - payload.start)
            for i, rec in zip(sel.tolist(), records):
                if rec.index != i:
                    rec.index = i  # to_records() objects are ours to mutate
                built[i] = rec
        self._unbuilt -= int(rows.size)
        self._stats.records_built += int(rows.size)

    def records_at(self, rows: "Iterable[int] | np.ndarray") -> list[TraceRecord]:
        """The records of trace indexes ``rows``, built on first read."""
        self._check_live()
        return self._records_at(rows)

    def row_extras(self, rows: np.ndarray) -> list[dict]:
        """The ``extra`` dict of each of ``rows``: from its block's side
        table for a column-ingested row, else from its streamed record
        -- no record is built."""
        self._check_live()
        rows = np.asarray(rows, dtype=np.int64)
        out: list[Optional[dict]] = [None] * rows.size
        for payload, mask in self._payload_groups(rows):
            extras = payload.block.extras
            ks = np.flatnonzero(mask)
            xids = payload.block.columns["extra"][rows[ks] - payload.start]
            for k, x in zip(ks.tolist(), xids.tolist()):
                out[k] = extras[x] if x >= 0 else {}
        built = self._built
        return [
            built[i].extra if x is None else x  # type: ignore[union-attr]
            for i, x in zip(rows.tolist(), out)
        ]

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
        pos = self._n
        if record.index != pos:
            # windowed / ring-buffer streams have sparse global indexes;
            # positional invariants (clock rows, path DP) need re-indexed
            # copies, same as ensure_trace.
            record = replace(record, index=pos)
        if self._cap <= pos:
            self._grow(pos + 1)
        self._built.append(record)
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
        block's arrays and builds no record: the block is kept, and a
        row's record is built from it (``block.to_records(rows)``) when
        a caller reads the row.
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
            # a decoded block may view its file's mapping; the kept block
            # must not change if that file is rewritten later
            block = replace(
                block, columns={k: col.copy() for k, col in bcols.items()}
            )
        self._payloads.append(_Payload(pos, pos + n, block))
        self._built.extend([None] * n)
        self._unbuilt += n
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
    def records(self) -> IndexRows:
        """Every indexed row as a lazy record sequence."""
        self._check_live()
        return IndexRows(self, None, self._n)

    def sink(self) -> "IndexSink":
        """A bus sink feeding this index (attach to a recorder)."""
        return IndexSink(self)

    # ------------------------------------------------------------------
    # whole-trace queries (what a Trace view answers from the index)
    # ------------------------------------------------------------------
    def _proc_rows(self, proc: int) -> np.ndarray:
        table = self.row_table()
        return table.members[table.offsets[proc]: table.offsets[proc + 1]]

    def by_proc(self, proc: int) -> IndexRows:
        """This process's records in program order (a lazy snapshot)."""
        self._check_live()
        return IndexRows(self, self._proc_rows(proc))

    @property
    def span(self) -> tuple[float, float]:
        """(earliest t0, latest t1); (0, 0) while empty."""
        self._check_live()
        if self._t_lo is None or self._t_hi is None:
            return (0.0, 0.0)
        return (self._t_lo, self._t_hi)

    def record_at_marker(self, proc: int, marker: int) -> Optional[TraceRecord]:
        """First record of ``proc`` carrying ``marker``."""
        self._check_live()
        rows = self._proc_rows(proc)
        hit = np.flatnonzero(self._cols["marker"][rows] == marker)
        return self._records_at(rows[hit[:1]])[0] if hit.size else None

    def _row_search(
        self, proc: int, name: str, t: float, side: str, before: bool = False
    ) -> Optional[TraceRecord]:
        """Binary search of ``proc``'s row on column ``name``: the record
        at the insertion point of ``t`` (or just before it)."""
        self._check_live()
        rows = self._proc_rows(proc)
        i = int(np.searchsorted(self._cols[name][rows], t, side=side))
        if before:
            i -= 1
        return self._records_at(rows[i:i + 1])[0] if 0 <= i < rows.size else None

    def first_at_or_after(self, proc: int, t: float) -> Optional[TraceRecord]:
        """Earliest record of ``proc`` starting at or after ``t``."""
        return self._row_search(proc, "t0", t, "left")

    def first_ending_after(self, proc: int, t: float) -> Optional[TraceRecord]:
        """Earliest record of ``proc`` completing strictly after ``t``."""
        return self._row_search(proc, "t1", t, "right")

    def last_before(self, proc: int, t: float) -> Optional[TraceRecord]:
        """Latest record of ``proc`` starting strictly before ``t``."""
        return self._row_search(proc, "t0", t, "left", before=True)

    def final_markers(self) -> dict[int, int]:
        """Rank -> highest marker seen (ranks with a marker above -1)."""
        self._check_live()
        top = np.full(self.nprocs, -1, dtype=np.int64)
        np.maximum.at(top, self.column("proc"), self.column("marker"))
        return {p: m for p, m in enumerate(top.tolist()) if m > -1}

    def counts_by_kind(self) -> dict[EventKind, int]:
        self._check_live()
        counts = np.bincount(self.column("kind"), minlength=len(DEFAULT_KIND_TABLE))
        return {
            DEFAULT_KIND_TABLE[code]: c
            for code, c in enumerate(counts.tolist()) if c
        }

    def _proc_counts(self, mask: np.ndarray) -> dict[int, int]:
        counts = np.bincount(self.column("proc")[mask], minlength=self.nprocs)
        return dict(enumerate(counts.tolist()))

    def recv_counts(self) -> dict[int, int]:
        """Rank -> number of completed receives."""
        self._check_live()
        return self._proc_counts(self.column("kind") == _RECV_CODE)

    def send_counts(self) -> dict[int, int]:
        """Rank -> number of sends."""
        self._check_live()
        return self._proc_counts(np.isin(self.column("kind"), SEND_CODES))

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
        """Records overlapping [t_lo, t_hi], in trace order; none for an
        inverted window (``t_lo > t_hi``), as on every file path.

        Served from a sorted-t0 interval index: ``searchsorted`` bounds
        the candidates with ``t0 <= t_hi``, one vectorized compare keeps
        those with ``t1 >= t_lo``.  Only the returned rows are built.
        """
        self._check_live()
        if t_lo > t_hi:
            return []
        self._ensure_window_index()
        if self._n == 0:
            return []
        k = int(np.searchsorted(self._t0_sorted, t_hi, side="right"))
        cand = self._t0_order[:k]
        sel = cand[self._cols["t1"][cand] >= t_lo]
        return self._records_at(np.sort(sel))

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
        suffix = _argsort_procs(proc, self.nprocs) + lo
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
        self._stats.miss("matching")
        start = time.perf_counter()
        if self._matched_upto == 0:
            self._stats.matching_builds += 1
        if self._send_of.size < n:
            grown = np.full(max(64, n, 2 * self._send_of.size), -1, dtype=np.int64)
            grown[: self._send_of.size] = self._send_of
            self._send_of = grown
        lo = self._matched_upto
        self._match_suffix(lo, n)
        self._matched_upto = n
        self._stats.matching_extends += n - lo
        self._stats.matching_seconds += time.perf_counter() - start

    def _match_suffix(self, lo: int, n: int) -> None:
        """Vectorized kernel: lexsort-group the (src, dst, tag, seq) key
        columns, pair each group's send with its receive.

        Sends still open from earlier catch-ups join the sort as
        carried-in events (their trace indexes precede the suffix), so
        incremental state is exact.  Groups with at most one send and
        one receive -- every key under MPI non-overtaking -- are paired
        by pure array ops; pathological duplicate-key groups fall back
        to a per-group slot walk (the last open send with the key takes
        the next receive).  Each group leaves at most one open send.
        """
        cols = self._cols
        kind = cols["kind"][lo:n]
        sends = np.concatenate(
            [self._open_sends, np.flatnonzero(np.isin(kind, SEND_CODES)) + lo]
        )
        recvs = np.flatnonzero(kind == _RECV_CODE) + lo
        m_s = sends.size
        evt = np.concatenate([sends, recvs])
        if evt.size == 0:
            return
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
        s_of[send_gid] = sends
        r_of = np.full(ngroups, -1, dtype=np.int64)
        r_of[recv_gid] = recvs
        paired = simple & (s_of >= 0) & (r_of >= 0) & (s_of < r_of)
        pair_s, pair_r = s_of[paired], r_of[paired]
        unmatched = r_of[simple & (r_of >= 0) & ~paired]
        opened = s_of[simple & (s_of >= 0) & ~paired]
        # duplicate-key groups: slot semantics, per group ---------------
        cplx = np.nonzero(~simple)[0]
        if cplx.size:
            more_pairs: list[tuple[int, int]] = []
            more_unmatched: list[int] = []
            more_open: list[int] = []
            corder = np.lexsort((evt, gid))
            g_sorted = gid[corder]
            starts = np.searchsorted(g_sorted, cplx, side="left")
            ends = np.searchsorted(g_sorted, cplx, side="right")
            evt_l = evt.tolist()
            for a, b in zip(starts.tolist(), ends.tolist()):
                slot = -1
                for j in corder[a:b].tolist():
                    e = evt_l[j]
                    if j >= m_s:  # a receive
                        if slot >= 0:
                            more_pairs.append((slot, e))
                            slot = -1
                        else:
                            more_unmatched.append(e)
                    else:
                        slot = e
                if slot >= 0:
                    more_open.append(slot)
            if more_pairs:
                extra = np.asarray(more_pairs, dtype=np.int64)
                pair_s = np.concatenate([pair_s, extra[:, 0]])
                pair_r = np.concatenate([pair_r, extra[:, 1]])
            unmatched = np.concatenate(
                [unmatched, np.asarray(more_unmatched, dtype=np.int64)]
            )
            opened = np.concatenate([opened, np.asarray(more_open, dtype=np.int64)])
        # fold results into the incremental state ----------------------
        by_recv = np.argsort(pair_r)
        pair_s, pair_r = pair_s[by_recv], pair_r[by_recv]
        self._pair_send = np.concatenate([self._pair_send, pair_s])
        self._pair_recv = np.concatenate([self._pair_recv, pair_r])
        self._send_of[pair_r] = pair_s
        self._open_sends = np.sort(opened)
        self._unmatched_recvs = np.concatenate(
            [self._unmatched_recvs, np.sort(unmatched)]
        )

    def message_pairs(self) -> IndexPairs:
        """All matched (send, recv) pairs, in receive order; each
        :class:`~repro.trace.trace.MessagePair` is built when read."""
        self._check_live()
        self._ensure_matching()
        pairs = _alive(self._pairs)
        if pairs is None or pairs._recvs is not self._pair_recv:
            pairs = IndexPairs(self, self._pair_send, self._pair_recv)
            self._pairs = weakref.ref(pairs)
        return pairs

    def pair_indexes(self) -> tuple[np.ndarray, np.ndarray]:
        """(send, recv) trace-index arrays of :meth:`message_pairs`."""
        self._check_live()
        self._ensure_matching()
        return self._pair_send, self._pair_recv

    def matched_sends(self) -> np.ndarray:
        """Per row, the trace index of the send matched to it (-1 where
        the row is not a matched receive)."""
        self._check_live()
        self._ensure_matching()
        return self._send_of[: self._n]

    def unmatched_sends(self) -> list[TraceRecord]:
        """Sends whose message was never received, in trace order."""
        self._check_live()
        self._ensure_matching()
        return self._records_at(self._open_sends)

    def unmatched_recvs(self) -> list[TraceRecord]:
        """Receives with no matching send in the indexed history."""
        self._check_live()
        self._ensure_matching()
        return self._records_at(self._unmatched_recvs)

    @property
    def send_of_recv(self) -> dict[int, int]:
        """recv record index -> matched send record index (derived from
        :meth:`pair_indexes` on demand)."""
        self._check_live()
        self._ensure_matching()
        if self._send_of_recv is None or len(self._send_of_recv) != self._pair_recv.size:
            self._send_of_recv = dict(
                zip(self._pair_recv.tolist(), self._pair_send.tolist())
            )
        return self._send_of_recv

    # ------------------------------------------------------------------
    # vector clocks
    # ------------------------------------------------------------------
    def _ensure_clocks(self) -> None:
        n = self._n
        if self._clocked_upto >= n:
            self._stats.hit("clocks")
            return
        self._ensure_matching()  # recv joins need the matched sends
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
        which is a running count.  The bases live in one int64 table:
        row p is p's base carried in from the last catch-up, row
        ``nprocs + t`` the base after the suffix's t-th join (trace
        order).  Every suffix row's segment is known up front (the
        latest join of its process at or before it, by a running max),
        so the join loop does one ``np.maximum`` per join into its table
        row; the clock matrix is then one ``take`` from the table plus
        one scatter of the own-component counters.

        ``self._current`` carries the state between catch-ups: row p is
        the clock after p's last indexed event.
        """
        nprocs = self.nprocs
        clocks = self._clocks
        current = self._current
        m = n - lo
        proc_sub = self._cols["proc"][lo:n]
        order = _argsort_procs(proc_sub, nprocs)
        counts = np.bincount(proc_sub, minlength=nprocs)
        first = np.cumsum(counts) - counts
        rank = np.empty(m, dtype=np.int64)
        rank[order] = np.arange(m, dtype=np.int64) - np.repeat(first, counts)
        counts0 = current.diagonal().copy()
        own = counts0[proc_sub] + rank + 1
        # the suffix's matched joins, in trace order
        send = self._send_of[lo:n]
        joins = np.flatnonzero(send >= 0)
        k = joins.size
        join_id = np.full(m, -1, dtype=np.int64)
        join_id[joins] = np.arange(k, dtype=np.int64)
        # segment of every row: its process's latest join at or before
        # it (a running max over the process-sorted rows, offset per
        # process so it never crosses a row boundary), else the base
        # carried in
        p_sorted = proc_sub[order].astype(np.int64)
        shift = p_sorted * (k + 1)
        latest = np.maximum.accumulate(join_id[order] + shift) - shift
        seg = np.empty(m, dtype=np.int64)
        seg[order] = np.where(latest < 0, p_sorted, nprocs + latest)
        table = np.empty((nprocs + k, nprocs), dtype=np.int64)
        table[:nprocs] = current
        s_abs = send[joins]
        in_suffix = s_abs >= lo
        s_rel = np.where(in_suffix, s_abs - lo, 0)
        s_seg = np.where(in_suffix, seg[s_rel], -1)
        cur = list(range(nprocs))  # table row of each process's base
        for t, (p, own_i, sr, q, own_s, s) in enumerate(zip(
                proc_sub[joins].tolist(), own[joins].tolist(),
                s_seg.tolist(), proc_sub[s_rel].tolist(),
                own[s_rel].tolist(), s_abs.tolist())):
            row = table[nprocs + t]
            if sr >= 0:
                # the send's clock: its segment base with its own count
                np.maximum(table[cur[p]], table[sr], out=row)
                if own_s > row[q]:
                    row[q] = own_s
            else:
                # prior-batch send: its clock row is already final
                np.maximum(table[cur[p]], clocks[s], out=row)
            row[p] = own_i
            cur[p] = nprocs + t
        # seg is in [0, len(table)) by construction; "clip" skips the
        # bounds pass, and writing straight into the matrix avoids a
        # second (n x p)-sized temporary
        table.take(seg, axis=0, mode="clip", out=clocks[lo:n])
        clocks[np.arange(lo, n), proc_sub] = own
        current[:] = table[cur]
        np.fill_diagonal(current, counts0 + counts)

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
        order = _alive(self._order)
        if order is None or order.trace is not trace:
            self._stats.miss("order")
            n = self._n
            order = CausalOrder(
                trace=trace,
                clocks=self._clocks[:n],
                index=self,
                procs=self._cols["proc"][:n],
            )
            self._order = weakref.ref(order)
        else:
            self._stats.hit("order")
        return order

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
        """An immutable Trace over the indexed rows, memoized until the
        next extension.  Creating it builds no record."""
        self._check_live()
        trace = _alive(self._trace)
        if trace is None or len(trace) != self._n:
            self._stats.miss("trace")
            self._stats.trace_snapshots += 1
            trace = Trace.over_index(IndexRows(self, None, self._n), self.nprocs, self)
            self._trace = weakref.ref(trace)
        else:
            self._stats.hit("trace")
        return trace

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


def _alive(ref: "Optional[weakref.ref]"):
    """The object behind a weak memo (None if unset or collected)."""
    return None if ref is None else ref()


def _argsort_procs(proc: np.ndarray, nprocs: int) -> np.ndarray:
    """Stable argsort of a process column (int64); a 16-bit key turns
    numpy's stable sort into a radix sort."""
    key = proc.astype(np.int16) if nprocs <= 1 << 15 else proc
    return np.argsort(key, kind="stable").astype(np.int64)


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
