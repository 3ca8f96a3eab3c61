"""Binary columnar block codec for trace-file format v3.

AIMS wrote *binary* trace files because the debugger's whole workflow --
history display, trace-graph zoom ("rescanning the appropriate portion
of the trace file", §4.3), stopline derivation -- is gated on how fast
trace history can be re-read (§2.1).  Format v3 adopts that choice: a
trace file is a sequence of self-delimiting binary *blocks*, each
holding the fixed-width record fields as contiguous little-endian
columns (decoded with ``np.frombuffer`` straight off an ``mmap``, no
per-record parsing) plus one compact JSON side table for the
variable-length payloads (source locations, ``extra`` dicts), which are
heavily repeated and therefore interned per block.

The unit of this module is the :class:`ColumnBlock`: the in-memory form
of one block, usable three ways --

* as *columns* (``block.columns["t0"]`` is a numpy array) for vectorized
  consumers: window masks, span computation, per-proc grouping;
* as *records* via :meth:`ColumnBlock.to_records`, a batch
  materializer that builds slotted records from whole columns and
  shares interned :class:`SourceLocation` objects -- the fast path
  behind the v3 decode-throughput benchmark;
* as *bytes* via :func:`encode_columns` / :func:`decode_block`, the
  on-disk form (header struct + columns + payload).

:func:`gather_window` is the one window kernel: every windowed read (a
file, a shard manifest, the paged index) hands it the blocks that may
overlap the window and gets back one block of the overlapping rows.

Block layout::

    +--------------------------------------------------+
    | header: "RTB3", count u32, col_nbytes u64,       |
    |         payload_nbytes u64          (24 bytes)   |
    +--------------------------------------------------+
    | columns, in COLUMN_SPEC order, each count wide:  |
    |   index i8 | proc i4 | kind u1 | t0 f8 | t1 f8   |
    |   marker i8 | src i4 | dst i4 | tag i4 | size i8 |
    |   seq i8 | peer_marker i8 | peer_time f8         |
    |   construct_id i4 | loc i4 | ploc i4 | extra i4  |
    +--------------------------------------------------+
    | payload: UTF-8 JSON {"locs", "plocs", "extras"}  |
    +--------------------------------------------------+

``kind`` stores a code into the *file's own* kind table (written in the
v3 header line), so files survive future ``EventKind`` reordering;
``loc``/``ploc``/``extra`` store indexes into the payload side tables
(-1 = absent for the latter two).
"""

from __future__ import annotations

import gc
import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.mp.datatypes import SourceLocation

from .events import EventKind, TraceRecord

#: magic prefix of every v3 block header
BLOCK_MAGIC = b"RTB3"
#: block header: magic, record count, columns nbytes, payload nbytes
BLOCK_HEADER = struct.Struct("<4sIQQ")

#: fixed-width columns, in on-disk order
COLUMN_SPEC: tuple[tuple[str, str], ...] = (
    ("index", "<i8"),
    ("proc", "<i4"),
    ("kind", "u1"),
    ("t0", "<f8"),
    ("t1", "<f8"),
    ("marker", "<i8"),
    ("src", "<i4"),
    ("dst", "<i4"),
    ("tag", "<i4"),
    ("size", "<i8"),
    ("seq", "<i8"),
    ("peer_marker", "<i8"),
    ("peer_time", "<f8"),
    ("construct_id", "<i4"),
    ("loc", "<i4"),
    ("ploc", "<i4"),
    ("extra", "<i4"),
)

#: the writer's kind table: EventKind -> code, in enum definition order.
#: Readers use the table recorded in the file header, never this one.
KIND_CODES: dict[EventKind, int] = {k: i for i, k in enumerate(EventKind)}
DEFAULT_KIND_TABLE: tuple[EventKind, ...] = tuple(EventKind)


class ColumnDecodeError(ValueError):
    """A block's bytes could not be decoded (bad magic, truncation,
    damaged payload)."""


def kind_table_from_values(values: Optional[Sequence[str]]) -> tuple[EventKind, ...]:
    """The code -> EventKind table recorded in a v3 header line."""
    if not values:
        return DEFAULT_KIND_TABLE
    return tuple(EventKind(v) for v in values)


def kind_code_lut(kind_table: Sequence[EventKind]) -> "np.ndarray":
    """A uint8 LUT mapping a block's local kind codes to the canonical
    :data:`KIND_CODES`; ``lut[block_codes]`` re-encodes a kind column.

    Columnar consumers (e.g. the analysis index's bulk-ingest path) use
    this when a decoded block carries a file's own kind table rather
    than the writer default.
    """
    return np.array([KIND_CODES[k] for k in kind_table], dtype=np.uint8)


@contextmanager
def _quiet_collector(burst: int) -> Iterator[None]:
    """Pause automatic cyclic garbage collection over an allocation
    burst of ``burst`` objects (the rows a record build turns into
    :class:`TraceRecord` objects).

    Without it, a burst of N tracked objects fires about
    N / ``gc.get_threshold()[0]`` young collections, every tenth of them
    a middle-generation one, each traversing the burst built so far and
    the records built before it.  Records are acyclic (a record points
    only to its interned locations, kind and ``extra`` dict), so pausing
    misses no garbage and the memory bound is unchanged.

    The pause is taken only when the burst has at least
    ``gc.get_threshold()[0]`` rows and automatic collection is on
    (enabled, threshold not 0); otherwise the collector is not touched.
    When it pauses, it collects the young generation (``gc.collect(0)``)
    before re-enabling, so that generation is settled inside the build
    and not in the caller's next operation, and it re-enables on every
    exit, an exception included.

    The collector is process-global: a thread that disables it while
    another thread's burst is in flight gets it re-enabled when that
    burst ends, and a burst that finds it already off (another burst in
    flight, or a caller that switched it off) leaves it off.
    """
    threshold = gc.get_threshold()[0]
    if not threshold or burst < threshold or not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.collect(0)
        gc.enable()


@dataclass
class ColumnBlock:
    """One decoded columnar block: numpy columns + payload side tables."""

    columns: dict[str, np.ndarray]
    locations: list[SourceLocation]
    peer_locations: list[SourceLocation]
    extras: list[dict]
    kind_table: tuple[EventKind, ...] = DEFAULT_KIND_TABLE

    def __len__(self) -> int:
        return int(self.columns["index"].shape[0])

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "ColumnBlock":
        return cls(
            columns={name: np.empty(0, dtype=dt) for name, dt in COLUMN_SPEC},
            locations=[],
            peer_locations=[],
            extras=[],
        )

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "ColumnBlock":
        """Encode a record batch into columns (the writer-side half,
        also the bridge that lets v1/v2 files feed columnar consumers)."""
        kind_codes = KIND_CODES
        loc_ids: dict[tuple[str, int, str], int] = {}
        ploc_ids: dict[tuple[str, int, str], int] = {}
        locations: list[SourceLocation] = []
        peer_locations: list[SourceLocation] = []
        extras: list[dict] = []
        rows: dict[str, list] = {name: [] for name, _ in COLUMN_SPEC}
        for rec in records:
            loc = rec.location
            lkey = (loc.filename, loc.lineno, loc.function)
            lid = loc_ids.get(lkey)
            if lid is None:
                lid = loc_ids[lkey] = len(locations)
                locations.append(loc)
            ploc = rec.peer_location
            if ploc is None:
                pid = -1
            else:
                pkey = (ploc.filename, ploc.lineno, ploc.function)
                pid = ploc_ids.get(pkey)
                if pid is None:
                    pid = ploc_ids[pkey] = len(peer_locations)
                    peer_locations.append(ploc)
            if rec.extra:
                xid = len(extras)
                extras.append(rec.extra)
            else:
                xid = -1
            rows["index"].append(rec.index)
            rows["proc"].append(rec.proc)
            rows["kind"].append(kind_codes[rec.kind])
            rows["t0"].append(rec.t0)
            rows["t1"].append(rec.t1)
            rows["marker"].append(rec.marker)
            rows["src"].append(rec.src)
            rows["dst"].append(rec.dst)
            rows["tag"].append(rec.tag)
            rows["size"].append(rec.size)
            rows["seq"].append(rec.seq)
            rows["peer_marker"].append(rec.peer_marker)
            rows["peer_time"].append(rec.peer_time)
            rows["construct_id"].append(rec.construct_id)
            rows["loc"].append(lid)
            rows["ploc"].append(pid)
            rows["extra"].append(xid)
        columns = {
            name: np.asarray(rows[name], dtype=dt) for name, dt in COLUMN_SPEC
        }
        return cls(columns, locations, peer_locations, extras)

    # ------------------------------------------------------------------
    # record materialization (the decode-throughput fast path)
    # ------------------------------------------------------------------
    def to_records(self, rows: Optional[np.ndarray] = None) -> list[TraceRecord]:
        """Materialize :class:`TraceRecord` objects in batch (of every
        row, or of the block positions ``rows``).

        ``ndarray.tolist`` converts every column in one C pass, the
        kind, location and ``extra`` ids are resolved with one list
        comprehension each, and one ``map`` over the columns calls the
        slotted record constructor positionally.  Location objects are
        the interned per-block instances; a row without ``extra`` gets a
        fresh ``{}`` of its own.  The build runs inside
        :func:`_quiet_collector`, so a burst of at least a young
        generation's worth of records is not traversed by the cyclic
        collector while it is being built.
        """
        cols = self.columns
        if rows is not None:
            cols = {name: arr[rows] for name, arr in cols.items()}
        kinds = self.kind_table
        locations = self.locations
        peer_locations = self.peer_locations
        extras = self.extras
        with _quiet_collector(len(cols["index"])):
            return list(map(
                TraceRecord,
                cols["index"].tolist(),
                cols["proc"].tolist(),
                [kinds[k] for k in cols["kind"].tolist()],
                cols["t0"].tolist(),
                cols["t1"].tolist(),
                cols["marker"].tolist(),
                [locations[i] for i in cols["loc"].tolist()],
                cols["src"].tolist(),
                cols["dst"].tolist(),
                cols["tag"].tolist(),
                cols["size"].tolist(),
                cols["seq"].tolist(),
                [peer_locations[i] if i >= 0 else None for i in cols["ploc"].tolist()],
                cols["peer_marker"].tolist(),
                cols["peer_time"].tolist(),
                cols["construct_id"].tolist(),
                [extras[i] if i >= 0 else {} for i in cols["extra"].tolist()],
            ))

    # ------------------------------------------------------------------
    # columnar operations
    # ------------------------------------------------------------------
    def filter(self, mask: np.ndarray) -> "ColumnBlock":
        """A sub-block of the rows where ``mask`` is True (also accepts
        an integer gather/reorder array).  Side tables are shared (ids
        stay valid); columns are copied by the fancy index."""
        return ColumnBlock(
            columns={name: arr[mask] for name, arr in self.columns.items()},
            locations=self.locations,
            peer_locations=self.peer_locations,
            extras=self.extras,
            kind_table=self.kind_table,
        )

    def slice(self, start: int, stop: int) -> "ColumnBlock":
        """A zero-copy sub-block of rows ``[start, stop)``: columns are
        views, side tables shared.  The chunking primitive behind bulk
        column writes (``TraceFileWriter.write_columns``)."""
        return ColumnBlock(
            columns={name: arr[start:stop] for name, arr in self.columns.items()},
            locations=self.locations,
            peer_locations=self.peer_locations,
            extras=self.extras,
            kind_table=self.kind_table,
        )

    def window_mask(
        self,
        t_lo: float,
        t_hi: float,
        procs: Optional[set[int]] = None,
    ) -> np.ndarray:
        """Boolean mask of records overlapping [t_lo, t_hi] (and procs),
        with the same inclusive-boundary semantics as ``seek_window``."""
        cols = self.columns
        mask = (cols["t1"] >= t_lo) & (cols["t0"] <= t_hi)
        if procs is not None:
            mask &= np.isin(cols["proc"], np.fromiter(procs, dtype=np.int64, count=len(procs)))
        return mask

    # ------------------------------------------------------------------
    # block summaries (index building, CLI info)
    # ------------------------------------------------------------------
    @property
    def t_min(self) -> float:
        """Earliest t0 or t1 (a record may end before it starts)."""
        if not len(self):
            return 0.0
        return float(min(self.columns["t0"].min(), self.columns["t1"].min()))

    @property
    def t_max(self) -> float:
        """Latest t0 or t1."""
        if not len(self):
            return 0.0
        return float(max(self.columns["t0"].max(), self.columns["t1"].max()))

    @property
    def procs(self) -> frozenset[int]:
        return frozenset(np.unique(self.columns["proc"]).tolist())


#: side-table id columns and the tables they index
_SIDE_TABLES = (("loc", "locations"), ("ploc", "peer_locations"), ("extra", "extras"))


def gather_window(
    blocks: Iterable[ColumnBlock],
    t_lo: Optional[float] = None,
    t_hi: Optional[float] = None,
    procs: Optional[set[int]] = None,
) -> ColumnBlock:
    """The rows of ``blocks`` overlapping ``[t_lo, t_hi]`` (and ``procs``)
    as one block in record ``index`` order: the kernel behind every
    windowed read of a file, a shard manifest or the paged index.

    With no bounds and no proc filter every row is kept.  Each block is
    masked once (:meth:`ColumnBlock.window_mask`).  Each column then
    concatenates, per kept block, the row range spanning its kept rows
    (a time window's rows are nearly contiguous, so this copies little
    even from large blocks) and gathers the kept rows in one take; the
    location, peer-location and ``extra`` ids are rebased onto the
    merged side tables with one ``np.where`` per column.  Rows are
    reordered (a stable argsort of the ``index`` column) only when the
    blocks interleave, as the blocks of several shards do.  A single
    block kept whole and in order is returned as is, its columns still
    zero-copy views.
    """
    windowed = t_lo is not None or t_hi is not None or procs is not None
    lo = -np.inf if t_lo is None else t_lo
    hi = np.inf if t_hi is None else t_hi
    kept: list[ColumnBlock] = []
    #: per kept block, the row range spanning its kept rows
    spans: list[slice] = []
    #: per kept block, its kept rows' positions in the spans' concatenation
    picks: list[np.ndarray] = []
    whole = True  # every row of every span is kept
    offset = 0
    for block in blocks:
        if windowed:
            mask = block.window_mask(lo, hi, procs)
            pos = np.flatnonzero(mask)
            if not pos.size:
                continue
            start, stop = int(pos[0]), int(pos[-1]) + 1
            whole = whole and pos.size == stop - start
            picks.append(pos + (offset - start))
        elif len(block):
            start, stop = 0, len(block)
        else:
            continue
        kept.append(block)
        spans.append(slice(start, stop))
        offset += stop - start
    if not kept:
        return ColumnBlock.empty()

    def column(name: str) -> np.ndarray:
        if len(kept) == 1:
            return kept[0].columns[name][spans[0]]
        return np.concatenate([b.columns[name][s] for b, s in zip(kept, spans)])

    rows = None if whole else np.concatenate(picks)
    spanned_index = column("index")
    index = spanned_index if rows is None else spanned_index[rows]
    if index.size > 1 and bool((index[1:] < index[:-1]).any()):
        order = np.argsort(index, kind="stable")
        rows = order if rows is None else rows[order]
    first = kept[0]
    if len(kept) == 1 and rows is None and len(index) == len(first):
        return first
    columns = {}
    for name, _ in COLUMN_SPEC:
        col = spanned_index if name == "index" else column(name)
        columns[name] = col if rows is None else col[rows]
    if len(kept) == 1:
        return ColumnBlock(
            columns, first.locations, first.peer_locations, first.extras,
            first.kind_table,
        )
    owner = np.repeat(
        np.arange(len(kept), dtype=np.int32), [s.stop - s.start for s in spans]
    )
    if rows is not None:
        owner = owner[rows]
    for name, table in _SIDE_TABLES:
        sizes = [len(getattr(b, table)) for b in kept[:-1]]
        if any(sizes):
            base = np.cumsum([0] + sizes, dtype=np.int32)[owner]
            col = columns[name]
            columns[name] = np.where(col >= 0, col + base, col)
    return ColumnBlock(
        columns,
        [x for b in kept for x in b.locations],
        [x for b in kept for x in b.peer_locations],
        [x for b in kept for x in b.extras],
        first.kind_table,
    )


# ----------------------------------------------------------------------
# on-disk form
# ----------------------------------------------------------------------
def _compact_side_column(
    col: np.ndarray, table: Sequence
) -> tuple[np.ndarray, list]:
    """Rebase a side-table id column onto a table holding only the
    entries the column references (-1 ids pass through).

    A sliced/filtered block shares its parent's side tables, so its id
    columns may reference entries no row of the slice uses; serializing
    the full parent table per chunk would duplicate it across every
    block of a bulk write.
    """
    if col.size == 0 or not table:
        return col, []
    used = np.unique(col)
    used = used[used >= 0]
    if used.size == len(table) and (
        used.size == 0 or int(used[-1]) == len(table) - 1
    ):
        return col, list(table)  # already dense and fully referenced
    remap = np.full(len(table), -1, dtype=col.dtype)
    remap[used] = np.arange(used.size, dtype=col.dtype)
    out = np.where(col >= 0, remap[np.minimum(np.maximum(col, 0), len(table) - 1)], col)
    return out.astype(col.dtype, copy=False), [table[int(i)] for i in used.tolist()]


def encode_columns(block: ColumnBlock) -> bytes:
    """One :class:`ColumnBlock` -> one self-delimiting binary block.

    Every v3 writer goes through here: the record path encodes
    ``ColumnBlock.from_records(chunk)``, and bulk writers
    (``TraceFileWriter.write_columns``, shard re-encoding, format
    conversion) feed decoded or synthesized blocks straight back to
    disk without materializing record objects.  Kind codes carried
    under a foreign (file) kind table are re-encoded to the writer
    table; side tables are compacted to the entries the block's rows
    actually reference, so sliced blocks don't serialize their parent's
    whole table.
    """
    count = len(block)
    cols = dict(block.columns)
    if block.kind_table != DEFAULT_KIND_TABLE:
        cols["kind"] = kind_code_lut(block.kind_table)[cols["kind"]]
    loc_col, locations = _compact_side_column(cols["loc"], block.locations)
    ploc_col, peer_locations = _compact_side_column(
        cols["ploc"], block.peer_locations
    )
    extra_col, extras = _compact_side_column(cols["extra"], block.extras)
    cols["loc"], cols["ploc"], cols["extra"] = loc_col, ploc_col, extra_col
    col_bytes = b"".join(
        np.ascontiguousarray(cols[name], dtype=dt).tobytes()
        for name, dt in COLUMN_SPEC
    )
    payload = json.dumps(
        {
            "locs": [[l.filename, l.lineno, l.function] for l in locations],
            "plocs": [
                [l.filename, l.lineno, l.function] for l in peer_locations
            ],
            "extras": extras,
        },
        ensure_ascii=False,
        separators=(",", ":"),
    ).encode("utf-8")
    header = BLOCK_HEADER.pack(BLOCK_MAGIC, count, len(col_bytes), len(payload))
    return header + col_bytes + payload


def peek_block(buf, offset: int) -> tuple[int, int]:
    """(record count, total block nbytes) of the block at ``offset``,
    reading only its header.  Raises :class:`ColumnDecodeError` on bad
    magic or a header extending past the buffer."""
    if offset + BLOCK_HEADER.size > len(buf):
        raise ColumnDecodeError("truncated block header")
    magic, count, col_nbytes, payload_nbytes = BLOCK_HEADER.unpack_from(buf, offset)
    if magic != BLOCK_MAGIC:
        raise ColumnDecodeError(f"bad block magic {magic!r}")
    return count, BLOCK_HEADER.size + col_nbytes + payload_nbytes


def decode_block(
    buf,
    offset: int,
    kind_table: tuple[EventKind, ...] = DEFAULT_KIND_TABLE,
) -> tuple[ColumnBlock, int]:
    """Decode the block at ``offset`` of ``buf`` (bytes or mmap).

    Fixed-width columns become zero-copy ``np.frombuffer`` views of
    ``buf``; only the payload side table goes through ``json.loads``
    (once per block, not per record).  Returns (block, end offset).
    """
    count, total = peek_block(buf, offset)
    if offset + total > len(buf):
        raise ColumnDecodeError("truncated block body")
    _, _, col_nbytes, payload_nbytes = BLOCK_HEADER.unpack_from(buf, offset)
    pos = offset + BLOCK_HEADER.size
    columns: dict[str, np.ndarray] = {}
    for name, dt in COLUMN_SPEC:
        arr = np.frombuffer(buf, dtype=dt, count=count, offset=pos)
        columns[name] = arr
        pos += arr.nbytes
    if pos != offset + BLOCK_HEADER.size + col_nbytes:
        raise ColumnDecodeError("column section length mismatch")
    payload_raw = bytes(buf[pos : pos + payload_nbytes])
    try:
        payload = json.loads(payload_raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ColumnDecodeError(f"damaged block payload: {exc}") from exc
    block = ColumnBlock(
        columns=columns,
        locations=[SourceLocation(f, n, fn) for f, n, fn in payload["locs"]],
        peer_locations=[SourceLocation(f, n, fn) for f, n, fn in payload["plocs"]],
        extras=payload["extras"],
        kind_table=kind_table,
    )
    return block, offset + total


__all__: list[str] = [
    "BLOCK_HEADER",
    "BLOCK_MAGIC",
    "COLUMN_SPEC",
    "ColumnBlock",
    "ColumnDecodeError",
    "DEFAULT_KIND_TABLE",
    "KIND_CODES",
    "decode_block",
    "encode_columns",
    "gather_window",
    "kind_code_lut",
    "kind_table_from_values",
    "peek_block",
]
