"""Trace files: persistent execution histories.

The AIMS toolkit wrote binary trace files for post-mortem analysis; the
paper had to add "a monitor function that flushes trace information on
demand" so p2d2 could read history *during* execution (Section 2.1).
This module reproduces that shape:

* :class:`TraceFileWriter` appends trace records with explicit
  :meth:`flush` (the on-demand flush) and an optional auto-flush
  threshold;
* :class:`TraceFileReader` reads whole files, streams records, loads
  whole columns, or seeks straight to a time window / process subset
  without scanning everything -- the access pattern the trace-graph
  zoom reconstruction (Section 4.3 "rescanning the appropriate portion
  of the trace file") and the VK animated window need.

The writer produces format v3: a JSON header line, binary *columnar*
blocks (see :mod:`repro.trace.columnar`: fixed-width little-endian
columns decoded as zero-copy numpy views of an ``mmap``, plus one
interned JSON side table per block for variable-length payloads), and,
when the writer is closed cleanly, a JSON *index footer* as the final
line: ``{"__trace_index__": {"blocks": [...], ...}}``.  Each block entry
is ``[offset, nbytes, count, t_min, t_max, procs, encoding]`` (plus the
raw size of a compressed block); ``t_min``/``t_max`` are the min and max
over both t0 and t1, since a record may end before it starts.  The
footer lets :meth:`TraceFileReader.seek_window` read only the blocks
overlapping the requested window instead of the whole file.

The reader also reads the two older formats, which nothing writes any
more: v1 (the header line, then one JSON record per line, see
``TraceRecord.to_jsonable``) and v2 (v1 plus an index footer whose
six-element entries are byte ranges of record lines, encoding
``"jsonl"``; older footers keep the ``(min t0, max t1)`` span they were
written with).

Every window read -- :meth:`TraceFileReader.read_columns`,
:meth:`~TraceFileReader.seek_window`, the paged index, the window
diagrams -- takes one path on every format version: a block source
yields the blocks that may overlap the window, and
:func:`~repro.trace.columnar.gather_window` masks them and gathers the
kept rows in record order.  The source is the footer-selected blocks of
an indexed file (a v2 ``"jsonl"`` entry is a byte range of record
lines, parsed into one block), or a linear walk of every block when the
file has no footer (v1, or a writer that crashed before close; v1/v2
lines are parsed in chunks), or each overlapping shard of a manifest.
Damage a linear walk meets (a torn final line or block) is skipped by
a tolerant read and counted in ``last_skipped_lines``.

``python -m repro.trace.tracefile`` offers ``info``, ``convert`` (any
file or manifest to v3, optionally compressed or sharded) and
``reindex`` (rebuild a missing v3 footer in place, recovering a
crashed-writer file from the slow path).
"""

from __future__ import annotations

import argparse
import json
import math
import mmap
import os
import sys
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union

from .columnar import (
    ColumnBlock,
    ColumnDecodeError,
    decode_block,
    encode_columns,
    gather_window,
    kind_table_from_values,
)
from .compression import (
    CODECS,
    CODECS_BY_CODE,
    CODECS_BY_ENCODING,
    COMPRESSED_HEADER,
    KNOWN_ENCODINGS,
    Codec,
    compress_frame,
    decompress_frame,
    is_compressed_at,
    resolve_codec,
)
from .events import EventKind, TraceRecord
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover - shard imports this module lazily
    from .shard import TraceShardWriter

FORMAT_NAME = "repro-trace"
#: header format tag of a shard manifest (see :mod:`repro.trace.shard`)
MANIFEST_FORMAT_NAME = "repro-trace-manifest"
FORMAT_VERSION = 3
#: versions this reader understands
SUPPORTED_VERSIONS = frozenset({1, 2, 3})
#: key marking the index footer line (v2 and v3)
INDEX_KEY = "__trace_index__"
#: records per index block (granularity of window reads: the footer
#: selects whole blocks; in v3 also the records per columnar block)
DEFAULT_INDEX_BLOCK = 512


class TraceFileError(Exception):
    """Malformed or mismatched trace file."""


@dataclass(frozen=True)
class IndexBlock:
    """One contiguous run of records summarized in the footer.

    ``encoding`` records how the byte range is encoded: ``"jsonl"``
    (v1/v2 record lines), ``"columnar"`` (a raw v3 binary block), or
    ``"columnar+<codec>"`` (a v3 block compressed per-block, e.g.
    ``"columnar+zstd"`` / ``"columnar+zlib"``).  For compressed blocks
    ``raw_nbytes`` additionally records the decompressed block size --
    the observability hook behind the CLI's compression-ratio report.
    """

    offset: int
    nbytes: int
    count: int
    t_min: float
    t_max: float
    procs: frozenset[int]
    encoding: str = "jsonl"
    raw_nbytes: Optional[int] = None

    @classmethod
    def of(
        cls,
        block: ColumnBlock,
        offset: int,
        nbytes: int,
        encoding: str,
        raw_nbytes: Optional[int],
    ) -> "IndexBlock":
        """The footer entry of ``block``, stored at ``offset``."""
        return cls(
            offset, nbytes, len(block), block.t_min, block.t_max,
            block.procs, encoding, raw_nbytes,
        )

    def overlaps(
        self, t_lo: float, t_hi: float, procs: Optional[set[int]]
    ) -> bool:
        if t_lo > t_hi:
            return False  # empty window overlaps nothing
        if procs is not None and not procs:
            return False  # empty proc filter selects nothing
        if self.t_max < t_lo or self.t_min > t_hi:
            return False
        return procs is None or bool(self.procs & procs)

    def to_jsonable(self) -> list:
        out = [
            self.offset,
            self.nbytes,
            self.count,
            self.t_min,
            self.t_max,
            sorted(self.procs),
        ]
        if self.encoding != "jsonl":
            out.append(self.encoding)
            if self.raw_nbytes is not None:
                out.append(self.raw_nbytes)
        return out

    @classmethod
    def from_jsonable(cls, data: list) -> "IndexBlock":
        off, nbytes, count, t_min, t_max, procs, *rest = data
        encoding = rest[0] if rest else "jsonl"
        raw_nbytes = rest[1] if len(rest) > 1 else None
        return cls(
            off, nbytes, count, t_min, t_max, frozenset(procs), encoding,
            raw_nbytes,
        )


@dataclass(frozen=True)
class BlockRef:
    """A pointer to one on-disk block: ``(shard id or None, entry)``.

    The unit the out-of-core index pages on; hashable so it can key a
    block cache."""

    shard: Optional[int]
    entry: IndexBlock


@dataclass(frozen=True)
class TraceIndex:
    """The footer: per-block byte offsets + whole-file aggregates."""

    blocks: tuple[IndexBlock, ...]
    records: int
    t_min: float
    t_max: float

    @classmethod
    def of(cls, blocks: Iterable[IndexBlock]) -> "TraceIndex":
        """The footer over ``blocks``; an empty file spans ``(0, 0)``."""
        blocks = tuple(blocks)
        return cls(
            blocks,
            sum(b.count for b in blocks),
            min((b.t_min for b in blocks), default=0.0),
            max((b.t_max for b in blocks), default=0.0),
        )

    def select(
        self,
        t_lo: float,
        t_hi: float,
        procs: Optional[set[int]] = None,
    ) -> list[IndexBlock]:
        """Blocks that may hold records overlapping the window."""
        return [b for b in self.blocks if b.overlaps(t_lo, t_hi, procs)]

    def to_jsonable(self) -> dict:
        return {
            INDEX_KEY: {
                "blocks": [b.to_jsonable() for b in self.blocks],
                "records": self.records,
                "span": [self.t_min, self.t_max],
            }
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "TraceIndex":
        body = data[INDEX_KEY]
        blocks = tuple(IndexBlock.from_jsonable(b) for b in body["blocks"])
        span = body.get("span", [0.0, 0.0])
        return cls(blocks, body.get("records", 0), span[0], span[1])


class TraceFileWriter:
    """Appends trace records to a v3 file, flushing on demand.

    The writer holds one persistent append handle for its lifetime (no
    per-flush reopen); :meth:`flush` pushes buffered records through the
    OS so a concurrent reader sees them.  ``durable=True`` additionally
    ``fsync``\\ s on every flush -- crash-durability at a heavy cost, off
    by default since the on-demand-flush semantics only require reader
    visibility.

    Records are buffered as objects and encoded into columnar blocks of
    up to ``index_block`` records at each flush; each flushed block
    becomes one index-footer entry.  v1 and v2 files are read, never
    written (``convert`` rewrites them as v3).

    Parameters
    ----------
    path:
        Destination file (created/truncated).
    nprocs:
        Communicator size recorded in the header.
    auto_flush_every:
        Flush after this many buffered records (None = only explicit
        flushes and close).
    durable:
        fsync on every flush (opt-in).
    index_block:
        Records per columnar block (and per index-footer entry).
    compression:
        Per-block compression: ``None``/``"none"`` (the default -- bytes
        identical to pre-compression writers), ``"auto"`` (zstd when
        available, else zlib), or an explicit codec name
        (``"zstd"``/``"zlib"``; raises when unavailable).  Readers pick
        the codec per block from the on-disk frame, so compressed and
        raw blocks coexist in one file.
    """

    def __init__(
        self,
        path: Union[str, Path],
        nprocs: int,
        auto_flush_every: Optional[int] = None,
        *,
        durable: bool = False,
        index_block: int = DEFAULT_INDEX_BLOCK,
        compression: Union[None, bool, str, Codec] = None,
    ) -> None:
        if index_block < 1:
            raise ValueError(f"index_block must be >= 1, got {index_block}")
        try:
            self._codec = resolve_codec(compression)
        except LookupError as exc:
            raise TraceFileError(str(exc)) from None
        self.path = Path(path)
        self.nprocs = nprocs
        self.auto_flush_every = auto_flush_every
        self.durable = durable
        self.index_block = index_block
        #: buffered records awaiting block encoding at flush
        self._buffer: list[TraceRecord] = []
        #: per-block footer entries, built as blocks are flushed
        self._blocks: list[IndexBlock] = []
        self._written = 0
        self._closed = False
        self._fh = self.path.open("wb")
        # the file's own kind table: block kind codes index into it, so
        # files survive future EventKind reordering
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "nprocs": nprocs,
            "kinds": [k.value for k in EventKind],
        }
        self._fh.write(json.dumps(header).encode("ascii") + b"\n")
        self._fh.flush()
        self._offset = self._fh.tell()

    # ------------------------------------------------------------------
    def write(self, record: TraceRecord) -> None:
        """Buffer one record (written at the next flush)."""
        if self._closed:
            raise TraceFileError(f"writer for {self.path} is closed")
        self._buffer.append(record)
        if (
            self.auto_flush_every is not None
            and len(self._buffer) >= self.auto_flush_every
        ):
            self.flush()

    def flush(self) -> int:
        """Encode buffered records into columnar blocks and write them;
        returns how many were written.

        This is the "flush trace information on demand" hook the paper
        added to the AIMS monitor so the debugger could consume history
        mid-execution.  Each flush emits whole blocks of up to
        ``index_block`` records, so a concurrent reader always sees
        complete, decodable blocks.  On an encoding error mid-flush the
        already-written chunks stay accounted (and indexed); unwritten
        records stay buffered.
        """
        buf = self._buffer
        if not buf:
            return 0
        flushed = 0
        try:
            for start in range(0, len(buf), self.index_block):
                chunk = buf[start : start + self.index_block]
                self._append_block(ColumnBlock.from_records(chunk))
                flushed += len(chunk)
        finally:
            if flushed:
                del buf[:flushed]
                self._written += flushed
            self._sync()
        return flushed

    def _append_block(self, block: ColumnBlock) -> None:
        """Encode and write one block (compressing when configured) and
        record its footer entry."""
        raw = encode_columns(block)
        if self._codec is not None:
            data = compress_frame(raw, self._codec)
            encoding = self._codec.encoding
            raw_nbytes: Optional[int] = len(raw)
        else:
            data = raw
            encoding = "columnar"
            raw_nbytes = None
        offset = self._offset
        self._fh.write(data)
        self._offset += len(data)
        self._blocks.append(
            IndexBlock.of(block, offset, len(data), encoding, raw_nbytes)
        )

    def _sync(self) -> None:
        self._fh.flush()
        if self.durable:
            os.fsync(self._fh.fileno())

    def write_columns(self, block: ColumnBlock) -> int:
        """Bulk-append a decoded/synthesized :class:`ColumnBlock`.

        The write-side twin of :meth:`TraceFileReader.read_columns`:
        rows go to disk in ``index_block``-sized blocks encoded
        directly from the column arrays (no record materialization),
        which is what makes writing 10M+-event traces tractable.  Any
        buffered per-record writes are flushed first so on-disk order
        matches emit order.  Record ``index`` values are written as
        carried by the block (bulk sources are expected to supply the
        global recording order).  Returns the number of records
        written.
        """
        if self._closed:
            raise TraceFileError(f"writer for {self.path} is closed")
        n = len(block)
        if n == 0:
            return 0
        self.flush()
        try:
            for start in range(0, n, self.index_block):
                stop = min(start + self.index_block, n)
                self._append_block(block.slice(start, stop))
                self._written += stop - start
        finally:
            self._sync()
        return n

    # ------------------------------------------------------------------
    def _build_index(self) -> TraceIndex:
        return TraceIndex.of(self._blocks)

    def close(self) -> None:
        """Flush and finalize.  The index footer is written even when
        the final flush fails (it then covers the records actually on
        disk), so a file closed through an exception -- e.g. a ``with``
        body that raised -- never loses its index."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            try:
                self._fh.write(_footer_line(self._build_index()))
                self._sync()
            finally:
                self._fh.close()
                self._closed = True

    @property
    def records_written(self) -> int:
        return self._written

    def __enter__(self) -> "TraceFileWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _footer_line(index: TraceIndex) -> bytes:
    """A v3 footer line.  The leading newline separates it from the
    final binary block, whatever bytes that ends with."""
    return b"\n" + json.dumps(index.to_jsonable()).encode("ascii") + b"\n"


class TraceFileReader:
    """Reads trace files written by :class:`TraceFileWriter`.

    Attributes
    ----------
    skipped_lines:
        Malformed lines (v1/v2) or damaged/truncated block regions (v3)
        skipped by tolerant reads, *cumulative* across every read this
        reader performed (a rising count across polls of a live file
        means flushes are getting truncated).
    last_skipped_lines:
        Damage skipped by the most recent read only.
    bytes_read:
        Record bytes this reader pulled off disk, cumulative -- the
        observable that indexed seeks beat linear scans.
    index:
        The footer index, or None (v1 file, or v2/v3 not closed
        cleanly) -- in which case every access uses the linear path.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        with self.path.open("rb") as fh:
            header_line = fh.readline()
            self._data_offset = fh.tell()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TraceFileError(f"{self.path}: bad header: {exc}") from exc
        self.skipped_lines = 0
        self.last_skipped_lines = 0
        self.bytes_read = 0
        self._mapping: Optional[tuple[tuple, Union[bytes, mmap.mmap]]] = None
        #: sharded fan-out state when ``path`` is a shard manifest
        self._shards = None
        if isinstance(header, dict) and header.get("format") == (
            MANIFEST_FORMAT_NAME
        ):
            # manifest-aware mode: this "file" is a shard manifest; all
            # record access fans out across the shard files (opened
            # lazily) with an ordered merge on the global record index.
            from .shard import ShardSet

            self._shards = ShardSet(self.path, header)
            self.version = FORMAT_VERSION
            self.nprocs = self._shards.manifest.nprocs
            self._kind_table = kind_table_from_values(
                self._shards.manifest.kinds
            )
            self.index = None
            return
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            got = header.get("format") if isinstance(header, dict) else header
            raise TraceFileError(
                f"{self.path}: not a {FORMAT_NAME} file (got {got!r})"
            )
        if header.get("version") not in SUPPORTED_VERSIONS:
            raise TraceFileError(
                f"{self.path}: unsupported version {header.get('version')!r}"
            )
        self.version: int = header["version"]
        self.nprocs: int = header["nprocs"]
        self._kind_table = kind_table_from_values(header.get("kinds"))
        self.index: Optional[TraceIndex] = (
            self._load_index() if self.version >= 2 else None
        )

    @property
    def sharded(self) -> bool:
        """Whether this reader fronts a shard manifest."""
        return self._shards is not None

    @property
    def manifest(self):
        """The :class:`~repro.trace.shard.ShardManifest`, or None."""
        return self._shards.manifest if self._shards is not None else None

    @property
    def shards_opened(self) -> int:
        """How many shard files this reader has actually opened -- the
        observable behind the fan-out short-circuit guarantees (a
        window that excludes a shard must not open it)."""
        return self._shards.opened if self._shards is not None else 0

    def _sync_shard_counters(self) -> None:
        self.bytes_read = self._shards.bytes_read
        self.skipped_lines = self._shards.skipped_lines
        self.last_skipped_lines = self._shards.last_skipped_lines

    # ------------------------------------------------------------------
    # index loading
    # ------------------------------------------------------------------
    def _load_index(self) -> Optional[TraceIndex]:
        """The footer index, if the file's final line is one (read off
        the mapping, without scanning the file)."""
        buf = self._map()
        end = len(buf) - 1 if buf[-1:] == b"\n" else len(buf)
        if end <= self._data_offset:
            return None
        last = bytes(buf[buf.rfind(b"\n", 0, end) + 1 : end])
        if not last or not last.lstrip().startswith(b'{"' + INDEX_KEY.encode()):
            return None
        try:
            data = json.loads(last)
        except json.JSONDecodeError:
            return None
        if not isinstance(data, dict) or INDEX_KEY not in data:
            return None
        try:
            return TraceIndex.from_jsonable(data)
        except (KeyError, IndexError, TypeError, ValueError):
            return None

    @property
    def has_index(self) -> bool:
        return self.index is not None or self._shards is not None

    def span(self) -> tuple[float, float]:
        """(min, max) over every t0 and t1; indexed files answer from
        the footer without a scan."""
        if self._shards is not None:
            return self._shards.manifest.span
        if self.index is not None:
            return (self.index.t_min, self.index.t_max)
        _, _, t_min, t_max = self._scan()
        return (t_min, t_max)

    def _scan(self) -> tuple[int, int, float, float]:
        """``(records, blocks, t_min, t_max)`` of one tolerant linear
        walk: a footerless file's span and ``info`` report.  The span
        is ``(0, 0)`` when no record survives."""
        self.last_skipped_lines = 0
        count = blocks = 0
        t_min, t_max = math.inf, -math.inf
        for block in self._linear_blocks(tolerant=True):
            blocks += 1
            if len(block):
                count += len(block)
                t_min = min(t_min, block.t_min)
                t_max = max(t_max, block.t_max)
        return (count, blocks, t_min, t_max) if count else (0, blocks, 0.0, 0.0)

    # ------------------------------------------------------------------
    # v3 block access
    # ------------------------------------------------------------------
    def _map(self) -> Union[bytes, mmap.mmap]:
        """A read-only mapping of the whole file, kept until ``os.stat``
        reports another inode, size or mtime (a live file grew, or was
        reindexed or rewritten in place: a stale mapping read past the
        file's end dies by SIGBUS).  Never explicitly closed: decoded
        columns are zero-copy views of the mapping."""
        st = os.stat(self.path)
        key = (st.st_ino, st.st_size, st.st_mtime_ns)
        if self._mapping is None or self._mapping[0] != key:
            with self.path.open("rb") as fh:
                buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if st.st_size else b""
            self._mapping = (key, buf)
        return self._mapping[1]

    def _damage(self, tolerant: bool, why: str) -> None:
        if not tolerant:
            raise TraceFileError(f"{self.path}: malformed record data: {why}")
        self.skipped_lines += 1
        self.last_skipped_lines += 1

    def _iter_v3_blocks(
        self, tolerant: bool
    ) -> Iterator[tuple[int, int, ColumnBlock]]:
        """Walk the file's columnar blocks linearly, yielding
        ``(offset, nbytes, block)``.  The footer line is skipped; any
        other undecodable region stops the walk (counted as damage when
        tolerant, raised otherwise) -- the crashed-writer / torn-flush
        path."""
        buf = self._map()
        size = len(buf)
        offset = self._data_offset
        footer_prefix = b'{"' + INDEX_KEY.encode()
        while offset < size:
            if buf[offset : offset + 1] == b"\n":
                end = buf.find(b"\n", offset + 1)
                stop = size if end == -1 else end
                line = bytes(buf[offset + 1 : stop])
                if line.lstrip().startswith(footer_prefix):
                    # the linear walk does read these bytes; count them
                    self.bytes_read += stop + 1 - offset
                    offset = stop + 1
                    continue
                self._damage(tolerant, "unexpected text between blocks")
                return
            try:
                if is_compressed_at(buf, offset):
                    raw, frame_nbytes, _ = decompress_frame(buf, offset)
                    block, _ = decode_block(raw, 0, self._kind_table)
                    nxt = offset + frame_nbytes
                else:
                    block, nxt = decode_block(buf, offset, self._kind_table)
            except ColumnDecodeError as exc:
                self._damage(tolerant, str(exc))
                return
            self.bytes_read += nxt - offset
            yield offset, nxt - offset, block
            offset = nxt

    def _decode_index_blocks(
        self, entries: Sequence[IndexBlock], tolerant: bool
    ) -> list[ColumnBlock]:
        """Decode footer-selected blocks, in file order.  A ``"jsonl"``
        entry (v2) is a byte range of record lines, parsed into one
        block; damaged lines in it are skipped when ``tolerant``."""
        if not entries:
            return []
        buf = self._map()
        kind_table = self._kind_table
        self.bytes_read += sum(b.nbytes for b in entries)

        out: list[ColumnBlock] = []
        for entry in entries:
            if entry.encoding not in KNOWN_ENCODINGS:
                raise TraceFileError(
                    f"{self.path}: block at offset {entry.offset} has "
                    f"unknown encoding {entry.encoding!r}; this file was "
                    "written by a newer version of the format"
                )
            if entry.encoding == "jsonl":
                lines = buf[entry.offset : entry.offset + entry.nbytes]
                records = (
                    self._parse_line(line, tolerant)
                    for line in lines.splitlines()
                    if line.strip()
                )
                out.append(ColumnBlock.from_records(
                    [rec for rec in records if rec is not None]
                ))
                continue
            try:
                if entry.encoding in CODECS_BY_ENCODING or is_compressed_at(
                    buf, entry.offset
                ):
                    raw, _, _ = decompress_frame(buf, entry.offset)
                    block = decode_block(raw, 0, kind_table)[0]
                else:
                    block = decode_block(buf, entry.offset, kind_table)[0]
            except ColumnDecodeError as exc:
                raise TraceFileError(
                    f"{self.path}: malformed record data in indexed block "
                    f"at offset {entry.offset}: {exc}"
                ) from exc
            out.append(block)
        return out

    def _linear_blocks(self, tolerant: bool) -> Iterator[ColumnBlock]:
        """Every block of a linear walk: the v3 columnar blocks, or
        v1/v2 record lines parsed in chunks of ``DEFAULT_INDEX_BLOCK``."""
        if self.version >= 3:
            return (block for _, _, block in self._iter_v3_blocks(tolerant))
        records = self.iter_records(tolerant=tolerant)
        return map(
            ColumnBlock.from_records,
            iter(lambda: list(islice(records, DEFAULT_INDEX_BLOCK)), []),
        )

    def _blocks(
        self,
        t_lo: float,
        t_hi: float,
        procs: Optional[set[int]],
        tolerant: bool,
        use_index: bool,
    ) -> Iterable[ColumnBlock]:
        """The blocks a window read masks: those the footer selects, or
        every block of the linear walk (no footer, or ``use_index``
        off)."""
        if self.index is None or not use_index:
            return self._linear_blocks(tolerant)
        return self._decode_index_blocks(
            self.index.select(t_lo, t_hi, procs), tolerant
        )

    # ------------------------------------------------------------------
    # block-granular access (the out-of-core paging substrate)
    # ------------------------------------------------------------------
    def block_entries(self) -> list["BlockRef"]:
        """Every indexed block, in global record order, as
        ``(shard, entry)`` references.

        The planning substrate for :class:`~repro.analysis.paged.
        OutOfCoreIndex`: block metadata (span, procs, count) without
        touching any record bytes.  Single files list ``shard=None``;
        manifests list each shard's footer entries.  Requires an index
        (raises for footerless files -- run ``reindex`` first).
        """
        if self._shards is not None:
            return self._shards.block_entries()
        if self.index is None:
            raise TraceFileError(
                f"{self.path}: block-granular access needs an index "
                "footer; run `python -m repro.trace.tracefile reindex` "
                "to rebuild it (or `convert` a v1/v2 file to v3)"
            )
        return [BlockRef(None, entry) for entry in self.index.blocks]

    def load_block(self, ref: "BlockRef") -> ColumnBlock:
        """Decode the single block ``ref`` points at (paging in one
        block's columns, nothing else)."""
        if self._shards is not None:
            block = self._shards.load_block(ref)
            self._sync_shard_counters()
            return block
        return self._decode_index_blocks([ref.entry], tolerant=True)[0]

    # ------------------------------------------------------------------
    # linear streaming
    # ------------------------------------------------------------------
    def _parse_line(
        self, line: Union[str, bytes], tolerant: bool
    ) -> Optional[TraceRecord]:
        """One line -> record; None for footers and tolerated damage."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            if tolerant:
                self.skipped_lines += 1
                self.last_skipped_lines += 1
                return None
            raise TraceFileError(
                f"{self.path}: malformed record line: {exc}"
            ) from exc
        if isinstance(data, dict) and INDEX_KEY in data:
            return None  # the footer is not a record
        try:
            return TraceRecord.from_jsonable(data)
        except (KeyError, ValueError, TypeError) as exc:
            if tolerant:
                self.skipped_lines += 1
                self.last_skipped_lines += 1
                return None
            raise TraceFileError(
                f"{self.path}: malformed record line: {exc}"
            ) from exc

    def iter_records(
        self,
        where: Optional[Callable[[TraceRecord], bool]] = None,
        tolerant: bool = False,
    ) -> Iterator[TraceRecord]:
        """Stream records, optionally filtered, without loading the file.

        ``tolerant`` skips malformed lines/blocks instead of raising --
        the right mode for a trace file whose tail was cut off by a
        crash of the traced program (the post-mortem case of §4.1 is
        exactly when that happens).  Skipped damage accumulates in
        :attr:`skipped_lines`; :attr:`last_skipped_lines` holds this
        read's count alone.
        """
        self.last_skipped_lines = 0
        if self._shards is not None:
            yield from self._shards.iter_records(where, tolerant)
            self._sync_shard_counters()
            return
        if self.version >= 3:
            for _, _, block in self._iter_v3_blocks(tolerant):
                for rec in block.to_records():
                    if where is None or where(rec):
                        yield rec
            return
        with self.path.open() as fh:
            fh.readline()  # header
            for raw in fh:
                self.bytes_read += len(raw)
                line = raw.strip()
                if not line:
                    continue
                rec = self._parse_line(line, tolerant)
                if rec is not None and (where is None or where(rec)):
                    yield rec

    def read_all(self, tolerant: bool = False) -> list[TraceRecord]:
        """Every record in the file, as a list in record order: the
        whole-file :meth:`read_columns`, materialized (strict unless
        ``tolerant``).  A shard manifest reads every shard, so the result
        is record-for-record identical to the single-file layout."""
        return self._window(None, None, None, tolerant, True).to_records()

    def read(self, tolerant: bool = False) -> Trace:
        """Load the whole file into a :class:`Trace`."""
        return Trace(self.read_all(tolerant=tolerant), self.nprocs)

    def read_checked(self, tolerant: bool = True) -> tuple[Trace, int]:
        """Load the file and report damage: (trace, lines skipped by
        *this* read).  A nonzero count on a live file means the last
        flush was torn -- poll again after the next flush."""
        trace = self.read(tolerant=tolerant)
        return trace, self.last_skipped_lines

    # ------------------------------------------------------------------
    # window access (§4.3 rescan, without the full scan)
    # ------------------------------------------------------------------
    def read_columns(
        self,
        t_lo: Optional[float] = None,
        t_hi: Optional[float] = None,
        procs: Optional[set[int]] = None,
        tolerant: bool = True,
    ) -> ColumnBlock:
        """The file, or one window of it, as a single
        :class:`~repro.trace.columnar.ColumnBlock` in record order.

        This is the bulk-ingest entry point: ``HistoryIndex.extend_columns``,
        ``TraceGraph.from_columns`` and the viz builders consume the
        returned columns without per-record parsing.  Every layout takes
        one path: the footer selects the blocks that may overlap the
        window (every block of a footerless file, walked linearly; v1/v2
        record lines are parsed into blocks), and
        :func:`~repro.trace.columnar.gather_window` masks them and
        gathers the kept rows.  With ``tolerant`` damage a linear walk
        meets (a torn final line or block) is skipped and counted in
        :attr:`last_skipped_lines`; damage inside a footer-indexed v3
        block always raises.
        """
        return self._window(t_lo, t_hi, procs, tolerant, use_index=True)

    def seek_window(
        self,
        t_lo: float,
        t_hi: float,
        procs: Optional[set[int]] = None,
        use_index: bool = True,
    ) -> list[TraceRecord]:
        """Records overlapping [t_lo, t_hi] (optionally only some procs),
        in record order: the window of :meth:`read_columns` (tolerant),
        materialized.

        Window boundaries are inclusive on both sides: a record with
        ``t1 == t_lo`` or ``t0 == t_hi`` is in the window.  A degenerate
        window (``t_lo > t_hi``) or an empty ``procs`` set returns no
        records immediately, without touching the file.

        On an indexed file only the blocks touching the window are read;
        ``use_index=False`` walks every block linearly instead, the
        reference path the benchmarks compare against.

        The paper (Section 4.3): "If the user wants to zoom in on a
        particular event, the required arcs are reconstructed by
        rescanning the appropriate portion of the trace file."
        """
        return self._window(t_lo, t_hi, procs, True, use_index).to_records()

    def _window(
        self,
        t_lo: Optional[float],
        t_hi: Optional[float],
        procs: Optional[set[int]],
        tolerant: bool,
        use_index: bool,
    ) -> ColumnBlock:
        """The one window read behind :meth:`read_columns`,
        :meth:`seek_window` and :meth:`read_all`."""
        self.last_skipped_lines = 0
        lo = -math.inf if t_lo is None else t_lo
        hi = math.inf if t_hi is None else t_hi
        if lo > hi or (procs is not None and not procs):
            return ColumnBlock.empty()
        if self._shards is None:
            blocks = self._blocks(lo, hi, procs, tolerant, use_index)
            return gather_window(blocks, t_lo, t_hi, procs)
        blocks = self._shards.window_blocks(lo, hi, procs, tolerant, use_index)
        block = gather_window(blocks, t_lo, t_hi, procs)
        self._sync_shard_counters()
        return block


def open_writer(
    path: Union[str, Path],
    nprocs: int,
    auto_flush_every: Optional[int] = None,
    *,
    durable: bool = False,
    compression: Union[None, bool, str, Codec] = None,
    shards: Union[None, int, str] = None,
) -> Union[TraceFileWriter, "TraceShardWriter"]:
    """A writer for a new recording: one v3 file, or with ``shards`` a
    sharded store whose manifest is ``path`` -- ``"proc"`` for one shard
    per rank, or a count for hash routing.  A sharded store compresses
    ``"auto"`` unless ``compression`` says otherwise: sharding exists for
    big traces, and big traces want compression."""
    if shards is None:
        return TraceFileWriter(
            path, nprocs, auto_flush_every, durable=durable,
            compression=compression,
        )
    from .shard import TraceShardWriter

    routing: dict = (
        {"by": "proc"} if shards == "proc" else {"by": "hash", "shards": shards}
    )
    return TraceShardWriter(
        path,
        nprocs,
        auto_flush_every,
        durable=durable,
        compression="auto" if compression is None else compression,
        **routing,
    )


def save_trace(
    trace: Trace,
    path: Union[str, Path],
    *,
    compression: Union[None, bool, str, Codec] = None,
    shards: Union[None, int, str] = None,
) -> None:
    """Write an in-memory trace to a file in one shot (see
    :func:`open_writer` for ``compression`` and ``shards``)."""
    with open_writer(
        path, trace.nprocs, compression=compression, shards=shards
    ) as writer:
        for rec in trace:
            writer.write(rec)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace file into memory."""
    return TraceFileReader(path).read()


# ----------------------------------------------------------------------
# CLI: python -m repro.trace.tracefile {info,convert,reindex}
# ----------------------------------------------------------------------
def _encoding_breakdown(blocks: Sequence[IndexBlock]) -> dict:
    """The per-encoding block/byte stats as a JSON-ready dict, with the
    compression ratio where the footer carried the raw size."""
    out: dict[str, dict] = {}
    for b in blocks:
        enc = out.setdefault(
            b.encoding or "unknown",
            {"blocks": 0, "records": 0, "nbytes": 0, "raw_nbytes": 0},
        )
        enc["blocks"] += 1
        enc["records"] += b.count
        enc["nbytes"] += b.nbytes
        enc["raw_nbytes"] += b.raw_nbytes if b.raw_nbytes is not None else 0
    for enc in out.values():
        enc["compression"] = (
            round(enc["raw_nbytes"] / enc["nbytes"], 4)
            if enc["raw_nbytes"] and enc["nbytes"]
            else None
        )
    return out


def _print_encoding_stats(blocks: Sequence[IndexBlock]) -> None:
    """:func:`_encoding_breakdown`, one line per encoding."""
    for enc, stats in sorted(_encoding_breakdown(blocks).items()):
        line = (
            f"  {enc:<14s}: {stats['blocks']} block(s), "
            f"{stats['records']} records, {stats['nbytes']} bytes"
        )
        if stats["compression"] is not None:
            raw, disk = stats["raw_nbytes"], stats["nbytes"]
            line += f" ({raw} raw, {raw / disk:.2f}x compression)"
        print(line)


def _info_payload(reader: TraceFileReader) -> dict:
    """Everything ``info`` knows, as one JSON-serializable dict --
    the machine-readable surface other tooling (the planned debug
    server) consumes instead of scraping the text report."""
    payload: dict = {
        "path": str(reader.path),
        "version": reader.version,
        "nprocs": reader.nprocs,
        "sharded": reader.sharded,
    }
    if reader.sharded:
        m = reader.manifest
        entries = [ref.entry for ref in reader.block_entries()]
        payload.update(
            format=MANIFEST_FORMAT_NAME,
            records=m.records,
            span=[m.t_min, m.t_max],
            by=m.by,
            nbytes=sum(s.nbytes for s in m.shards),
            shards=[s.to_jsonable() for s in m.shards],
            index={"blocks": len(entries), "source": "shard-footers"},
            encodings=_encoding_breakdown(entries),
        )
        return payload
    payload["format"] = FORMAT_NAME
    if reader.index is not None:
        idx = reader.index
        payload.update(
            records=idx.records,
            span=[idx.t_min, idx.t_max],
            index={"blocks": len(idx.blocks), "source": "footer"},
            encodings=_encoding_breakdown(idx.blocks),
        )
        return payload
    # footerless: one tolerant linear scan, mirroring the text report
    count, blocks, t_min, t_max = reader._scan()
    payload.update(
        records=count, span=[t_min, t_max], index=None, scanned_blocks=blocks
    )
    if reader.skipped_lines:
        payload["damage"] = reader.skipped_lines
    return payload


def _cmd_info(args: argparse.Namespace) -> int:
    reader = TraceFileReader(args.path)
    if getattr(args, "json", False):
        print(json.dumps(_info_payload(reader), indent=2, sort_keys=True))
        return 0
    print(f"path    : {reader.path}")
    if reader.sharded:
        m = reader.manifest
        print(
            f"format  : {MANIFEST_FORMAT_NAME} "
            f"(v{reader.version} shards), nprocs {m.nprocs}"
        )
        print(f"records : {m.records} (from manifest)")
        print(f"span    : {m.t_min:.6g} .. {m.t_max:.6g}")
        print(
            f"shards  : {m.nshards} file(s), routed by {m.by}, "
            f"{sum(s.nbytes for s in m.shards)} bytes on disk"
        )
        for k, s in enumerate(m.shards):
            span = (
                f"span {s.t_min:.6g} .. {s.t_max:.6g}"
                if s.records
                else "empty"
            )
            print(
                f"  [{k:>3d}] {s.path}: {s.records} records, "
                f"{len(s.procs)} proc(s), {span}, {s.nbytes} bytes"
            )
        entries = [ref.entry for ref in reader.block_entries()]
        print(f"index   : {len(entries)} block(s) across shard footers")
        _print_encoding_stats(entries)
        return 0
    print(
        f"format  : {FORMAT_NAME} v{reader.version}, nprocs {reader.nprocs}"
    )
    if reader.index is not None:
        idx = reader.index
        counts = [b.count for b in idx.blocks]
        nbytes = [b.nbytes for b in idx.blocks]
        encodings = sorted({b.encoding for b in idx.blocks}) or ["-"]
        print(f"records : {idx.records} (from footer index)")
        print(f"span    : {idx.t_min:.6g} .. {idx.t_max:.6g}")
        print(
            f"index   : {len(idx.blocks)} block(s), "
            f"encoding {'/'.join(encodings)}"
        )
        if counts:
            print(
                f"  records/block : min {min(counts)}  "
                f"mean {sum(counts) / len(counts):.1f}  max {max(counts)}"
            )
            print(
                f"  bytes/block   : min {min(nbytes)}  "
                f"mean {sum(nbytes) / len(nbytes):.1f}  max {max(nbytes)}"
            )
            _print_encoding_stats(idx.blocks)
        return 0
    # footerless: one linear scan
    count, blocks, t_min, t_max = reader._scan()
    span = f"{t_min:.6g} .. {t_max:.6g}" if count else "(empty)"
    print(f"records : {count} in {blocks} block(s) (linear scan)")
    print(f"span    : {span}")
    print("index   : none (writer not closed cleanly; run `reindex` to repair)")
    if reader.skipped_lines:
        print(f"damage  : {reader.skipped_lines} skipped region(s)/line(s)")
    return 0


def _source_blocks(reader: TraceFileReader) -> Iterator[ColumnBlock]:
    """The source's records as column blocks, in record order: one
    block per footer entry (a v2 ``"jsonl"`` entry parsed into one), a
    tolerant linear walk of a footerless file, or a manifest's merged
    columns."""
    if reader.sharded:
        yield reader.read_columns()
    elif reader.has_index:
        for ref in reader.block_entries():
            yield reader.load_block(ref)
    else:
        yield from reader._linear_blocks(tolerant=True)


def _cmd_convert(args: argparse.Namespace) -> int:
    from .shard import SHARD_TEMPLATE, TraceShardWriter

    reader = TraceFileReader(args.src)
    sharded_out = args.shards is not None or args.by is not None
    by = args.by or "hash"
    if sharded_out and by == "proc" and args.shards is not None:
        print(
            "error: --shards applies to --by hash only (--by proc "
            "writes one shard per rank)",
            file=sys.stderr,
        )
        return 2
    # refuse before any writer truncates a file the conversion reads
    sources = {reader.path.resolve()}
    if reader.sharded:
        sources.update(
            (reader.path.parent / s.path).resolve() for s in reader.manifest.shards
        )
    dst = Path(args.dst)
    targets = {dst.resolve()}
    if sharded_out:  # at most this many shard files
        targets.update(
            dst.with_name(SHARD_TEMPLATE.format(stem=dst.stem, num=k)).resolve()
            for k in range(max(reader.nprocs, args.shards or 0))
        )
    if targets & sources:
        print(
            f"error: writing {args.dst} would overwrite a file of the "
            f"source {args.src}, destroying the records being converted",
            file=sys.stderr,
        )
        return 2
    if sharded_out:
        writer: Union[TraceFileWriter, TraceShardWriter] = TraceShardWriter(
            args.dst,
            reader.nprocs,
            by=by,
            shards=args.shards,
            index_block=args.index_block,
            compression=args.compress,
        )
    else:
        writer = TraceFileWriter(
            args.dst,
            reader.nprocs,
            index_block=args.index_block,
            compression=args.compress,
        )
    with writer:
        count = sum(map(writer.write_columns, _source_blocks(reader)))
    note = (
        f" ({reader.skipped_lines} damaged region(s) dropped)"
        if reader.skipped_lines
        else ""
    )
    shape = (
        f"sharded manifest {args.dst}"
        if sharded_out
        else f"v{FORMAT_VERSION} {args.dst}"
    )
    print(
        f"converted {count} records: "
        f"v{reader.version} {args.src} -> {shape}{note}"
    )
    return 0


def _cmd_reindex(args: argparse.Namespace) -> int:
    reader = TraceFileReader(args.path)
    if reader.sharded:
        print(
            "error: this is a shard manifest; its shard files carry their "
            "own footers -- run reindex on a damaged shard file directly",
            file=sys.stderr,
        )
        return 2
    if reader.has_index:
        print(f"{reader.path}: already indexed; nothing to do")
        return 0
    if reader.version < FORMAT_VERSION:
        print(
            f"error: a footerless v{reader.version} file is not reindexed; "
            "use `convert` to rewrite it as an indexed v3 file",
            file=sys.stderr,
        )
        return 2
    size = reader.path.stat().st_size
    buf = reader._map()
    blocks: list[IndexBlock] = []
    end = reader._data_offset
    for offset, nbytes, block in reader._iter_v3_blocks(tolerant=True):
        if is_compressed_at(buf, offset):
            _, code, raw_nbytes, _ = COMPRESSED_HEADER.unpack_from(buf, offset)
            encoding = CODECS_BY_CODE[code].encoding
        else:
            encoding, raw_nbytes = "columnar", None
        blocks.append(IndexBlock.of(block, offset, nbytes, encoding, raw_nbytes))
        end = offset + nbytes
    index = TraceIndex.of(blocks)
    dropped = size - end
    with reader.path.open("rb+") as fh:
        fh.truncate(end)
        fh.seek(end)
        fh.write(_footer_line(index))
    note = f", dropped {dropped} damaged trailing byte(s)" if dropped else ""
    print(
        f"reindexed {reader.path}: {index.records} records in "
        f"{len(blocks)} block(s){note}"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.tracefile",
        description="Inspect, convert and repair repro trace files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser(
        "info", help="print version, record count, span and per-block stats"
    )
    p_info.add_argument("path", help="trace file to inspect")
    p_info.add_argument(
        "--json", action="store_true",
        help="emit the shard/encoding breakdown as JSON (machine-"
        "readable; stable keys for tooling)",
    )

    p_conv = sub.add_parser(
        "convert",
        help="rewrite any trace file or manifest as v3: per-block "
        "compression, sharded manifest <-> single file",
    )
    p_conv.add_argument("src", help="source trace file or manifest")
    p_conv.add_argument("dst", help="destination path")
    p_conv.add_argument(
        "--index-block", type=int, default=DEFAULT_INDEX_BLOCK,
        help="records per index block (default: %(default)s)",
    )
    p_conv.add_argument(
        "--compress", default="none",
        choices=["none", "auto", *sorted(CODECS)],
        help="per-block compression of the output (default: %(default)s)",
    )
    p_conv.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="write a sharded store with N hash-routed shards "
        "(dst names the manifest)",
    )
    p_conv.add_argument(
        "--by", choices=["proc", "hash"], default=None,
        help="shard routing: 'proc' writes one shard per rank, "
        "'hash' buckets ranks into --shards files",
    )

    p_re = sub.add_parser(
        "reindex",
        help="rebuild a missing index footer in place (recovers a "
        "crashed-writer file from the linear slow path)",
    )
    p_re.add_argument("path", help="footerless v3 trace file")

    args = parser.parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "convert": _cmd_convert,
        "reindex": _cmd_reindex,
    }
    try:
        return handlers[args.command](args)
    except (TraceFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
