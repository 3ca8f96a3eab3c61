"""Sharded trace stores: many shard files behind one small manifest.

A single v3 trace file already decodes fast, but it is still *one*
file -- the trace-volume wall the MAD line of work calls out as the
limiting factor for trace-based debugging.  This module splits a
recording across shard files so that writing scales with processes,
each shard carries its own block index, and consumers that only want a
window of a few processes never touch the other shards' bytes.

Layout::

    big.trace              <- the manifest (one JSON line)
    big-shard0000.trace    <- ordinary v3 trace files, one per shard
    big-shard0001.trace
    ...

The manifest records the shard list with per-shard record counts,
time spans, process sets and byte sizes -- everything a reader needs to
*plan* a query without opening any shard file.  Each shard file is a
complete, self-describing v3 trace file (header, columnar blocks --
optionally compressed -- and an index footer), so a lone shard remains
readable by any v3 reader and repairable by ``reindex``.

Routing: ``by="proc"`` writes one shard per process rank (the paper's
per-process trace shape); ``by="hash"`` buckets ranks into a fixed
number of shards (``rank % nshards``) for very wide runs.  Either way
a record's global ``index`` (assigned at recording time) rides along,
and the reader *merges the shard streams by that index*, so a sharded
read is record-for-record identical to the single-file read.

:class:`TraceFileReader` consumes manifests transparently: pass the
manifest path and ``read_all`` / ``read_columns`` / ``seek_window``
read each selected shard in turn and merge the results by record
index.  Shard files are opened lazily -- a degenerate window, an empty
shard, or a proc filter that excludes a shard short-circuits without
opening that file (``reader.shards_opened`` observes this).
"""

from __future__ import annotations

import heapq
import json
import threading
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .columnar import ColumnBlock
from .events import EventKind, TraceRecord

MANIFEST_VERSION = 1
#: shard-file suffix pattern: ``<manifest stem>-shard0000.trace``
SHARD_TEMPLATE = "{stem}-shard{num:04d}.trace"


def _tracefile():
    """Late import of :mod:`repro.trace.tracefile` (it imports us
    lazily from the reader, so a top-level import would be circular)."""
    from repro.trace import tracefile

    return tracefile


@dataclass(frozen=True)
class ShardInfo:
    """One shard's manifest entry: enough to plan without opening it."""

    path: str  # relative to the manifest's directory
    records: int
    t_min: float
    t_max: float
    procs: frozenset[int]
    nbytes: int

    def overlaps(
        self, t_lo: float, t_hi: float, procs: Optional[set[int]]
    ) -> bool:
        """Whether any record of this shard can fall in the window --
        the fan-out short-circuit (empty shards never overlap)."""
        if self.records == 0:
            return False
        if t_lo > t_hi or (procs is not None and not procs):
            return False
        if self.t_max < t_lo or self.t_min > t_hi:
            return False
        return procs is None or bool(self.procs & procs)

    def to_jsonable(self) -> dict:
        return {
            "path": self.path,
            "records": self.records,
            "span": [self.t_min, self.t_max],
            "procs": sorted(self.procs),
            "nbytes": self.nbytes,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "ShardInfo":
        span = data.get("span", [0.0, 0.0])
        return cls(
            path=data["path"],
            records=data.get("records", 0),
            t_min=span[0],
            t_max=span[1],
            procs=frozenset(data.get("procs", [])),
            nbytes=data.get("nbytes", 0),
        )


@dataclass(frozen=True)
class ShardManifest:
    """The parsed manifest line: global aggregates + the shard table."""

    nprocs: int
    kinds: Optional[list[str]]
    by: str
    records: int
    t_min: float
    t_max: float
    shards: tuple[ShardInfo, ...]

    @property
    def span(self) -> tuple[float, float]:
        return (self.t_min, self.t_max)

    @property
    def nshards(self) -> int:
        return len(self.shards)

    def to_jsonable(self) -> dict:
        tracefile = _tracefile()
        return {
            "format": tracefile.MANIFEST_FORMAT_NAME,
            "version": MANIFEST_VERSION,
            "nprocs": self.nprocs,
            "kinds": self.kinds,
            "by": self.by,
            "records": self.records,
            "span": [self.t_min, self.t_max],
            "shards": [s.to_jsonable() for s in self.shards],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "ShardManifest":
        tracefile = _tracefile()
        if data.get("version", 1) > MANIFEST_VERSION:
            raise tracefile.TraceFileError(
                f"unsupported manifest version {data.get('version')!r}"
            )
        span = data.get("span", [0.0, 0.0])
        return cls(
            nprocs=data["nprocs"],
            kinds=data.get("kinds"),
            by=data.get("by", "proc"),
            records=data.get("records", 0),
            t_min=span[0],
            t_max=span[1],
            shards=tuple(
                ShardInfo.from_jsonable(s) for s in data.get("shards", [])
            ),
        )


def write_manifest(
    path: Union[str, Path],
    nprocs: int,
    infos: Sequence[ShardInfo],
    *,
    by: str = "proc",
    kinds: Optional[Sequence[str]] = None,
) -> ShardManifest:
    """Aggregate ``infos`` into a :class:`ShardManifest` and write it to
    ``path`` as one JSON line.  Shared by :meth:`TraceShardWriter.close`
    and by writers that produce shard files *without* a central writer
    object (the mproc backend's merge-free per-worker recording, where
    each forked rank streams its own shard and the parent only writes
    this manifest at exit)."""
    path = Path(path)
    populated = [s for s in infos if s.records]
    manifest = ShardManifest(
        nprocs=nprocs,
        kinds=list(kinds) if kinds is not None
        else [k.value for k in EventKind],
        by=by,
        records=sum(s.records for s in infos),
        t_min=min((s.t_min for s in populated), default=0.0),
        t_max=max((s.t_max for s in populated), default=0.0),
        shards=tuple(infos),
    )
    payload = json.dumps(manifest.to_jsonable(), separators=(",", ":"))
    path.write_text(payload + "\n")
    return manifest


def scan_shard_info(path: Union[str, Path]) -> Optional[ShardInfo]:
    """Recover a :class:`ShardInfo` by inspecting a shard file directly.

    Used when the process that wrote the shard died before reporting its
    stats (a killed mproc worker): reads the footer when present, else
    tolerantly scans the decodable block prefix.  Returns None when the
    file is missing or not a readable trace file, so the caller can
    leave it out of the manifest instead of naming an unreadable shard.
    """
    tracefile = _tracefile()
    path = Path(path)
    if not path.is_file():
        return None
    try:
        reader = tracefile.TraceFileReader(path)
        if reader.sharded:
            return None
        index = reader.index
        if index is not None:
            procs: frozenset[int] = frozenset().union(
                *(b.procs for b in index.blocks)
            ) if index.blocks else frozenset()
            return ShardInfo(
                path=path.name,
                records=index.records,
                t_min=index.t_min,
                t_max=index.t_max,
                procs=procs,
                nbytes=path.stat().st_size,
            )
        block = reader.read_columns(tolerant=True)
    except (tracefile.TraceFileError, OSError, ValueError):
        return None
    if len(block) == 0:
        return ShardInfo(path.name, 0, 0.0, 0.0, frozenset(), path.stat().st_size)
    return ShardInfo(
        path=path.name,
        records=len(block),
        t_min=float(block.columns["t0"].min()),
        t_max=float(block.columns["t1"].max()),
        procs=frozenset(np.unique(block.columns["proc"]).tolist()),
        nbytes=path.stat().st_size,
    )


class TraceShardWriter:
    """Writes one recording as shard files plus a manifest.

    Drop-in for :class:`~repro.trace.tracefile.TraceFileWriter` where a
    writer object is accepted (``FileSink``, ``save_trace``): exposes
    ``write`` / ``write_columns`` / ``flush`` / ``close`` /
    ``records_written`` and the context-manager protocol.

    Parameters
    ----------
    path:
        Manifest destination.  Shard files are created next to it as
        ``<stem>-shardNNNN.trace``.
    nprocs:
        Communicator size; also the shard count under ``by="proc"``.
    shards:
        Shard count for ``by="hash"`` (rank % shards routing).  Must be
        left None under ``by="proc"``.
    by:
        ``"proc"`` (one shard per rank, the default) or ``"hash"``.
    compression:
        Per-block compression for every shard, as accepted by
        :class:`TraceFileWriter` -- default ``"auto"`` (zstd when
        available, else zlib): sharding exists for big traces, and big
        traces want compression.  Pass ``None`` for raw blocks.
    """

    def __init__(
        self,
        path: Union[str, Path],
        nprocs: int,
        auto_flush_every: Optional[int] = None,
        *,
        shards: Optional[int] = None,
        by: str = "proc",
        durable: bool = False,
        index_block: Optional[int] = None,
        compression: Union[None, bool, str] = "auto",
    ) -> None:
        tracefile = _tracefile()
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        if by == "proc":
            if shards is not None:
                raise ValueError(
                    "shards= applies to by='hash' routing only; by='proc' "
                    "always writes one shard per process"
                )
            nshards = nprocs
        elif by == "hash":
            nshards = min(nprocs, 8) if shards is None else shards
            if nshards < 1:
                raise ValueError(f"shards must be >= 1, got {shards}")
        else:
            raise ValueError(f"unknown routing {by!r}; expected 'proc' or 'hash'")
        self.path = Path(path)
        self.nprocs = nprocs
        self.by = by
        self.nshards = nshards
        self.version = tracefile.FORMAT_VERSION
        if index_block is None:
            index_block = tracefile.DEFAULT_INDEX_BLOCK
        self._closed = False
        self._writers = [
            tracefile.TraceFileWriter(
                self._shard_path(k),
                nprocs,
                auto_flush_every,
                durable=durable,
                index_block=index_block,
                compression=compression,
            )
            for k in range(nshards)
        ]

    def _shard_path(self, num: int) -> Path:
        return self.path.with_name(
            SHARD_TEMPLATE.format(stem=self.path.stem, num=num)
        )

    def shard_of(self, proc: int) -> int:
        """Which shard rank ``proc``'s records go to."""
        return proc if self.by == "proc" else proc % self.nshards

    # ------------------------------------------------------------------
    def write(self, record: TraceRecord) -> None:
        """Route one record to its shard (buffered until flush)."""
        if self._closed:
            raise _tracefile().TraceFileError(
                f"shard writer for {self.path} is closed"
            )
        if not 0 <= record.proc < self.nprocs:
            raise ValueError(
                f"record {record.index} has proc {record.proc} outside "
                f"[0, {self.nprocs}); cannot route it to a shard"
            )
        self._writers[self.shard_of(record.proc)].write(record)

    def write_columns(self, block: ColumnBlock) -> int:
        """Bulk-append a :class:`ColumnBlock`, split by shard.

        Rows keep their within-shard order (and their global ``index``
        values), so the reader's index merge reconstructs the original
        stream exactly.
        """
        if self._closed:
            raise _tracefile().TraceFileError(
                f"shard writer for {self.path} is closed"
            )
        n = len(block)
        if n == 0:
            return 0
        proc = block.columns["proc"]
        if proc.size and (int(proc.min()) < 0 or int(proc.max()) >= self.nprocs):
            raise ValueError(
                f"column block contains procs outside [0, {self.nprocs}); "
                "cannot route to shards"
            )
        if self.nshards == 1:
            self._writers[0].write_columns(block)
            return n
        shard_ids = proc if self.by == "proc" else proc % self.nshards
        for k in np.unique(shard_ids).tolist():
            mask = shard_ids == k
            sub = block if mask.all() else block.filter(mask)
            self._writers[int(k)].write_columns(sub)
        return n

    def flush(self) -> int:
        """Flush every shard; returns total records pushed to disk."""
        return sum(w.flush() for w in self._writers)

    def close(self) -> None:
        """Close every shard (writing its footer), then write the
        manifest.  The manifest goes last: a crash mid-close leaves
        individually readable shard files and no manifest, never a
        manifest naming unreadable shards."""
        if self._closed:
            return
        try:
            errors = []
            infos: list[ShardInfo] = []
            for k, w in enumerate(self._writers):
                try:
                    w.close()
                except Exception as exc:  # keep closing the other shards
                    errors.append(exc)
                    continue
                index = w._build_index()
                shard_path = self._shard_path(k)
                infos.append(
                    ShardInfo(
                        path=shard_path.name,
                        records=index.records,
                        t_min=index.t_min,
                        t_max=index.t_max,
                        procs=frozenset().union(
                            *(b.procs for b in index.blocks)
                        ) if index.blocks else frozenset(),
                        nbytes=shard_path.stat().st_size,
                    )
                )
            if errors:
                raise errors[0]
            write_manifest(self.path, self.nprocs, infos, by=self.by)
        finally:
            self._closed = True

    @property
    def records_written(self) -> int:
        return sum(w.records_written for w in self._writers)

    def __enter__(self) -> "TraceShardWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ShardSet:
    """Reader-side view of a manifest's shard files.

    Owned by a manifest-mode :class:`~repro.trace.tracefile.
    TraceFileReader`, which delegates every record access here.  Shard
    readers are opened lazily and memoized; all merges are ordered by
    the global record ``index``, making every result record-for-record
    identical to the equivalent single-file read.
    """

    def __init__(self, path: Path, header: dict) -> None:
        self.path = path
        self.manifest = ShardManifest.from_jsonable(header)
        self._readers: dict[int, object] = {}
        # guards the memoization: one reader may serve queries from
        # several threads
        self._open_lock = threading.Lock()
        #: shard files actually opened (the short-circuit observable)
        self.opened = 0

    # ------------------------------------------------------------------
    def _reader(self, shard: int):
        with self._open_lock:
            reader = self._readers.get(shard)
            if reader is None:
                tracefile = _tracefile()
                shard_path = self.path.parent / self.manifest.shards[shard].path
                try:
                    reader = tracefile.TraceFileReader(shard_path)
                except FileNotFoundError as exc:
                    raise tracefile.TraceFileError(
                        f"{self.path}: manifest names shard file "
                        f"{shard_path.name!r}, which does not exist "
                        "(was it moved or deleted alongside the manifest?)"
                    ) from exc
                if reader.sharded:
                    raise tracefile.TraceFileError(
                        f"{shard_path}: a manifest may not name another "
                        "manifest as a shard"
                    )
                self._readers[shard] = reader
                self.opened += 1
        return reader

    def _require_shards(self, op: str) -> None:
        """Record access over a manifest with an *empty* shard list is a
        malformed-store error, not a silently empty result: every writer
        (TraceShardWriter, the mproc per-worker mode) lists at least one
        shard, so an empty list means the manifest was truncated or
        hand-edited."""
        if not self.manifest.shards:
            tracefile = _tracefile()
            raise tracefile.TraceFileError(
                f"{self.path}: manifest lists no shard files; cannot "
                f"{op} (the store is malformed -- every shard writer "
                "records at least one shard entry)"
            )

    @property
    def bytes_read(self) -> int:
        return sum(r.bytes_read for r in self._readers.values())

    @property
    def skipped_lines(self) -> int:
        return sum(r.skipped_lines for r in self._readers.values())

    @property
    def last_skipped_lines(self) -> int:
        return sum(r.last_skipped_lines for r in self._readers.values())

    # ------------------------------------------------------------------
    def _populated(self) -> list[int]:
        return [
            k for k, s in enumerate(self.manifest.shards) if s.records > 0
        ]

    def _select(
        self, t_lo: float, t_hi: float, procs: Optional[set[int]]
    ) -> list[int]:
        return [
            k
            for k, s in enumerate(self.manifest.shards)
            if s.overlaps(t_lo, t_hi, procs)
        ]

    # ------------------------------------------------------------------
    def iter_records(
        self,
        where: Optional[Callable[[TraceRecord], bool]],
        tolerant: bool,
    ) -> Iterator[TraceRecord]:
        self._require_shards("iterate records")
        streams = [
            self._reader(k).iter_records(where, tolerant)
            for k in self._populated()
        ]
        return heapq.merge(*streams, key=attrgetter("index"))

    def read_all(self, tolerant: bool) -> list[TraceRecord]:
        self._require_shards("read records")
        parts = [
            self._reader(k).read_all(tolerant=tolerant)
            for k in self._populated()
        ]
        return list(heapq.merge(*parts, key=attrgetter("index")))

    def seek_window(
        self,
        t_lo: float,
        t_hi: float,
        procs: Optional[set[int]],
    ) -> list[TraceRecord]:
        self._require_shards("seek a window")
        parts = [
            self._reader(k).seek_window(t_lo, t_hi, procs)
            for k in self._select(t_lo, t_hi, procs)
        ]
        return list(heapq.merge(*parts, key=attrgetter("index")))

    def read_columns(
        self,
        t_lo: float,
        t_hi: float,
        procs: Optional[set[int]],
        windowed: bool,
        tolerant: bool,
    ) -> ColumnBlock:
        self._require_shards("read columns")
        if windowed:
            shard_ids = self._select(t_lo, t_hi, procs)
        else:
            shard_ids = self._populated()
        if not shard_ids:
            return ColumnBlock.empty()
        lo = None if not windowed else t_lo
        hi = None if not windowed else t_hi
        parts = [
            self._reader(k).read_columns(
                t_lo=lo, t_hi=hi, procs=procs, tolerant=tolerant
            )
            for k in shard_ids
        ]
        merged = ColumnBlock.concat(parts)
        index_col = merged.columns["index"]
        if index_col.size and np.any(index_col[1:] < index_col[:-1]):
            merged = merged.filter(np.argsort(index_col, kind="stable"))
        return merged

    # ------------------------------------------------------------------
    def block_entries(self) -> list:
        """Every shard's footer entries as BlockRefs (grouped by shard;
        the paged index orders query *results* by record index)."""
        self._require_shards("enumerate blocks")
        tracefile = _tracefile()
        refs = []
        for k in self._populated():
            reader = self._reader(k)
            if reader.index is None:
                raise tracefile.TraceFileError(
                    f"{reader.path}: shard has no index footer; run "
                    "`python -m repro.trace.tracefile reindex` on it"
                )
            refs.extend(
                tracefile.BlockRef(k, entry) for entry in reader.index.blocks
            )
        return refs

    def load_block(self, ref) -> ColumnBlock:
        tracefile = _tracefile()
        return self._reader(ref.shard).load_block(
            tracefile.BlockRef(None, ref.entry)
        )


__all__ = [
    "MANIFEST_VERSION",
    "SHARD_TEMPLATE",
    "ShardInfo",
    "ShardManifest",
    "ShardSet",
    "TraceShardWriter",
    "scan_shard_info",
    "write_manifest",
]
