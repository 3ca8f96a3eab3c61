"""Out-of-core history access: window queries with bounded memory.

:class:`~repro.analysis.history.HistoryIndex` materializes the whole
trace -- records, columns, derived kernels -- which is the right trade
for traces that fit in RAM and analyses that consume all of history
(clocks, matching, critical path).  The paper's *zoom* workflow is
different: "the required arcs are reconstructed by rescanning the
appropriate portion of the trace file" (§4.3).  For a 100M-event trace
that rescan must not re-materialize everything; it needs exactly what
:class:`OutOfCoreIndex` provides:

* only the trace file's **per-block metadata** stays resident -- one
  :class:`~repro.trace.tracefile.BlockRef` (byte offsets, record count,
  t-span, proc set) per columnar block, a few hundred bytes each;
* :meth:`window` / :meth:`seek_window` select overlapping blocks from
  that metadata, page the needed :class:`ColumnBlock`\\ s in through the
  reader (decompressing on the fly when the file is compressed), and
  answer from them;
* decoded blocks live in a **bounded LRU cache**, so a query session's
  resident memory is O(cache), not O(trace), and repeated queries over
  the same region (the zoom pattern: narrow, adjacent windows) hit the
  cache instead of the disk.

Works identically over a single v3 file and a shard manifest (blocks
are then paged per shard).  The facade is deliberately *not* a full
``HistoryIndex``: global derivations (vector clocks, matching) need the
whole history and would defeat the memory bound; build an in-memory
index (``paged=False``) when you need those.

Blocks are read only on demand, when a query needs them: nothing is
decoded speculatively and no thread is started.  One lock, held across
the cache lookup, the decode and the insert, makes the queries safe to
call from several threads: a block is never decoded twice while it
stays cached.

Construct directly, or via
``HistoryIndex.from_file(reader, paged=True)``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.trace.columnar import ColumnBlock
from repro.trace.events import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.tracefile import BlockRef, TraceFileReader

#: default LRU capacity: 32 blocks x 512 records x ~100 B/record keeps
#: the hot set of a zoom session under a couple of MB
DEFAULT_CACHE_BLOCKS = 32


@dataclass
class PagedStats:
    """Cache/paging economics of one :class:`OutOfCoreIndex`.

    ``block_loads`` counts blocks decoded off disk, ``cache_hits``
    block accesses served from the LRU, ``evictions`` blocks dropped to
    stay inside the bound, and ``queries`` window queries answered.

    ``prefetch_loads`` and ``prefetch_hits`` always read 0: ``bench/``
    still reads them, and the next benchmark change removes them.
    """

    block_loads: int = 0
    cache_hits: int = 0
    evictions: int = 0
    queries: int = 0
    prefetch_loads: int = 0
    prefetch_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of block accesses that did not wait for a disk
        decode."""
        total = self.block_loads + self.cache_hits
        return self.cache_hits / total if total else 0.0

    def snapshot(self) -> "PagedStats":
        return replace(self)

    def as_text(self) -> str:
        """Human-readable dump (the debugger ``stats`` command)."""
        lines = [
            f"paged index: {self.queries} window quer"
            f"{'y' if self.queries == 1 else 'ies'}",
            f"  demand loads : {self.block_loads} block(s)",
            f"  cache hits   : {self.cache_hits} "
            f"(hit rate {self.hit_rate:.1%})",
            f"  evictions    : {self.evictions}",
        ]
        return "\n".join(lines)


def _block_nbytes(block: ColumnBlock) -> int:
    """Resident-size estimate of one decoded block (column arrays; the
    interned side tables are shared and comparatively small)."""
    return sum(col.nbytes for col in block.columns.values())


class BlockCache:
    """A bounded LRU of decoded :class:`ColumnBlock`\\ s.

    Bounded by block count and optionally by the decoded columns' total
    bytes (whichever bound trips first evicts the least recently used
    block).  Not thread-safe on its own: :class:`OutOfCoreIndex` calls
    it under its lock.
    """

    def __init__(
        self,
        max_blocks: int = DEFAULT_CACHE_BLOCKS,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {max_blocks}")
        self.max_blocks = max_blocks
        self.max_bytes = max_bytes
        self._blocks: "OrderedDict[BlockRef, ColumnBlock]" = OrderedDict()
        #: decoded bytes currently resident
        self.nbytes = 0
        #: blocks evicted over the cache's lifetime
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def get(self, ref: "BlockRef") -> Optional[ColumnBlock]:
        block = self._blocks.get(ref)
        if block is not None:
            self._blocks.move_to_end(ref)
        return block

    def put(self, ref: "BlockRef", block: ColumnBlock) -> None:
        if ref in self._blocks:
            self._blocks.move_to_end(ref)
            return
        self._blocks[ref] = block
        self.nbytes += _block_nbytes(block)
        while len(self._blocks) > self.max_blocks or (
            self.max_bytes is not None
            and self.nbytes > self.max_bytes
            and len(self._blocks) > 1
        ):
            _, evicted = self._blocks.popitem(last=False)
            self.nbytes -= _block_nbytes(evicted)
            self.evictions += 1


class OutOfCoreIndex:
    """Window queries over a trace file with O(cache) resident memory.

    Reads only the file's block metadata at construction (the footer
    index, or every shard's footer via the manifest); record data is
    paged in per query and cached in a bounded LRU.

    Parameters
    ----------
    reader:
        An indexed v3 :class:`~repro.trace.tracefile.TraceFileReader`
        (single file or shard manifest).  Footerless files must be
        ``reindex``\\ ed first -- paging needs the per-block metadata.
    cache_blocks / cache_bytes:
        The LRU bound: at most ``cache_blocks`` decoded blocks resident,
        additionally capped at ``cache_bytes`` decoded column bytes when
        given.
    """

    def __init__(
        self,
        reader: "TraceFileReader",
        *,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        cache_bytes: Optional[int] = None,
    ) -> None:
        self.reader = reader
        self.nprocs = reader.nprocs
        self._refs = reader.block_entries()
        # per-block spans as arrays: a 100M-event trace has ~10^4-10^5
        # blocks, and scanning them per query must not dominate the
        # sub-ms cached-seek path -- selection is one vectorized compare
        self._t_min = np.array(
            [ref.entry.t_min for ref in self._refs], dtype=np.float64
        )
        self._t_max = np.array(
            [ref.entry.t_max for ref in self._refs], dtype=np.float64
        )
        self._counts = np.array(
            [ref.entry.count for ref in self._refs], dtype=np.int64
        )
        self._cache = BlockCache(cache_blocks, cache_bytes)
        self._stats = PagedStats()
        # guards the cache and the stats; held across a block's lookup,
        # decode and insert, so concurrent queries never decode a block
        # twice while it stays cached
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Records in the trace (from metadata; nothing is loaded)."""
        return int(self._counts.sum())

    @property
    def nblocks(self) -> int:
        return len(self._refs)

    @property
    def cached_blocks(self) -> int:
        with self._lock:
            return len(self._cache)

    @property
    def resident_bytes(self) -> int:
        """Decoded column bytes currently held by the LRU."""
        with self._lock:
            return self._cache.nbytes

    @property
    def span(self) -> tuple[float, float]:
        """(earliest t0, latest t1); (0, 0) while empty."""
        if not self._refs:
            return (0.0, 0.0)
        return (float(self._t_min.min()), float(self._t_max.max()))

    # ------------------------------------------------------------------
    def _load(self, ref: "BlockRef") -> ColumnBlock:
        """Fetch one block through the cache, decoding it on a miss."""
        with self._lock:
            block = self._cache.get(ref)
            if block is not None:
                self._stats.cache_hits += 1
                return block
            block = self.reader.load_block(ref)
            self._cache.put(ref, block)
            self._stats.block_loads += 1
            return block

    def _select_idx(
        self, t_lo: float, t_hi: float, procs: Optional[set[int]]
    ) -> np.ndarray:
        # same semantics as IndexBlock.overlaps, but one vectorized
        # compare over all block spans (callers reject degenerate
        # windows and empty proc filters before getting here)
        if not self._refs:
            return np.empty(0, dtype=np.int64)
        hits = np.nonzero((self._t_max >= t_lo) & (self._t_min <= t_hi))[0]
        if procs is None:
            return hits
        keep = [
            i
            for i in hits.tolist()
            if not procs.isdisjoint(self._refs[i].entry.procs)
        ]
        return np.array(keep, dtype=np.int64)

    def wait_prefetch(self, timeout: Optional[float] = None) -> bool:
        """Return True at once: no load is ever in flight after a query.
        ``bench/`` still uses this as its idle hook, and the next
        benchmark change removes it."""
        return True

    def close(self) -> None:
        """Nothing to release; queries keep working after it.
        ``bench/`` still calls this, and the next benchmark change
        removes it."""

    # ------------------------------------------------------------------
    def window_columns(
        self,
        t_lo: float,
        t_hi: float,
        procs: Optional[set[int]] = None,
    ) -> ColumnBlock:
        """The window's records as one :class:`ColumnBlock`, in trace
        order -- the columnar twin of :meth:`seek_window`."""
        with self._lock:
            self._stats.queries += 1
        if t_lo > t_hi or (procs is not None and not procs):
            return ColumnBlock.empty()
        sel = self._select_idx(t_lo, t_hi, procs)
        parts: list[ColumnBlock] = []
        for i in sel.tolist():
            block = self._load(self._refs[i])
            mask = block.window_mask(t_lo, t_hi, procs)
            if mask.all():
                parts.append(block)
            elif mask.any():
                parts.append(block.filter(mask))
        merged = ColumnBlock.concat(parts)
        index_col = merged.columns["index"]
        if index_col.size and np.any(index_col[1:] < index_col[:-1]):
            merged = merged.filter(np.argsort(index_col, kind="stable"))
        return merged

    def seek_window(
        self,
        t_lo: float,
        t_hi: float,
        procs: Optional[set[int]] = None,
    ) -> list[TraceRecord]:
        """Records overlapping ``[t_lo, t_hi]`` (inclusive bounds,
        optional proc filter), in trace order.  Same result as
        ``TraceFileReader.seek_window``, but served through the block
        cache: only overlapping blocks are resident, and a repeat of a
        nearby window reuses them."""
        with self._lock:
            self._stats.queries += 1
        if t_lo > t_hi or (procs is not None and not procs):
            return []
        sel = self._select_idx(t_lo, t_hi, procs)
        out: list[TraceRecord] = []
        for i in sel.tolist():
            block = self._load(self._refs[i])
            mask = block.window_mask(t_lo, t_hi, procs)
            if mask.all():
                out.extend(block.to_records())
            elif mask.any():
                out.extend(block.filter(mask).to_records())
        out.sort(key=attrgetter("index"))
        return out

    def window(self, t_lo: float, t_hi: float) -> list[TraceRecord]:
        """``HistoryIndex.window``-compatible query (no proc filter)."""
        return self.seek_window(t_lo, t_hi)

    # ------------------------------------------------------------------
    def stats(self) -> PagedStats:
        """A point-in-time copy of the paging counters (evictions are
        folded in from the cache)."""
        with self._lock:
            return replace(self._stats, evictions=self._cache.evictions)


__all__ = [
    "DEFAULT_CACHE_BLOCKS",
    "BlockCache",
    "OutOfCoreIndex",
    "PagedStats",
]
