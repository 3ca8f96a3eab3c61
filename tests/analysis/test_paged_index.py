"""The out-of-core paged index: window queries with bounded memory.

Contract: :class:`OutOfCoreIndex` answers ``window``/``seek_window``
identically to the fully-materialized :class:`HistoryIndex` (and to
``TraceFileReader.seek_window``) while holding at most ``cache_blocks``
decoded blocks resident, over plain, compressed, and sharded stores.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.history import HistoryIndex
from repro.analysis.paged import (
    DEFAULT_CACHE_BLOCKS,
    BlockCache,
    OutOfCoreIndex,
    PagedStats,
)
from repro.mp.datatypes import SourceLocation
from repro.trace import (
    EventKind,
    TraceFileError,
    TraceFileReader,
    TraceFileWriter,
    TraceRecord,
    TraceShardWriter,
)
from tests.legacy_formats import write_legacy

NPROCS = 4
KINDS = list(EventKind)


def make_batch(seed: int, n: int) -> list[TraceRecord]:
    rng = random.Random(seed)
    out = []
    for i in range(n):
        t0 = round(rng.uniform(0, 100), 3)
        out.append(
            TraceRecord(
                index=i,
                proc=rng.randrange(NPROCS),
                kind=rng.choice(KINDS),
                t0=t0,
                t1=round(t0 + rng.uniform(0, 3), 3),
                marker=i + 1,
                location=SourceLocation("f.py", i % 17, "fn"),
            )
        )
    return out


@pytest.fixture(scope="module")
def batch():
    return make_batch(0, 1500)


@pytest.fixture(scope="module")
def stores(batch, tmp_path_factory):
    """(plain, compressed, sharded) paths holding the same batch."""
    tmp = tmp_path_factory.mktemp("paged")
    plain = tmp / "plain.trace"
    packed = tmp / "packed.trace"
    sharded = tmp / "sharded.trace"
    with TraceFileWriter(plain, NPROCS, index_block=64) as w:
        for rec in batch:
            w.write(rec)
    with TraceFileWriter(packed, NPROCS, index_block=64,
                         compression="zlib") as w:
        for rec in batch:
            w.write(rec)
    with TraceShardWriter(sharded, NPROCS, index_block=64,
                          compression="zlib") as w:
        for rec in batch:
            w.write(rec)
    return plain, packed, sharded


WINDOWS = [(0.0, 100.0), (10.0, 20.0), (50.0, 50.5), (99.0, 120.0),
           (200.0, 300.0), (30.0, 10.0)]


class TestOutOfCoreIndex:
    @pytest.mark.parametrize("store", [0, 1, 2],
                             ids=["plain", "compressed", "sharded"])
    def test_window_equals_in_memory_index(self, batch, stores, store):
        full = HistoryIndex(batch, nprocs=NPROCS)
        paged = OutOfCoreIndex(TraceFileReader(stores[store]),
                               cache_blocks=4)
        assert len(paged) == len(batch)
        assert paged.span == full.span
        for lo, hi in WINDOWS:
            assert paged.window(lo, hi) == full.window(lo, hi)

    @pytest.mark.parametrize("store", [1, 2], ids=["compressed", "sharded"])
    def test_seek_window_with_procs_equals_reader(self, stores, store):
        reader = TraceFileReader(stores[store])
        paged = OutOfCoreIndex(TraceFileReader(stores[store]),
                               cache_blocks=4)
        for procs in [None, {0}, {1, 3}, set()]:
            for lo, hi in WINDOWS:
                assert paged.seek_window(lo, hi, procs) == reader.seek_window(
                    lo, hi, procs
                )

    def test_window_columns_agrees_with_records(self, stores):
        paged = OutOfCoreIndex(TraceFileReader(stores[1]), cache_blocks=4)
        cols = paged.read_columns(10.0, 30.0, {0, 2})
        assert cols.to_records() == paged.seek_window(10.0, 30.0, {0, 2})
        assert len(paged.read_columns(5.0, 1.0)) == 0

    def test_resident_blocks_stay_bounded(self, stores):
        paged = OutOfCoreIndex(TraceFileReader(stores[0]), cache_blocks=3)
        rng = random.Random(1)
        for _ in range(25):
            lo = rng.uniform(0, 90)
            paged.window(lo, lo + rng.uniform(0, 20))
        assert paged.cached_blocks <= 3
        stats = paged.stats()
        assert stats.evictions > 0
        assert stats.block_loads + stats.cache_hits > 0
        # the full trace was never resident
        assert paged.cached_blocks < paged.nblocks

    def test_cache_bytes_bound(self, stores):
        paged = OutOfCoreIndex(
            TraceFileReader(stores[0]), cache_blocks=10_000,
            cache_bytes=50_000,
        )
        paged.window(0.0, 100.0)
        assert paged.resident_bytes <= 50_000 or paged.cached_blocks == 1

    def test_repeat_queries_hit_the_cache(self, stores):
        paged = OutOfCoreIndex(TraceFileReader(stores[1]), cache_blocks=64)
        paged.window(10.0, 12.0)
        loads = paged.stats().block_loads
        paged.window(10.0, 12.0)
        after = paged.stats()
        assert after.block_loads == loads
        assert after.cache_hits > 0
        assert 0.0 < after.hit_rate <= 1.0

    def test_records_built_counts_materialized_records(self, stores):
        paged = OutOfCoreIndex(TraceFileReader(stores[0]), cache_blocks=4)
        assert paged.stats().records_built == 0
        paged.read_columns(10.0, 30.0)  # columns only: no record built
        assert paged.stats().records_built == 0
        first = paged.window(10.0, 20.0)
        second = paged.seek_window(50.0, 50.5, {1, 3})
        stats = paged.stats()
        assert len(first) > 0 and len(second) > 0
        assert stats.records_built == len(first) + len(second)
        assert f"records built: {stats.records_built}" in stats.as_text()

    def test_from_file_paged_returns_out_of_core(self, stores):
        reader = TraceFileReader(stores[2])
        paged = HistoryIndex.from_file(reader, paged=True, cache_blocks=5)
        assert isinstance(paged, OutOfCoreIndex)
        assert paged.nprocs == NPROCS
        with pytest.raises(ValueError, match="paged=True"):
            HistoryIndex.from_file(reader, cache_blocks=5)

    def test_footerless_file_needs_reindex(self, stores, tmp_path):
        raw = stores[0].read_bytes()
        cut = tmp_path / "cut.trace"
        cut.write_bytes(raw[: raw.rfind(b'{"__trace_index__"')])
        with pytest.raises(TraceFileError, match="reindex"):
            OutOfCoreIndex(TraceFileReader(cut))

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "e.trace"
        TraceFileWriter(path, NPROCS).close()
        paged = OutOfCoreIndex(TraceFileReader(path))
        assert len(paged) == 0
        assert paged.span == (0.0, 0.0)
        assert paged.window(0.0, 10.0) == []


class TestBlockCache:
    def test_lru_eviction_order(self):
        from repro.trace.columnar import ColumnBlock

        cache = BlockCache(max_blocks=2)
        blocks = {
            key: ColumnBlock.from_records(
                [TraceRecord(index=i, proc=0, kind=EventKind.COMPUTE,
                             t0=0.0, t1=0.0, marker=i)]
            )
            for i, key in enumerate(("a", "b", "c"))
        }
        cache.put("a", blocks["a"])
        cache.put("b", blocks["b"])
        assert cache.get("a") is blocks["a"]  # refresh: b is now LRU
        cache.put("c", blocks["c"])
        assert cache.get("b") is None
        assert cache.get("a") is blocks["a"]
        assert cache.evictions == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BlockCache(max_blocks=0)

    def test_stats_snapshot_is_independent(self):
        stats = PagedStats(block_loads=2, cache_hits=6)
        snap = stats.snapshot()
        stats.block_loads = 99
        assert snap.block_loads == 2
        assert snap.hit_rate == 0.75
        assert PagedStats().hit_rate == 0.0

    def test_default_capacity_constant(self):
        assert BlockCache().max_blocks == DEFAULT_CACHE_BLOCKS


class TestFooterSpans:
    """Footer and manifest bounds are the min and max over every t0 and
    t1, so a record that ends before it starts stays inside the span and
    ``window(*span)`` returns it on every storage layout."""

    BACKWARDS = [
        TraceRecord(0, 0, EventKind.COMPUTE, 0.73, -2.2, 1),
        TraceRecord(1, 1, EventKind.COMPUTE, 0.5, 0.6, 1),
    ]

    def _write(self, path, layout):
        if layout == "v2":
            write_legacy(path, 2, self.BACKWARDS, 2)
            return
        writer = TraceShardWriter(path, 2) if layout == "sharded" else TraceFileWriter(path, 2)
        with writer as w:
            if layout == "columns":
                from repro.trace.columnar import ColumnBlock

                w.write_columns(ColumnBlock.from_records(self.BACKWARDS))
            else:
                for rec in self.BACKWARDS:
                    w.write(rec)

    @pytest.mark.parametrize("layout", ["records", "columns", "v2", "sharded"])
    def test_span_holds_a_record_that_ends_before_it_starts(self, tmp_path, layout):
        path = tmp_path / "backwards.trace"
        self._write(path, layout)
        reader = TraceFileReader(path)
        assert reader.has_index
        assert reader.span() == (-2.2, 0.73)
        if layout == "sharded":
            assert reader.manifest.span == (-2.2, 0.73)
        history = HistoryIndex.from_file(reader)
        assert history.span == (-2.2, 0.73)
        paged = OutOfCoreIndex(reader)
        assert paged.span == (-2.2, 0.73)
        assert [r.index for r in paged.window(*paged.span)] == [0, 1]
        assert [r.index for r in reader.seek_window(*reader.span())] == [0, 1]
