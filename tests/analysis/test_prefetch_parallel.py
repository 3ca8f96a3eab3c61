"""The shard pipeline's read side: concurrent paged queries and the
bulk ``HistoryIndex.from_file`` build over every storage layout.

Contracts:

* A paged query session reads blocks on demand only: it starts no
  thread.
* ``BlockCache`` under the paged index's lock survives concurrent
  window queries without corrupting the LRU or decoding any block
  twice while cached.
* ``HistoryIndex.from_file`` over a single file, ``by="proc"`` shards,
  ``by="hash"`` shards or a zlib-compressed file is *exactly*
  ``HistoryIndex.from_trace`` of the same batch: same columns, records,
  span, matching, clocks and windows.
* On every layout, the ``Trace`` view of such an index, and a bare
  ``Trace`` of the records, answer every ``Trace`` query exactly as the
  record walks of ``tests/oracles.py`` do, and a repeated read of a row
  returns the identical record object.
"""

from __future__ import annotations

import random
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.analysis.history import HistoryIndex
from repro.analysis.paged import OutOfCoreIndex
from repro.mp.datatypes import SourceLocation
from repro.trace import (
    EventKind,
    Trace,
    TraceFileReader,
    TraceFileWriter,
    TraceShardWriter,
)
from tests import oracles

NPROCS = 4
KINDS = list(EventKind)


def make_batch(seed: int, n: int, sequential_time: bool = False):
    from repro.trace import TraceRecord

    rng = random.Random(seed)
    out = []
    for i in range(n):
        t0 = i * 0.01 if sequential_time else round(rng.uniform(0, 100), 3)
        out.append(
            TraceRecord(
                index=i,
                proc=rng.randrange(NPROCS),
                kind=rng.choice(KINDS),
                t0=round(t0, 3),
                t1=round(t0 + 0.005, 3),
                marker=i + 1,
                location=SourceLocation("f.py", i % 11, "fn"),
            )
        )
    return out


def write_plain(path, batch, index_block=64, compression=None):
    with TraceFileWriter(
        path, NPROCS, index_block=index_block, compression=compression
    ) as w:
        for rec in batch:
            w.write(rec)
    return path


# ----------------------------------------------------------------------
# demand-only paging
# ----------------------------------------------------------------------
def test_paged_query_session_starts_no_thread(tmp_path):
    store = write_plain(tmp_path / "seq.trace", make_batch(3, 2000, True))
    before = threading.active_count()
    paged = HistoryIndex.from_file(TraceFileReader(store), paged=True)
    for k in range(10):
        paged.seek_window(k * 1.2, k * 1.2 + 1.2)
        paged.read_columns(k * 1.2, k * 1.2 + 1.2, {0, 2})
    assert paged.stats().block_loads > 0
    assert threading.active_count() == before


# ----------------------------------------------------------------------
# cache thread-safety under concurrent queries
# ----------------------------------------------------------------------
class TestConcurrentAccess:
    def _counting_reader(self, path):
        reader = TraceFileReader(path)
        counts: dict = {}
        lock = threading.Lock()
        orig = reader.load_block

        def counting_load(ref):
            key = (ref.shard, ref.entry.offset)
            with lock:
                counts[key] = counts.get(key, 0) + 1
            return orig(ref)

        reader.load_block = counting_load  # type: ignore[method-assign]
        return reader, counts

    def test_no_block_decoded_twice_when_cache_fits(self, tmp_path):
        store = write_plain(
            tmp_path / "c.trace", make_batch(11, 3000, True)
        )
        reader, counts = self._counting_reader(store)
        paged = OutOfCoreIndex(reader, cache_blocks=256)
        nthreads = 6
        barrier = threading.Barrier(nthreads)
        errors: list[BaseException] = []

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                for k in range(12):
                    lo = ((tid + k) % 12) * 2.5
                    paged.seek_window(lo, lo + 2.5)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(nthreads)
        ]
        # switch threads often, so a check-then-decode race would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # cache never evicts (256 >> nblocks), so the locked loader
        # must have decoded every touched block exactly once
        assert counts and max(counts.values()) == 1
        stats = paged.stats()
        assert stats.block_loads == len(counts)
        # every block access was counted once, as a load or a hit: the
        # same queries run serially make as many accesses
        serial = OutOfCoreIndex(TraceFileReader(store), cache_blocks=256)
        for tid in range(nthreads):
            for k in range(12):
                lo = ((tid + k) % 12) * 2.5
                serial.seek_window(lo, lo + 2.5)
        expected = serial.stats()
        assert stats.block_loads + stats.cache_hits == (
            expected.block_loads + expected.cache_hits
        )

    def test_lru_bound_holds_under_contention(self, tmp_path):
        store = write_plain(
            tmp_path / "s.trace", make_batch(13, 3000, True)
        )
        reader = TraceFileReader(store)
        paged = OutOfCoreIndex(reader, cache_blocks=4)
        expected = {}
        plain = TraceFileReader(store)
        windows = [(k * 2.0, k * 2.0 + 2.0) for k in range(15)]
        for lo, hi in windows:
            expected[(lo, hi)] = [r.index for r in plain.seek_window(lo, hi)]
        nthreads = 5
        barrier = threading.Barrier(nthreads)
        errors: list[BaseException] = []

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                for i in range(len(windows)):
                    lo, hi = windows[(tid + i) % len(windows)]
                    got = [r.index for r in paged.seek_window(lo, hi)]
                    assert got == expected[(lo, hi)]
                    assert paged.cached_blocks <= 4
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert paged.cached_blocks <= 4
        assert paged.resident_bytes >= 0


# ----------------------------------------------------------------------
# from_file over every layout == from_trace, exactly
# ----------------------------------------------------------------------
def write_sharded(path, batch, by):
    with TraceShardWriter(
        path, NPROCS, index_block=32, shards=3 if by == "hash" else None, by=by
    ) as w:
        for rec in batch:
            w.write(rec)
    return path


LAYOUTS = {
    "single": lambda path, batch: write_plain(path, batch, index_block=32),
    "by_proc": lambda path, batch: write_sharded(path, batch, "proc"),
    "by_hash": lambda path, batch: write_sharded(path, batch, "hash"),
    "zlib": lambda path, batch: write_plain(
        path, batch, index_block=32, compression="zlib"
    ),
}


def assert_same_index(ref, built, windows):
    assert len(ref) == len(built)
    for name in ref.columns:
        assert np.array_equal(ref.column(name), built.column(name)), name
    assert list(ref.records) == list(built.records)
    assert ref.span == built.span
    assert ref.message_pairs() == built.message_pairs()
    assert np.array_equal(ref.clocks, built.clocks)
    for lo, hi in windows:
        assert ref.window(lo, hi) == built.window(lo, hi)


class TestFromFileLayouts:
    @settings(max_examples=6, deadline=None)
    @given(seed=hst.integers(0, 10**6), n=hst.integers(40, 250))
    def test_property_from_file_equals_from_trace(self, seed, n):
        batch = make_batch(seed, n)
        ref = HistoryIndex.from_trace(Trace(batch, NPROCS))
        rng = random.Random(seed)
        windows = [
            (lo, lo + rng.uniform(0, 30))
            for lo in (rng.uniform(-5, 100) for _ in range(4))
        ]
        with tempfile.TemporaryDirectory() as tmp:
            for name, write in LAYOUTS.items():
                path = write(Path(tmp) / f"{name}.trace", batch)
                built = HistoryIndex.from_file(TraceFileReader(path))
                assert_same_index(ref, built, windows)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_layout_matches_from_trace(self, tmp_path, layout):
        # a fixed multi-block batch per layout, beside the random property
        batch = make_batch(17, 600)
        ref = HistoryIndex.from_trace(Trace(batch, NPROCS))
        path = LAYOUTS[layout](tmp_path / f"{layout}.trace", batch)
        reader = TraceFileReader(path)
        assert len(reader.block_entries()) > NPROCS
        built = HistoryIndex.from_file(reader)
        windows = [(0.0, 10.0), (25.0, 25.0), (40.0, 90.0), (-5.0, 200.0)]
        assert_same_index(ref, built, windows)

    @settings(max_examples=6, deadline=None)
    @given(seed=hst.integers(0, 10**6), n=hst.integers(40, 250))
    def test_property_trace_view_answers_like_bare_trace(self, seed, n):
        batch = make_batch(seed, n)
        bare = Trace(batch, NPROCS)
        rng = random.Random(seed)
        times = [rng.uniform(-5, 105) for _ in range(4)]
        times += [r.t0 for r in rng.sample(batch, 3)]
        times += [r.t1 for r in rng.sample(batch, 3)]
        windows = list(zip(times, reversed(times)))  # half of them inverted
        markers = [r.marker for r in rng.sample(batch, 4)] + [0, n + 5]
        assert_answers_like_oracles(batch, bare, times, windows, markers)
        with tempfile.TemporaryDirectory() as tmp:
            for name, write in LAYOUTS.items():
                path = write(Path(tmp) / f"{name}.trace", batch)
                idx = HistoryIndex.from_file(TraceFileReader(path))
                view = idx.trace
                assert view.history_index() is idx  # queries go to the index
                assert_answers_like_oracles(batch, view, times, windows, markers)
                assert_rows_built_once(view, windows)

    def test_deferred_records_survive_file_rewrite(self, tmp_path):
        # a one-block file decodes to views of its mapping; the index's
        # deferred records must still describe the file as it was read
        path = tmp_path / "one.trace"
        batch = make_batch(41, 40)
        write_plain(path, batch, index_block=512)
        idx = HistoryIndex.from_file(TraceFileReader(path))
        write_plain(path, make_batch(42, 40), index_block=512)
        assert list(idx.records) == batch


def assert_answers_like_oracles(batch, trace, times, windows, markers):
    """Every ``Trace`` query of ``trace`` equals the record walk of
    ``tests/oracles.py`` over ``batch``."""
    assert list(trace) == batch
    rows = oracles.by_proc(batch, NPROCS)
    for p in range(NPROCS):
        assert list(trace.by_proc(p)) == rows[p]
        for m in markers:
            assert trace.record_at_marker(p, m) == oracles.record_at_marker(rows[p], m)
        for t in times:
            for query in ("first_at_or_after", "first_ending_after", "last_before"):
                got = getattr(trace, query)(p, t)
                assert got == getattr(oracles, query)(rows[p], t), (query, p, t)
    for lo, hi in windows:
        assert trace.window(lo, hi) == oracles.window(batch, lo, hi), (lo, hi)
    assert trace.span == oracles.span(batch)
    assert trace.final_markers() == oracles.final_markers(batch)
    assert trace.counts_by_kind() == oracles.counts_by_kind(batch)
    assert trace.recv_counts() == oracles.recv_counts(batch, NPROCS)
    assert trace.send_counts() == oracles.send_counts(batch, NPROCS)
    want = oracles.match(batch)
    assert [(p.send.index, p.recv.index) for p in trace.message_pairs()] == want.pairs
    assert [r.index for r in trace.unmatched_sends()] == want.unmatched_sends
    assert [r.index for r in trace.unmatched_recvs()] == want.unmatched_recvs


def assert_rows_built_once(view, windows):
    """Every read of a row returns the one record built for it."""
    for i in range(len(view)):
        assert view[i] is view[i]
    for p in range(NPROCS):
        assert all(rec is view[rec.index] for rec in view.by_proc(p))
    for lo, hi in windows:
        assert all(rec is view[rec.index] for rec in view.window(lo, hi))
    for pair in view.message_pairs():
        assert pair.send is view[pair.send.index]
        assert pair.recv is view[pair.recv.index]
