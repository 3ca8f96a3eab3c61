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
* On every layout, the ``Trace`` view of such an index answers every
  ``Trace`` query exactly as a bare ``Trace`` of the records does, and
  a repeated read of a row returns the identical record object.
"""

from __future__ import annotations

import random
import sys
import tempfile
import threading
from dataclasses import replace
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
        batch = well_formed(make_batch(seed, n))
        bare = Trace(batch, NPROCS)
        rng = random.Random(seed)
        times = [rng.uniform(-5, 105) for _ in range(4)]
        times += [r.t0 for r in rng.sample(batch, 3)]
        times += [r.t1 for r in rng.sample(batch, 3)]
        windows = list(zip(times, reversed(times)))  # half of them inverted
        markers = [r.marker for r in rng.sample(batch, 4)] + [0, n + 5]
        with tempfile.TemporaryDirectory() as tmp:
            for name, write in LAYOUTS.items():
                path = write(Path(tmp) / f"{name}.trace", batch)
                view = HistoryIndex.from_file(TraceFileReader(path)).trace
                assert_same_trace(bare, view, times, windows, markers)

    def test_deferred_records_survive_file_rewrite(self, tmp_path):
        # a one-block file decodes to views of its mapping; the index's
        # deferred records must still describe the file as it was read
        path = tmp_path / "one.trace"
        batch = make_batch(41, 40)
        write_plain(path, batch, index_block=512)
        idx = HistoryIndex.from_file(TraceFileReader(path))
        write_plain(path, make_batch(42, 40), index_block=512)
        assert list(idx.records) == batch


def well_formed(batch):
    """Give ``make_batch``'s message records unambiguous keys.

    Its sends and receives all share the key (-1, -1, -1, -1), on which
    a bare ``Trace``'s two-pass matcher and the index's causal matcher
    legitimately differ.  Here every send gets a key of its own, most
    receives take the key of the oldest still-open earlier send, and
    the rest a key no send has.
    """
    out, open_sends = [], []
    for rec in batch:
        if rec.is_send:
            rec = replace(rec, src=rec.proc, dst=(rec.proc + 1) % NPROCS,
                          tag=rec.index % 3, seq=rec.index)
            open_sends.append(rec)
        elif rec.is_recv:
            if open_sends and rec.index % 4:
                s = open_sends.pop(0)
                rec = replace(rec, src=s.src, dst=s.dst, tag=s.tag, seq=s.seq)
            else:
                rec = replace(rec, src=0, dst=rec.proc, tag=9, seq=-2 - rec.index)
        out.append(rec)
    return out


def assert_same_trace(bare, view, times, windows, markers):
    assert view.history_index().answers_for(view)  # queries go to the index
    assert len(view) == len(bare)
    for p in range(NPROCS):
        assert list(view.by_proc(p)) == list(bare.by_proc(p))
        for m in markers:
            assert view.record_at_marker(p, m) == bare.record_at_marker(p, m)
        for t in times:
            for query in ("first_at_or_after", "first_ending_after", "last_before"):
                got = getattr(view, query)(p, t)
                assert got == getattr(bare, query)(p, t), (query, p, t)
    for lo, hi in windows:
        assert view.window(lo, hi) == bare.window(lo, hi), (lo, hi)
    assert view.span == bare.span
    for query in ("final_markers", "counts_by_kind", "recv_counts", "send_counts"):
        assert getattr(view, query)() == getattr(bare, query)(), query
    assert list(view.message_pairs()) == list(bare.message_pairs())
    assert view.unmatched_sends() == bare.unmatched_sends()
    assert view.unmatched_recvs() == bare.unmatched_recvs()
    # every read of a row returns the one record built for it
    assert list(view) == list(bare)
    for i in range(len(view)):
        assert view[i] is view[i]
    for p in range(NPROCS):
        assert all(rec is view[rec.index] for rec in view.by_proc(p))
    for lo, hi in windows:
        assert all(rec is view[rec.index] for rec in view.window(lo, hi))
    for pair in view.message_pairs():
        assert pair.send is view[pair.send.index]
        assert pair.recv is view[pair.recv.index]
