"""Rows of the in-memory history index are records only when read.

Contracts:

* the column store is the index's only copy of a column-ingested row:
  matching, clocks, frontiers and past-frontier stoplines build no
  record object (``stats().records_built`` stays 0);
* a read builds exactly the rows it returns that were not built yet,
  and a second read of a row returns the same object;
* an inverted window holds nothing on every path -- the in-memory
  index, a bare trace, the file reader (single file and shard set) and
  the paged index -- and all four agree on degenerate and
  boundary-touching windows;
* ``IndexStats.snapshot()`` copies every counter.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import (
    HistoryIndex,
    analyze_frontiers,
    analyze_matching,
)
from repro.analysis.history import IndexStats
from repro.analysis.paged import OutOfCoreIndex
from repro.apps.ring import halo_program
from repro.debugger.stopline import StoplinePlacement, compute_stopline
from repro.mp.datatypes import SourceLocation
from repro.trace import (
    EventKind,
    Trace,
    TraceFileReader,
    TraceFileWriter,
    TraceRecord,
    TraceShardWriter,
)
from tests.conftest import traced_run

NPROCS = 8


@pytest.fixture(scope="module")
def halo_store(tmp_path_factory):
    """A clean (fully matched) halo trace in a multi-block v3 file."""
    _, trace = traced_run(halo_program(steps=8), NPROCS)
    path = tmp_path_factory.mktemp("lazy") / "halo.trace"
    with TraceFileWriter(path, NPROCS, index_block=32) as w:
        for rec in trace:
            w.write(rec)
    reader = TraceFileReader(path)
    assert len(reader.block_entries()) > 4
    return path, list(trace)


def test_kernels_build_no_records(halo_store):
    path, records = halo_store
    idx = HistoryIndex.from_file(TraceFileReader(path))
    assert idx.stats().records_built == 0
    assert len(idx.message_pairs()) > 0
    report = analyze_matching(idx.trace, index=idx)
    assert report.clean and not report.intertwined
    _ = idx.order
    anchors = range(len(idx) // 4, len(idx), len(idx) // 5)
    for a in anchors:
        fa = analyze_frontiers(idx.trace, a, index=idx)
        assert fa.past_frontier.indexes()
        sl = compute_stopline(idx.trace, a, StoplinePlacement.PAST_FRONTIER, index=idx)
        assert sl.thresholds.as_dict()
    assert idx.stats().records_built == 0
    # the frontier's members and the stopline's anchor are built on read
    assert fa.past_frontier.event(fa.event.proc) is not None
    assert sl.anchor is idx.trace[a]
    assert sl.anchor == records[a]


def test_window_builds_its_distinct_rows_once(halo_store):
    path, records = halo_store
    idx = HistoryIndex.from_file(TraceFileReader(path))
    first = idx.trace[3]
    assert idx.stats().records_built == 1
    lo, hi = records[10].t0, records[60].t1
    got = idx.window(lo, hi)
    expected = [r for r in records if r.t1 >= lo and r.t0 <= hi]
    assert got == expected
    built_rows = {r.index for r in got} | {3}
    assert idx.stats().records_built == len(built_rows)
    again = idx.window(lo, hi)
    assert idx.stats().records_built == len(built_rows)
    assert all(a is b for a, b in zip(got, again))
    assert all(r is idx.trace[r.index] for r in got)
    assert idx.trace[3] is first


def test_unordered_and_repeated_rows_build_once(halo_store):
    path, records = halo_store
    idx = HistoryIndex.from_file(TraceFileReader(path))
    rows = [40, 7, 40, 7]
    got = idx.records_at(rows)
    assert got == [records[i] for i in rows]
    assert got[0] is got[2] and got[1] is got[3]
    assert idx.stats().records_built == 2
    rows = [8, 8, 9, 9, 40]  # ascending, not distinct
    assert idx.records_at(rows) == [records[i] for i in rows]
    assert idx.stats().records_built == 4
    assert idx.records_at(i for i in (50, 51, 50)) == [records[50], records[51], records[50]]
    assert idx.stats().records_built == 6
    assert list(idx.trace) == records
    assert idx.stats().records_built == len(records)


def test_rows_stay_readable_after_invalidation(halo_store):
    path, records = halo_store
    idx = HistoryIndex.from_file(TraceFileReader(path))
    trace = idx.trace
    pairs = idx.message_pairs()
    idx.invalidate()
    assert list(trace) == records
    assert trace.by_proc(2) == [r for r in records if r.proc == 2]
    assert pairs[0].recv == records[pairs[0].recv.index]


def test_stats_snapshot_copies_every_counter():
    stats = IndexStats()
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            value["x"] = 7
        else:
            setattr(stats, f.name, type(value)(3))
    snap = stats.snapshot()
    assert snap == stats
    for f in dataclasses.fields(stats):
        value = getattr(snap, f.name)
        if isinstance(value, dict):
            assert value is not getattr(stats, f.name)
    assert "records built : 3 of 3 row(s)" in snap.as_text()


# ----------------------------------------------------------------------
# window semantics agree on every path
# ----------------------------------------------------------------------
def _record(i, proc, t0, t1):
    return TraceRecord(
        index=i, proc=proc, kind=EventKind.COMPUTE, t0=t0, t1=t1,
        marker=i + 1, location=SourceLocation("w.py", i, "fn"),
    )


def _window_paths(tmp_path, records, nprocs):
    single = tmp_path / "single.trace"
    with TraceFileWriter(single, nprocs, index_block=2) as w:
        for rec in records:
            w.write(rec)
    sharded = tmp_path / "sharded.trace"
    with TraceShardWriter(sharded, nprocs, index_block=2, by="proc") as w:
        for rec in records:
            w.write(rec)
    index = HistoryIndex(records, nprocs=nprocs)
    return {
        "index": index.window,
        "trace": Trace(records, nprocs).window,
        "file": TraceFileReader(single).seek_window,
        "shards": TraceFileReader(sharded).seek_window,
        "paged": OutOfCoreIndex(TraceFileReader(single), cache_blocks=2).window,
    }


@pytest.mark.parametrize("records, windows", [
    # the one-record trace: t0=1, t1=5
    ([_record(0, 0, 1.0, 5.0)],
     [(4.0, 2.0), (5.0, 1.0), (3.0, 3.0), (1.0, 1.0), (5.0, 5.0),
      (0.0, 1.0), (5.0, 9.0), (5.5, 6.0), (0.0, 0.5), (6.0, 0.0)]),
    ([_record(0, 0, 0.0, 1.0), _record(1, 1, 1.0, 2.0),
      _record(2, 0, 2.0, 2.0), _record(3, 1, 2.5, 4.0),
      _record(4, 0, 3.0, 3.5)],
     [(2.0, 2.0), (1.0, 1.0), (2.0, 1.0), (3.5, 2.5), (4.0, 4.0),
      (0.0, 0.0), (2.2, 2.4), (-1.0, 9.0), (9.0, -1.0), (1.5, 3.0)]),
])
def test_window_paths_agree(tmp_path, records, windows):
    paths = _window_paths(tmp_path, records, 2)
    for lo, hi in windows:
        expected = (
            [] if lo > hi
            else [r.index for r in records if r.t1 >= lo and r.t0 <= hi]
        )
        for name, window in paths.items():
            got = [r.index for r in window(lo, hi)]
            assert got == expected, (name, lo, hi)
