"""The compact clock state of a HistoryIndex: its size and its stats.

The index keeps vector clocks as a table with one row per matched
receive join (after a zero row) plus a segment id and an own count per
row -- O(joins * p + n) -- and never the (n, p) matrix.  The memory pin
below measures what building the clocks allocates on a 64-rank trace;
the stats pin checks ``clock_rows`` and ``clock_bytes`` on a trace small
enough to count by hand.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.analysis import HistoryIndex
from repro.mp.datatypes import SourceLocation
from repro.trace import EventKind, TraceRecord
from tests import oracles

LOC = SourceLocation("ring.py", 1, "main")


def ring_records(nprocs: int, rounds: int) -> list[TraceRecord]:
    """Per round, every rank computes, sends right, computes and
    receives from its left: four events per rank, one in four a join."""
    records: list[TraceRecord] = []

    def add(proc, kind, **kw):
        i = len(records)
        records.append(TraceRecord(
            index=i, proc=proc, kind=kind, t0=float(i), t1=i + 0.5,
            marker=i + 1, location=LOC, **kw,
        ))

    for k in range(rounds):
        for p in range(nprocs):
            add(p, EventKind.COMPUTE)
        for p in range(nprocs):
            add(p, EventKind.SEND, src=p, dst=(p + 1) % nprocs, tag=0, seq=k)
        for p in range(nprocs):
            add(p, EventKind.COMPUTE)
        for p in range(nprocs):
            add(p, EventKind.RECV, src=(p - 1) % nprocs, dst=p, tag=0, seq=k)
    return records


def test_clock_build_allocates_far_less_than_the_matrix():
    """Building the causal order of 51,200 events on 64 ranks peaks
    below half of the (n, p) int64 matrix it replaces."""
    nprocs = 64
    records = ring_records(nprocs, rounds=200)
    n = len(records)
    idx = HistoryIndex(records, nprocs=nprocs)
    idx.message_pairs()  # matching and the trace view are not clocks
    _ = idx.trace
    tracemalloc.start()
    try:
        order = idx.order
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * nprocs * 8 // 2, (peak, n * nprocs * 8)
    # ... and answers like the matrix
    sample = np.arange(0, n, 997)
    ref = oracles.clocks(records, nprocs, idx.send_of_recv)
    np.testing.assert_array_equal(order.clocks.rows(sample), ref[sample])
    stats = idx.stats()
    assert stats.clock_rows == 1 + n // 4
    assert stats.clock_bytes < n * nprocs * 8 // 2


def test_clock_stats_on_a_known_trace():
    """Two ranks exchange one message each way: two joins, so three
    table rows of two components, and a segment and own count for each
    of the four events."""
    records = [  # the index renumbers them positionally
        r for r in ring_records(2, rounds=1) if r.kind is not EventKind.COMPUTE
    ]
    idx = HistoryIndex(nprocs=2)
    before = idx.stats()
    assert (before.clock_rows, before.clock_bytes) == (1, 2 * 8)
    idx.extend_many(records)
    _ = idx.order
    stats = idx.stats()
    assert stats.clock_rows == 3
    assert stats.clock_bytes == 3 * 2 * 8 + 2 * 4 * 8
    assert "clock state   : 3 table row(s), 112 bytes" in stats.as_text()

