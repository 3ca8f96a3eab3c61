"""The HistoryIndex shared analysis substrate.

Covers the tentpole invariants:

* incremental (record-by-record) index state equals the batch-derived
  reference (``compute_causal_order`` + ``Trace._match_messages``);
* a multi-analysis session (stopline -> frontiers -> races -> critical
  path) performs exactly one vector-clock build and one matching build,
  asserted via ``HistoryIndex.stats()``;
* ``ensure_index`` memoizes one index per Trace object;
* ``Trace.span`` is computed once and cached;
* the vectorized ``is_antichain`` agrees with the pairwise
  ``happens_before`` definition;
* stale indexes refuse queries.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import traced_run
from repro.analysis import (
    HistoryIndex,
    StaleIndexError,
    compute_causal_order,
    critical_path,
    detect_races,
    ensure_index,
    is_antichain,
    analyze_frontiers,
    analyze_matching,
)
from repro.apps.lu import LUConfig, lu_program
from repro.apps.ring import ring_program
from repro.debugger.stopline import StoplinePlacement, compute_stopline


@pytest.fixture(scope="module")
def lu_trace():
    cfg = LUConfig(grid=16, nprocs=8, panels=2, sweeps=2)
    _, trace = traced_run(lu_program(cfg), 8)
    return trace


@pytest.fixture()
def ring_trace():
    _, trace = traced_run(ring_program(rounds=2), 4)
    return trace


# ----------------------------------------------------------------------
# incremental == batch
# ----------------------------------------------------------------------
def test_incremental_equals_batch_clocks_and_matching(lu_trace):
    """Feeding records one at a time (with interleaved queries forcing
    repeated catch-ups) yields the exact batch-derived state."""
    batch_order = compute_causal_order(lu_trace)
    index = HistoryIndex(nprocs=lu_trace.nprocs)
    for k, rec in enumerate(lu_trace):
        index.extend(rec)
        if k % 97 == 0:
            # interleaved query: forces an incremental catch-up mid-stream
            index.message_pairs()
            _ = index.clocks
    assert len(index) == len(lu_trace)
    np.testing.assert_array_equal(index.clocks, batch_order.clocks)
    assert [(p.send.index, p.recv.index) for p in index.message_pairs()] == [
        (p.send.index, p.recv.index) for p in lu_trace.message_pairs()
    ]
    assert [r.index for r in index.unmatched_sends()] == sorted(
        r.index for r in lu_trace.unmatched_sends()
    )
    assert [r.index for r in index.unmatched_recvs()] == [
        r.index for r in lu_trace.unmatched_recvs()
    ]
    # catch-ups extended the components; they never rebuilt them
    stats = index.stats()
    assert stats.clock_builds == 1
    assert stats.matching_builds == 1
    assert stats.clock_extends == len(lu_trace)
    assert stats.matching_extends == len(lu_trace)


def test_incremental_rows_and_span_match_trace(ring_trace):
    index = HistoryIndex(ring_trace.records, nprocs=ring_trace.nprocs)
    for p in range(ring_trace.nprocs):
        assert [r.index for r in index.by_proc(p)] == [
            r.index for r in ring_trace.by_proc(p)
        ]
    assert index.span == ring_trace.span
    for p in range(ring_trace.nprocs):
        for rec in ring_trace.by_proc(p):
            assert index.record_at_marker(p, rec.marker) is not None


# ----------------------------------------------------------------------
# one build per multi-analysis session (the acceptance criterion)
# ----------------------------------------------------------------------
def test_multi_analysis_session_derives_once(lu_trace):
    """stopline -> frontiers -> races -> critical path on the same trace:
    exactly one vector-clock build and one matching build."""
    index = ensure_index(lu_trace)

    event = next(r.index for r in lu_trace if r.is_recv)
    compute_stopline(
        lu_trace, event, StoplinePlacement.PAST_FRONTIER, index=index
    )
    analyze_frontiers(lu_trace, event, index=index)
    detect_races(lu_trace, index=index)
    critical_path(lu_trace, index=index)
    analyze_matching(lu_trace, index=index)

    stats = index.stats()
    assert stats.clock_builds == 1
    assert stats.matching_builds == 1

    # the bare-trace signatures share the same memoized index: still one
    analyze_frontiers(lu_trace, event)
    detect_races(lu_trace)
    critical_path(lu_trace)
    stats = ensure_index(lu_trace).stats()
    assert stats.clock_builds == 1
    assert stats.matching_builds == 1


def test_ensure_index_memoizes_on_trace(ring_trace):
    a = ensure_index(ring_trace)
    b = ensure_index(ring_trace)
    assert a is b
    assert ring_trace.history_index() is a
    # an explicit index argument wins over the memoized one
    other = HistoryIndex(ring_trace.records, nprocs=ring_trace.nprocs)
    assert ensure_index(ring_trace, index=other) is other


def test_trace_adopts_bound_index_matching(ring_trace):
    """Trace.message_pairs() reuses the bound index's matching instead of
    re-deriving (the back-compat seam)."""
    index = ensure_index(ring_trace)
    pairs = index.message_pairs()
    assert ring_trace.message_pairs() is pairs


def test_index_from_stream_without_trace():
    """ensure_index accepts a bare record iterator (streaming form)."""
    _, trace = traced_run(ring_program(rounds=1), 3)
    index = ensure_index(iter(list(trace)))
    assert len(index) == len(trace)
    assert index.order.happens_before(0, len(trace) - 1) in (True, False)


# ----------------------------------------------------------------------
# satellite: Trace.span caching
# ----------------------------------------------------------------------
def test_trace_span_cached(ring_trace):
    first = ring_trace.span
    assert ring_trace._span == first
    assert ring_trace.span is ring_trace.span  # same tuple object
    empty = type(ring_trace)([], 2)
    assert empty.span == (0.0, 0.0)


# ----------------------------------------------------------------------
# satellite: vectorized is_antichain == pairwise definition
# ----------------------------------------------------------------------
def test_is_antichain_matches_pairwise_definition(lu_trace):
    order = ensure_index(lu_trace).order
    rng = np.random.default_rng(7)
    n = len(lu_trace)
    for _ in range(25):
        k = int(rng.integers(1, 8))
        sel = [int(i) for i in rng.integers(0, n, size=k)]
        expected = not any(
            order.happens_before(a, b)
            for a in sel
            for b in sel
            if a != b
        )
        assert is_antichain(lu_trace, sel) == expected
    assert is_antichain(lu_trace, [])
    assert is_antichain(lu_trace, [3])
    assert is_antichain(lu_trace, [3, 3])  # duplicates are one event


# ----------------------------------------------------------------------
# staleness
# ----------------------------------------------------------------------
def test_stale_index_refuses_queries(ring_trace):
    index = ensure_index(ring_trace)
    index.message_pairs()
    index.invalidate()
    assert index.stale
    with pytest.raises(StaleIndexError):
        index.message_pairs()
    with pytest.raises(StaleIndexError):
        _ = index.order
    with pytest.raises(StaleIndexError):
        index.extend(ring_trace[0])
    with pytest.raises(StaleIndexError):
        _ = index.records
    # a fresh ensure_index call replaces the stale memoized one
    fresh = ensure_index(ring_trace)
    assert fresh is not index
    assert not fresh.stale


# ----------------------------------------------------------------------
# column store & proc validation
# ----------------------------------------------------------------------
def test_extend_rejects_out_of_range_proc(ring_trace):
    from dataclasses import replace

    index = HistoryIndex(nprocs=ring_trace.nprocs)
    index.extend(ring_trace[0])
    bad_high = replace(ring_trace[1], proc=ring_trace.nprocs)
    with pytest.raises(ValueError, match="outside"):
        index.extend(bad_high)
    bad_low = replace(ring_trace[1], proc=-1)
    with pytest.raises(ValueError, match="outside"):
        index.extend(bad_low)
    # the failed extends left no partial state behind
    assert len(index) == 1
    assert index.column("proc").tolist() == [ring_trace[0].proc]
    index.extend(ring_trace[1])
    assert len(index) == 2


def test_extend_columns_rejects_out_of_range_proc(ring_trace):
    from dataclasses import replace

    from repro.trace.columnar import ColumnBlock

    records = [replace(r) for r in ring_trace[:4]]
    records[2] = replace(records[2], proc=ring_trace.nprocs + 3)
    block = ColumnBlock.from_records(records)
    index = HistoryIndex(nprocs=ring_trace.nprocs)
    with pytest.raises(ValueError, match="outside"):
        index.extend_columns(block)
    assert len(index) == 0  # nothing ingested from the bad block


def test_column_store_mirrors_records(ring_trace):
    from repro.trace.columnar import KIND_CODES

    index = ensure_index(ring_trace)
    cols = index.columns
    assert cols["index"].tolist() == [r.index for r in ring_trace]
    assert cols["proc"].tolist() == [r.proc for r in ring_trace]
    assert cols["kind"].tolist() == [KIND_CODES[r.kind] for r in ring_trace]
    assert cols["src"].tolist() == [r.src for r in ring_trace]
    assert cols["t0"].tolist() == [r.t0 for r in ring_trace]
    assert cols["seq"].tolist() == [r.seq for r in ring_trace]


def test_window_index_is_incremental(ring_trace):
    index = HistoryIndex(nprocs=ring_trace.nprocs)
    half = len(ring_trace) // 2
    for rec in ring_trace[:half]:
        index.extend(rec)
    t0, t1 = index.span
    first = [r.index for r in index.window(t0, t1)]
    assert first == [r.index for r in ring_trace[:half]]
    for rec in ring_trace[half:]:
        index.extend(rec)
    t0, t1 = index.span
    assert [r.index for r in index.window(t0, t1)] == [
        r.index for r in ring_trace
    ]
    stats = index.stats()
    assert stats.window_builds == 1  # extension merged, not rebuilt
    assert stats.window_extends == len(ring_trace)


def test_kernel_stats_surfaced(ring_trace):
    index = ensure_index(ring_trace)
    detect_races(ring_trace, index=index)
    critical_path(ring_trace, index=index)
    stats = index.stats()
    assert stats.kernel_calls == {"races": 1, "critical_path": 1}
    text = stats.as_text()
    assert "kernel races" in text and "kernel critical_path" in text
