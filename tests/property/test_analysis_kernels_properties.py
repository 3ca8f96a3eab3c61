"""Property: the vectorized analysis kernels equal the scalar reference
implementations in ``tests/oracles.py`` exactly.

Random synthetic traces -- messages with wildcard-receive patterns,
duplicate message keys, unmatched sends/receives, waits/collectives,
compute and some records that end before they start (negative
durations) -- are indexed batch, incrementally (streamed in chunks with
catch-up queries between chunks), as column blocks (the
``HistoryIndex.from_file`` feed) and as a mix of blocks and streamed
records, and every derived artifact must equal the oracle's: clock
matrices (integer-exact), matching pairs and unmatched lists,
intertwined messages (in order), window queries, race reports, critical
paths (bitwise float equality: the DP performs the same sequential
additions as the scalar loop), the row-table closures,
frontiers and stoplines (against the full-scan masks), and the cut
checks (against the set-based definition, on consistent and
inconsistent cuts alike).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.analysis import (
    HistoryIndex,
    analyze_frontiers,
    cut_of_frontier,
    is_consistent_cut,
    is_consistent_frontier,
)
from repro.analysis.critical_path import critical_path
from repro.analysis.matching import find_intertwined
from repro.analysis.races import detect_races
from repro.debugger.stopline import (
    Stopline,
    StoplinePlacement,
    compute_stopline,
    verify_stopline_consistency,
)
from repro.mp.datatypes import ANY_SOURCE, ANY_TAG, SourceLocation
from repro.trace.columnar import ColumnBlock
from repro.trace.events import EventKind, TraceRecord
from repro.trace.markers import MarkerVector
from tests import oracles

LOC = SourceLocation("prog.py", 1, "main")

OTHER_KINDS = (
    EventKind.COMPUTE,
    EventKind.WAIT,
    EventKind.BARRIER,
    EventKind.SENDRECV,
    EventKind.ALLREDUCE,
)


def _record(i, proc, kind, **kw):
    return TraceRecord(
        index=i, proc=proc, kind=kind, t0=kw.pop("t0"), t1=kw.pop("t1"),
        marker=i + 1, location=LOC, **kw,
    )


@hst.composite
def trace_records(draw, max_events=120, max_procs=5):
    """A causally-valid random record list with adversarial structure:
    wildcard receives, optional duplicate keys, drops (unmatched sends),
    stray receives (unmatched), zero-weight kinds, and -- in some
    traces -- records whose ``t1`` precedes their ``t0``."""
    nprocs = draw(hst.integers(1, max_procs))
    n = draw(hst.integers(1, max_events))
    dup_keys = draw(hst.booleans())
    negative = draw(hst.booleans())
    rng_seed = draw(hst.integers(0, 2**31))
    rng = np.random.default_rng(rng_seed)
    records, open_sends, seqs = [], [], {}
    t = 0.0
    for i in range(n):
        t += float(rng.random())
        if negative and rng.random() < 0.2:
            # this record ends before it starts: the DP must restart
            # fresh rather than extend a negative running total
            t_end = t - 3.0 * float(rng.random())
        else:
            t_end = None
        p = int(rng.integers(nprocs))
        roll = float(rng.random())
        if roll < 0.30:
            q = int(rng.integers(nprocs))
            tag = int(rng.integers(3))
            if dup_keys:
                seq = int(rng.integers(2))  # collisions on purpose
            else:
                seq = seqs.get((p, q), 0)
                seqs[(p, q)] = seq + 1
            rec = _record(i, p, EventKind.SEND, src=p, dst=q, tag=tag,
                          seq=seq, size=int(rng.integers(100)),
                          t0=t, t1=t + 0.1 if t_end is None else t_end)
            open_sends.append(rec)
            records.append(rec)
        elif roll < 0.55 and open_sends:
            # deliver a pending send (drop some: unmatched sends remain)
            s = open_sends.pop(int(rng.integers(len(open_sends))))
            extra = {}
            if rng.random() < 0.4:
                extra["posted_src"] = ANY_SOURCE
            if rng.random() < 0.3:
                extra["posted_tag"] = ANY_TAG
            records.append(
                _record(i, s.dst, EventKind.RECV, src=s.src, dst=s.dst,
                        tag=s.tag, seq=s.seq, extra=extra, t0=t,
                        t1=t + 0.2 if t_end is None else t_end)
            )
        elif roll < 0.62:
            # stray receive: no matching send exists
            records.append(
                _record(i, p, EventKind.RECV, src=int(rng.integers(nprocs)),
                        dst=p, tag=9, seq=10_000 + i, t0=t,
                        t1=t + 0.2 if t_end is None else t_end)
            )
        else:
            kind = OTHER_KINDS[int(rng.integers(len(OTHER_KINDS)))]
            records.append(_record(
                i, p, kind, t0=t, t1=t + 0.05 if t_end is None else t_end
            ))
    return nprocs, records


#: how :func:`build_index` feeds records: streamed one by one, as column
#: blocks (``ColumnBlock.from_records`` + ``extend_columns``, the
#: ``from_file`` path ``analyze`` runs), or alternating chunk by chunk
FEEDS = ("records", "columns", "mixed")


def build_index(nprocs, records, chunk, feed="records"):
    """The index under test; ``chunk`` > 0 feeds chunks of that size
    with interleaved catch-up queries (incremental path), 0 builds in
    one batch."""
    idx = HistoryIndex(nprocs=nprocs)
    size = chunk or max(len(records), 1)
    for k, lo in enumerate(range(0, len(records), size)):
        batch = records[lo:lo + size]
        if feed == "columns" or (feed == "mixed" and k % 2):
            idx.extend_columns(ColumnBlock.from_records(batch))
        elif chunk:
            for rec in batch:
                idx.extend(rec)
        else:
            idx.extend_many(batch)
        if chunk:
            idx.message_pairs()  # force incremental catch-up paths
            _ = idx.clocks
    return idx


def assert_matches_oracle(vec, records):
    ref = oracles.match(records)
    assert ref.pairs == [
        (p.send.index, p.recv.index) for p in vec.message_pairs()
    ]
    assert ref.unmatched_sends == [r.index for r in vec.unmatched_sends()]
    assert ref.unmatched_recvs == [r.index for r in vec.unmatched_recvs()]
    assert ref.send_of_recv == vec.send_of_recv
    return ref


def assert_same_matching(a, b):
    assert [(p.send.index, p.recv.index) for p in a.message_pairs()] == [
        (p.send.index, p.recv.index) for p in b.message_pairs()
    ]
    assert [r.index for r in a.unmatched_sends()] == [
        r.index for r in b.unmatched_sends()
    ]
    assert [r.index for r in a.unmatched_recvs()] == [
        r.index for r in b.unmatched_recvs()
    ]
    assert a.send_of_recv == b.send_of_recv


@settings(max_examples=60, deadline=None)
@given(trace_records(), hst.integers(0, 17), hst.sampled_from(FEEDS))
def test_clocks_and_matching_equal_oracle(tr, chunk, feed):
    nprocs, records = tr
    vec = build_index(nprocs, records, chunk, feed)
    ref = assert_matches_oracle(vec, records)
    np.testing.assert_array_equal(
        oracles.clocks(records, nprocs, ref.send_of_recv), vec.clocks
    )
    # lazy catch-up discipline: clocks are never rebuilt from scratch
    assert vec.stats().clock_builds == 1


@settings(max_examples=40, deadline=None)
@given(trace_records(), hst.integers(0, 17), hst.data())
def test_window_equals_oracle(tr, chunk, data):
    nprocs, records = tr
    vec = build_index(nprocs, records, chunk)
    t_lo, t_hi = vec.span
    a = data.draw(hst.floats(t_lo - 1.0, t_hi + 1.0, allow_nan=False))
    b = data.draw(hst.floats(t_lo - 1.0, t_hi + 1.0, allow_nan=False))
    for lo, hi in [(min(a, b), max(a, b)), (t_lo, t_hi), (t_hi, t_lo)]:
        assert [r.index for r in oracles.window(records, lo, hi)] == [
            r.index for r in vec.window(lo, hi)
        ]


@settings(max_examples=40, deadline=None)
@given(
    trace_records(), hst.booleans(), hst.integers(0, 17),
    hst.sampled_from(FEEDS),
)
def test_races_equal_oracle(tr, include_tag_wildcards, chunk, feed):
    nprocs, records = tr
    vec = build_index(nprocs, records, chunk, feed)
    ref = oracles.match(records)

    def key(races):
        return [
            (r.recv.index, r.matched_send.index, [a.index for a in r.alternatives])
            for r in races
        ]

    ra = oracles.detect_races(
        records,
        ref.send_of_recv,
        oracles.clocks(records, nprocs, ref.send_of_recv),
        include_tag_wildcards=include_tag_wildcards,
    )
    rb = detect_races(
        vec.trace, include_tag_wildcards=include_tag_wildcards, index=vec
    )
    assert key(ra) == key(rb)


@settings(max_examples=40, deadline=None)
@given(trace_records(), hst.integers(0, 17), hst.sampled_from(FEEDS))
def test_critical_path_equals_oracle(tr, chunk, feed):
    nprocs, records = tr
    vec = build_index(nprocs, records, chunk, feed)
    ca = oracles.critical_path(records, oracles.match(records).send_of_recv)
    cb = critical_path(vec.trace, index=vec)
    assert [r.index for r in ca.records] == [r.index for r in cb.records]
    assert ca.length == cb.length  # bitwise: same sequential additions
    assert ca.span == cb.span
    assert ca.weights == cb.weights


@settings(max_examples=40, deadline=None)
@given(trace_records(), hst.integers(0, 17))
def test_intertwined_equals_oracle(tr, chunk):
    nprocs, records = tr
    vec = build_index(nprocs, records, chunk)
    pairs = [(records[s], records[r]) for s, r in oracles.match(records).pairs]
    assert find_intertwined(vec.trace, index=vec) == oracles.intertwined(pairs)


@settings(max_examples=25, deadline=None)
@given(trace_records(), hst.integers(1, 17))
def test_streamed_equals_batch(tr, chunk):
    nprocs, records = tr
    batch = HistoryIndex(records, nprocs=nprocs)
    streamed = HistoryIndex(nprocs=nprocs)
    for lo in range(0, len(records), chunk):
        for rec in records[lo:lo + chunk]:
            streamed.extend(rec)
        streamed.message_pairs()
        _ = streamed.clocks
        t0, t1 = streamed.span
        streamed.window(t0, (t0 + t1) / 2)
    np.testing.assert_array_equal(batch.clocks, streamed.clocks)
    assert_same_matching(batch, streamed)
    assert streamed.stats().clock_builds == 1
    assert streamed.stats().matching_builds == 1
    assert streamed.stats().window_builds == 1


def with_start_markers(records):
    """Give each process's first record marker 0, as a ``PROC_START``
    record has: no stopline may then produce a threshold of 0."""
    seen = set()
    out = []
    for rec in records:
        if rec.proc not in seen:
            seen.add(rec.proc)
            rec = replace(rec, marker=0)
        out.append(rec)
    return out


def assert_frontiers_equal_oracle(idx, order, e, clocks, procs, markers):
    """Closures, frontier members, concurrency region and both frontier
    stoplines of ``e`` equal the full-scan oracle over ``clocks``."""
    ref = oracles.frontiers(clocks, procs, e)
    assert order.past(e).tolist() == ref.past.tolist()
    assert order.future(e).tolist() == ref.future.tolist()
    assert order.concurrency_region(e).tolist() == ref.concurrency.tolist()
    if order is not idx.order:
        return  # a held snapshot: the analyses below read the live index
    fa = analyze_frontiers(idx.trace, e, index=idx)
    nprocs = clocks.shape[1]
    for frontier, members in ((fa.past_frontier, ref.last_past),
                              (fa.future_frontier, ref.first_future)):
        got = [frontier.event(p) for p in range(nprocs)]
        assert [r.index if r is not None else -1 for r in got] == members.tolist()
    assert fa.concurrency_indexes == ref.concurrency.tolist()
    past, future = oracles.frontier_stoplines(markers, procs, e, ref)
    assert fa.past_stopline() == past
    assert fa.future_stopline() == future
    trace = idx.trace
    for placement, want in ((StoplinePlacement.PAST_FRONTIER, past),
                            (StoplinePlacement.FUTURE_FRONTIER, future)):
        sl = compute_stopline(trace, e, placement, index=idx)
        assert sl.thresholds.as_dict() == want


@settings(max_examples=40, deadline=None)
@given(trace_records(), hst.integers(0, 17), hst.booleans())
def test_frontiers_equal_oracle(tr, chunk, start_markers):
    """Every event, batch (``chunk == 0``) or appended to the index in
    chunks: each chunk's events are queried as they arrive
    (row-table catch-up), an order held from before the chunk still
    answers for its snapshot, and every event is queried at the end."""
    nprocs, records = tr
    if start_markers:
        records = with_start_markers(records)
    clocks = oracles.clocks(records, nprocs, oracles.match(records).send_of_recv)
    procs = np.array([r.proc for r in records], dtype=np.int64)
    markers = [r.marker for r in records]

    def check(idx, order, e, n):
        assert_frontiers_equal_oracle(
            idx, order, e, clocks[:n], procs[:n], markers[:n]
        )

    idx = HistoryIndex(nprocs=nprocs)
    if chunk:
        for lo in range(0, len(records), chunk):
            held = idx.order if lo else None
            for rec in records[lo:lo + chunk]:
                idx.extend(rec)
            hi = len(idx)
            if held is not None:
                check(idx, held, lo - 1, lo)
            for e in range(lo, hi):
                check(idx, idx.order, e, hi)
        assert idx.stats().row_builds == 1
    else:
        idx.extend_many(records)
    for e in range(len(records)):
        check(idx, idx.order, e, len(records))


@settings(max_examples=40, deadline=None)
@given(trace_records(), hst.data())
def test_cut_checks_equal_oracle(tr, data):
    """is_consistent_cut, cut_of_frontier, is_consistent_frontier and
    verify_stopline_consistency equal the set-based definitions on
    random per-process cuts, most of them inconsistent."""
    nprocs, records = tr
    idx = HistoryIndex(records, nprocs=nprocs)
    trace = idx.trace
    pairs = oracles.match(records).pairs
    rows = [[r.index for r in records if r.proc == p] for p in range(nprocs)]

    # a per-process prefix set
    lengths = [data.draw(hst.integers(0, len(row))) for row in rows]
    prefix = {i for row, k in zip(rows, lengths) for i in row[:k]}
    assert is_consistent_cut(trace, prefix, index=idx) == (
        oracles.cut_is_consistent(pairs, prefix)
    )

    # a frontier: at most one member per process
    members = []
    for row in rows:
        if row and data.draw(hst.booleans()):
            members.append(data.draw(hst.sampled_from(row)))
    inclusive = data.draw(hst.booleans())
    cut = {
        i for m in members for i in rows[records[m].proc]
        if i < m or (inclusive and i == m)
    }
    assert cut_of_frontier(trace, members, inclusive, index=idx) == cut
    assert is_consistent_frontier(trace, members, inclusive, index=idx) == (
        oracles.cut_is_consistent(pairs, cut)
    )
    # frontiers on both ends of a message: the cut's edge runs right
    # through the pair
    for s, r in pairs:
        if records[s].proc == records[r].proc:
            continue
        for edge in (True, False):
            cut = {
                i for m in (s, r) for i in rows[records[m].proc]
                if i < m or (edge and i == m)
            }
            assert is_consistent_frontier(trace, [s, r], edge, index=idx) == (
                oracles.cut_is_consistent(pairs, cut)
            )
    if members:
        twice = members + [rows[records[members[0]].proc][0]]
        assert cut_of_frontier(trace, twice, inclusive, index=idx) is None
        assert not is_consistent_frontier(trace, twice, inclusive, index=idx)

    # stopline thresholds: "marker < threshold" on thresholded ranks
    def assert_stopline_check(thresholds):
        included = {
            r.index for r in records
            if r.proc not in thresholds or r.marker < thresholds[r.proc]
        }
        sl = Stopline(
            StoplinePlacement.VERTICAL, 0.0, None, MarkerVector(thresholds)
        )
        assert verify_stopline_consistency(trace, sl, index=idx) == (
            oracles.cut_is_consistent(pairs, included)
        )

    top = max(r.marker for r in records) + 2
    assert_stopline_check({
        p: data.draw(hst.integers(0, top))
        for p in range(nprocs) if data.draw(hst.booleans())
    })
    for s, r in pairs:  # thresholds right at a message's endpoints
        ps, pr = records[s].proc, records[r].proc
        if ps != pr:
            for past_recv in (0, 1):
                assert_stopline_check(
                    {ps: records[s].marker, pr: records[r].marker + past_recv}
                )
