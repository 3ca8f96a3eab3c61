"""Property: the vectorized analysis kernels equal the scalar reference
implementations in ``tests/oracles.py`` exactly.

Random synthetic traces -- messages with wildcard-receive patterns,
duplicate message keys, unmatched sends/receives, waits/collectives and
compute -- are indexed batch and incrementally (streamed in chunks with
catch-up queries between chunks), and every derived artifact must equal
the oracle's: clock matrices (integer-exact), matching pairs and
unmatched lists, window queries, race reports, and critical paths
(bitwise float equality: the segment ``cumsum`` DP performs the same
sequential additions as the scalar loop).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.analysis import HistoryIndex
from repro.analysis.critical_path import critical_path
from repro.analysis.races import detect_races
from repro.mp.datatypes import ANY_SOURCE, ANY_TAG, SourceLocation
from repro.trace.events import EventKind, TraceRecord
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
    stray receives (unmatched), zero-weight kinds."""
    nprocs = draw(hst.integers(1, max_procs))
    n = draw(hst.integers(1, max_events))
    dup_keys = draw(hst.booleans())
    rng_seed = draw(hst.integers(0, 2**31))
    rng = np.random.default_rng(rng_seed)
    records, open_sends, seqs = [], [], {}
    t = 0.0
    for i in range(n):
        t += float(rng.random())
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
                          t0=t, t1=t + 0.1)
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
                        tag=s.tag, seq=s.seq, extra=extra, t0=t, t1=t + 0.2)
            )
        elif roll < 0.62:
            # stray receive: no matching send exists
            records.append(
                _record(i, p, EventKind.RECV, src=int(rng.integers(nprocs)),
                        dst=p, tag=9, seq=10_000 + i, t0=t, t1=t + 0.2)
            )
        else:
            kind = OTHER_KINDS[int(rng.integers(len(OTHER_KINDS)))]
            records.append(_record(i, p, kind, t0=t, t1=t + 0.05))
    return nprocs, records


def build_index(nprocs, records, chunk):
    """The index under test; ``chunk`` > 0 streams with interleaved
    catch-up queries (incremental path), 0 builds in batch."""
    idx = HistoryIndex(nprocs=nprocs)
    if chunk:
        for lo in range(0, len(records), chunk):
            for rec in records[lo:lo + chunk]:
                idx.extend(rec)
            idx.message_pairs()  # force incremental catch-up paths
            _ = idx.clocks
    else:
        idx.extend_many(records)
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
@given(trace_records(), hst.integers(0, 17))
def test_clocks_and_matching_equal_oracle(tr, chunk):
    nprocs, records = tr
    vec = build_index(nprocs, records, chunk)
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
@given(trace_records(), hst.booleans())
def test_races_equal_oracle(tr, include_tag_wildcards):
    nprocs, records = tr
    vec = build_index(nprocs, records, 0)
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
@given(trace_records())
def test_critical_path_equals_oracle(tr):
    nprocs, records = tr
    vec = build_index(nprocs, records, 0)
    ca = oracles.critical_path(records, oracles.match(records).send_of_recv)
    cb = critical_path(vec.trace, index=vec)
    assert [r.index for r in ca.records] == [r.index for r in cb.records]
    assert ca.length == cb.length  # bitwise: same sequential additions
    assert ca.span == cb.span
    assert ca.weights == cb.weights


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
