"""Trace records, the Trace container, markers, and trace files."""

from __future__ import annotations

import pytest

from repro.mp.datatypes import SourceLocation
from repro.trace import (
    EventKind,
    ExecutionMarker,
    MarkerVector,
    Trace,
    TraceFileError,
    TraceFileReader,
    TraceFileWriter,
    TraceRecord,
    load_trace,
    save_trace,
)


def rec(index, proc, kind, t0, t1, marker, **kw):
    return TraceRecord(index=index, proc=proc, kind=kind, t0=t0, t1=t1,
                       marker=marker, **kw)


def make_sample_trace() -> Trace:
    """2 procs: p0 computes then sends; p1 receives then computes."""
    records = [
        rec(0, 0, EventKind.COMPUTE, 0.0, 5.0, 1),
        rec(1, 0, EventKind.SEND, 5.0, 6.0, 2, src=0, dst=1, tag=7, seq=0, size=4),
        rec(2, 1, EventKind.RECV, 0.0, 11.0, 1, src=0, dst=1, tag=7, seq=0, size=4),
        rec(3, 1, EventKind.COMPUTE, 11.0, 20.0, 2),
        rec(4, 0, EventKind.SEND, 6.0, 7.0, 3, src=0, dst=1, tag=9, seq=0, size=1),
    ]
    return Trace(records, nprocs=2)


class TestTraceRecord:
    def test_send_recv_predicates(self):
        r = rec(0, 0, EventKind.SEND, 0, 1, 1, src=0, dst=1, tag=2, seq=0)
        assert r.is_send and not r.is_recv and r.is_message
        r2 = rec(1, 1, EventKind.RECV, 0, 1, 1, src=0, dst=1, tag=2, seq=0)
        assert r2.is_recv and not r2.is_send
        r3 = rec(2, 0, EventKind.COMPUTE, 0, 1, 2)
        assert not r3.is_message

    def test_json_roundtrip(self):
        r = rec(
            3, 2, EventKind.RECV, 1.5, 2.5, 9,
            location=SourceLocation("f.py", 10, "g"),
            src=1, dst=2, tag=4, seq=3, size=16,
            peer_location=SourceLocation("h.py", 20, "send_fn"),
            peer_marker=5, peer_time=1.0,
            construct_id=2, extra={"via": "wait"},
        )
        back = TraceRecord.from_jsonable(r.to_jsonable())
        assert back == r

    def test_json_roundtrip_minimal(self):
        r = rec(0, 0, EventKind.COMPUTE, 0.0, 1.0, 1)
        assert TraceRecord.from_jsonable(r.to_jsonable()) == r

    def test_duration(self):
        assert rec(0, 0, EventKind.COMPUTE, 1.0, 4.0, 1).duration == 3.0


class TestTraceQueries:
    def test_by_proc_program_order(self):
        tr = make_sample_trace()
        assert [r.index for r in tr.by_proc(0)] == [0, 1, 4]
        assert [r.index for r in tr.by_proc(1)] == [2, 3]

    def test_span(self):
        assert make_sample_trace().span == (0.0, 20.0)
        assert Trace([], 2).span == (0.0, 0.0)

    def test_span_holds_a_record_that_ends_before_it_starts(self):
        from repro.analysis import HistoryIndex, critical_path

        backwards = [rec(0, 0, EventKind.COMPUTE, 0.73, -2.2, 1)]
        for holder in (Trace(backwards, 1), HistoryIndex(backwards, nprocs=1)):
            assert holder.span == (-2.2, 0.73)
            assert [r.index for r in holder.window(*holder.span)] == [0]
        # the path keeps the record's negative length; its span is positive
        assert critical_path(Trace(backwards, 1)).span == pytest.approx(2.93)

    def test_message_pairs(self):
        tr = make_sample_trace()
        pairs = tr.message_pairs()
        assert len(pairs) == 1
        assert pairs[0].send.index == 1 and pairs[0].recv.index == 2
        assert pairs[0].latency == 11.0 - 6.0

    def test_unmatched(self):
        tr = make_sample_trace()
        assert [r.index for r in tr.unmatched_sends()] == [4]
        assert tr.unmatched_recvs() == []

    def test_record_at_marker(self):
        tr = make_sample_trace()
        assert tr.record_at_marker(0, 2).index == 1
        assert tr.record_at_marker(1, 1).index == 2
        assert tr.record_at_marker(0, 99) is None

    def test_time_queries(self):
        tr = make_sample_trace()
        assert tr.first_at_or_after(0, 5.5).index == 4
        assert tr.first_at_or_after(0, 100.0) is None
        assert tr.last_before(1, 11.0).index == 2
        assert tr.last_before(1, 0.0) is None

    def test_window(self):
        tr = make_sample_trace()
        assert {r.index for r in tr.window(5.5, 10.0)} == {1, 2, 4}

    def test_counts(self):
        tr = make_sample_trace()
        assert tr.recv_counts() == {0: 0, 1: 1}
        assert tr.send_counts() == {0: 2, 1: 0}
        assert tr.final_markers() == {0: 3, 1: 2}
        assert tr.counts_by_kind()[EventKind.SEND] == 2

    def test_repeated_key_pairs_each_send_once(self):
        # send, recv, send, recv on one (src, dst, tag, seq) key: each
        # receive takes the latest earlier send, and no send is lost
        key = dict(src=0, dst=1, tag=7, seq=0)
        records = [
            rec(0, 0, EventKind.SEND, 0.0, 1.0, 1, **key),
            rec(1, 1, EventKind.RECV, 0.0, 2.0, 1, **key),
            rec(2, 0, EventKind.SEND, 2.0, 3.0, 2, **key),
            rec(3, 1, EventKind.RECV, 2.0, 4.0, 2, **key),
        ]
        tr = Trace(records, 2)
        pairs = [(p.send.index, p.recv.index) for p in tr.message_pairs()]
        assert pairs == [(0, 1), (2, 3)]
        paired = [s for s, _ in pairs]
        unmatched = [r.index for r in tr.unmatched_sends()]
        sends = [r.index for r in tr if r.is_send]
        assert sorted(paired + unmatched) == sends
        assert tr.unmatched_recvs() == []

    def test_records_are_positional(self):
        # a window cut from the middle of a trace keeps positional copies,
        # so trace[i] is the record the queries return
        cut = list(make_sample_trace().records)[2:]
        tr = Trace(cut, 2)
        assert [r.index for r in tr] == [0, 1, 2]
        assert [r.index for r in cut] == [2, 3, 4]  # originals untouched
        assert tr.by_proc(1)[0] is tr[0]
        assert tr.unmatched_recvs() == [tr[0]]


class TestMarkers:
    def test_marker_ordering(self):
        assert ExecutionMarker(0, 3) < ExecutionMarker(0, 5)
        assert str(ExecutionMarker(2, 7)) == "p2@7"

    def test_vector_accessors(self):
        v = MarkerVector({0: 3, 2: 5})
        assert v[0] == 3 and v.get(1) is None and 2 in v and len(v) == 2
        assert list(v) == [0, 2]
        assert v.as_dict() == {0: 3, 2: 5}

    def test_vector_negative_rejected(self):
        with pytest.raises(ValueError):
            MarkerVector({0: -1})

    def test_vector_equality_and_hash(self):
        assert MarkerVector({0: 1}) == MarkerVector({0: 1})
        assert hash(MarkerVector({0: 1})) == hash(MarkerVector({0: 1}))
        assert MarkerVector({0: 1}) != MarkerVector({0: 2})

    def test_dominates(self):
        hi = MarkerVector({0: 5, 1: 5})
        lo = MarkerVector({0: 3, 1: 5})
        assert hi.dominates(lo)
        assert not lo.dominates(hi)
        # Unconstrained ranks don't block domination.
        assert MarkerVector({0: 5}).dominates(MarkerVector({1: 99})) is True

    def test_merged_min(self):
        a = MarkerVector({0: 5, 1: 2})
        b = MarkerVector({0: 3, 2: 9})
        assert a.merged_min(b) == MarkerVector({0: 3, 1: 2, 2: 9})

    def test_from_markers(self):
        v = MarkerVector.from_markers([ExecutionMarker(0, 1), ExecutionMarker(3, 4)])
        assert v.as_dict() == {0: 1, 3: 4}


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        tr = make_sample_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(tr, path)
        back = load_trace(path)
        assert back.nprocs == 2
        assert list(back.records) == list(tr.records)

    def test_flush_on_demand(self, tmp_path):
        """Records become readable only after flush (the paper's added
        AIMS capability)."""
        path = tmp_path / "t.jsonl"
        writer = TraceFileWriter(path, nprocs=1)
        writer.write(rec(0, 0, EventKind.COMPUTE, 0, 1, 1))
        assert len(TraceFileReader(path).read()) == 0
        assert writer.flush() == 1
        assert len(TraceFileReader(path).read()) == 1
        writer.close()

    def test_auto_flush(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceFileWriter(path, nprocs=1, auto_flush_every=2)
        for i in range(5):
            writer.write(rec(i, 0, EventKind.COMPUTE, i, i + 1, i + 1))
        assert len(TraceFileReader(path).read()) == 4  # two auto-flushes
        writer.close()
        assert len(TraceFileReader(path).read()) == 5

    def test_write_after_close_rejected(self, tmp_path):
        writer = TraceFileWriter(tmp_path / "t.jsonl", nprocs=1)
        writer.close()
        with pytest.raises(TraceFileError, match="closed"):
            writer.write(rec(0, 0, EventKind.COMPUTE, 0, 1, 1))

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bogus.jsonl"
        p.write_text('{"format": "something-else", "version": 1, "nprocs": 2}\n')
        with pytest.raises(TraceFileError, match="not a repro-trace"):
            TraceFileReader(p)
        p.write_text("not json at all\n")
        with pytest.raises(TraceFileError, match="bad header"):
            TraceFileReader(p)

    def test_seek_window(self, tmp_path):
        tr = make_sample_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(tr, path)
        reader = TraceFileReader(path)
        got = reader.seek_window(5.5, 10.0)
        assert {r.index for r in got} == {1, 2, 4}
        only_p0 = reader.seek_window(5.5, 10.0, procs={0})
        assert {r.index for r in only_p0} == {1, 4}

    def test_iter_records_filtered(self, tmp_path):
        tr = make_sample_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(tr, path)
        sends = list(TraceFileReader(path).iter_records(lambda r: r.is_send))
        assert len(sends) == 2
