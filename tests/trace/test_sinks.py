"""The streaming trace pipeline: bus, sinks, recorder integration."""

from __future__ import annotations

import pytest

from repro import mp
from repro.apps.ring import ring_program
from repro.graphs.tracegraph import TraceGraph
from repro.instrument import WrapperLibrary
from repro.trace import (
    CallbackSink,
    EventKind,
    GraphSink,
    TraceBus,
    TraceFileReader,
    TraceRecord,
    TraceRecorder,
)


def rec(index, t, proc=0, kind=EventKind.COMPUTE):
    return TraceRecord(index=index, proc=proc, kind=kind,
                       t0=t, t1=t + 1, marker=index + 1)


def collector() -> tuple[list[TraceRecord], CallbackSink]:
    """A sink that keeps what it is sent, and the list it keeps it in."""
    seen: list[TraceRecord] = []
    return seen, CallbackSink(seen.append)


class TestTraceBus:
    def test_fanout_preserves_order(self):
        bus = TraceBus()
        (a, sink_a), (b, sink_b) = collector(), collector()
        bus.attach(sink_a)
        bus.attach(sink_b)
        for i in range(5):
            bus.publish(rec(i, float(i)))
        assert [r.index for r in a] == list(range(5))
        assert a == b
        assert bus.published == 5

    def test_double_attach_rejected(self):
        bus = TraceBus()
        _, sink = collector()
        bus.attach(sink)
        with pytest.raises(ValueError, match="already attached"):
            bus.attach(sink)

    def test_detach_stops_delivery(self):
        bus = TraceBus()
        seen, sink = collector()
        bus.attach(sink)
        bus.publish(rec(0, 0.0))
        bus.detach(sink)
        bus.publish(rec(1, 1.0))
        assert len(seen) == 1

    def test_late_subscriber_misses_prefix(self):
        bus = TraceBus()
        early, early_sink = collector()
        bus.attach(early_sink)
        bus.publish(rec(0, 0.0))
        late, late_sink = collector()
        bus.attach(late_sink)
        bus.publish(rec(1, 1.0))
        assert len(early) == 2
        assert len(late) == 1


class TestSinks:
    def test_ring_buffer_bounds_memory(self):
        recorder = TraceRecorder(nprocs=1, memory_limit=3)
        for i in range(10):
            recorder.record(0, EventKind.COMPUTE, float(i), i + 1.0, i + 1)
        assert len(recorder) == 3
        assert [r.index for r in recorder.records] == [7, 8, 9]
        assert recorder.total_recorded == 10
        snap = recorder.snapshot()
        assert len(snap) == 3
        # the snapshot re-indexes positional copies of the tail
        assert [r.index for r in snap] == [0, 1, 2]
        assert [r.marker for r in snap] == [8, 9, 10]
        with pytest.raises(ValueError, match="memory_limit"):
            TraceRecorder(nprocs=1, memory_limit=0)

    def test_callback_sink_counts(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.emit(rec(0, 0.0))
        sink.emit(rec(1, 1.0))
        assert sink.delivered == 2
        assert [r.index for r in seen] == [0, 1]

    def test_graph_sink_builds_graph(self):
        sink = GraphSink(nprocs=2)
        send = TraceRecord(index=0, proc=0, kind=EventKind.SEND,
                           t0=0, t1=1, marker=1, src=0, dst=1, tag=7, seq=0)
        recv = TraceRecord(index=1, proc=1, kind=EventKind.RECV,
                           t0=0, t1=2, marker=1, src=0, dst=1, tag=7, seq=0)
        sink.emit(send)
        sink.emit(recv)
        assert sink.graph.events_consumed == 2
        assert len(sink.graph.channel_nodes()) == 1


class TestRecorderPipeline:
    def test_default_memory_sink_snapshot(self):
        recorder = TraceRecorder(nprocs=2)
        recorder.record(0, EventKind.COMPUTE, 0.0, 1.0, 1)
        recorder.record(1, EventKind.COMPUTE, 0.0, 1.0, 1)
        snap = recorder.snapshot()
        assert len(snap) == 2
        assert recorder.total_recorded == 2

    def test_filtered_records_not_published(self):
        recorder = TraceRecorder(nprocs=1, kinds=[EventKind.SEND])
        seen = []
        recorder.add_callback(seen.append)
        recorder.record(0, EventKind.COMPUTE, 0.0, 1.0, 1)
        assert recorder.dropped == 1
        assert seen == []
        assert recorder.bus.published == 0

    def test_memory_limit_ring_mode(self):
        recorder = TraceRecorder(nprocs=1, memory_limit=4)
        for i in range(10):
            recorder.record(0, EventKind.COMPUTE, float(i), i + 1.0, i + 1)
        assert len(recorder) == 4
        # global indexes keep counting past the ring
        assert [r.index for r in recorder.records] == [6, 7, 8, 9]
        assert recorder.total_recorded == 10

    def test_backfill_subscription(self):
        recorder = TraceRecorder(nprocs=1)
        recorder.record(0, EventKind.COMPUTE, 0.0, 1.0, 1)
        late, sink = collector()
        recorder.subscribe(sink, backfill=True)
        recorder.record(0, EventKind.COMPUTE, 1.0, 2.0, 2)
        assert len(late) == 2

    def test_file_sink_attach_and_flush(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = TraceRecorder(nprocs=1)
        recorder.record(0, EventKind.COMPUTE, 0.0, 1.0, 1)  # pre-attach
        recorder.attach_file(path)
        recorder.record(0, EventKind.COMPUTE, 1.0, 2.0, 2)
        assert recorder.flush() == 2  # back-filled + live record
        recorder.close()
        assert len(TraceFileReader(path).read()) == 2

    def test_live_analysis_during_run(self):
        """A callback subscriber observes records as the program runs --
        the tracer-driver shape: analysis attached to the event flow."""
        rt = mp.Runtime(4)
        recorder = TraceRecorder(4)
        live_counts = {"send": 0, "recv": 0}

        def watch(record):
            if record.is_send:
                live_counts["send"] += 1
            elif record.is_recv:
                live_counts["recv"] += 1

        recorder.add_callback(watch)
        lib = WrapperLibrary(rt, recorder)
        assert lib.bus is recorder.bus
        rt.run(ring_program(rounds=2))
        rt.shutdown()
        trace = recorder.snapshot()
        assert live_counts["send"] == len([r for r in trace if r.is_send])
        assert live_counts["recv"] == len([r for r in trace if r.is_recv])
        assert live_counts["send"] == 8  # 4 ranks x 2 rounds

    def test_live_graph_matches_batch(self):
        rt = mp.Runtime(3)
        recorder = TraceRecorder(3)
        graph = TraceGraph(3)
        recorder.subscribe(graph.sink())
        WrapperLibrary(rt, recorder)
        rt.run(ring_program(rounds=1))
        rt.shutdown()
        batch = TraceGraph.from_trace(recorder.snapshot())
        assert graph.events_consumed == batch.events_consumed
        assert sorted(map(str, graph.nodes)) == sorted(map(str, batch.nodes))
