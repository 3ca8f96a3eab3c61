"""The debug session's live trace stream (streaming pipeline surface)."""

from __future__ import annotations

from collections import deque

import pytest

from repro.apps.ring import ring_program
from repro.debugger import DebugSession
from repro.trace import CallbackSink
from tests import oracles


@pytest.fixture()
def session():
    s = DebugSession(ring_program(rounds=2), 3)
    yield s
    s.shutdown()


def test_subscriber_sees_full_history(session):
    seen = []
    session.subscribe(CallbackSink(seen.append))
    session.run()
    trace = session.trace()
    assert [r.index for r in seen] == [r.index for r in trace]


def test_callback_observes_live(session):
    seen = []
    session.add_trace_callback(lambda r: seen.append(r.kind))
    session.run()
    assert len(seen) == len(session.trace())


def test_subscription_survives_replay(session):
    seen = []
    session.subscribe(CallbackSink(seen.append))
    session.run()
    n_first = len(seen)
    assert n_first > 0
    recv = next(r for r in session.trace() if r.is_recv)
    session.set_stopline(recv.index)
    session.replay()
    # the sink observed the replay generation's records too
    assert len(seen) > n_first
    gen2 = seen[n_first:]
    assert [r.index for r in gen2] == [r.index for r in session.trace()]


def test_unsubscribe_stops_stream(session):
    seen = []
    sink = CallbackSink(seen.append)
    session.subscribe(sink)
    session.unsubscribe(sink)
    session.run()
    assert len(seen) == 0


def test_live_graph_matches_batch(session):
    graph = session.live_graph()
    session.run()
    from repro.graphs.tracegraph import TraceGraph

    batch = TraceGraph.from_trace(session.trace())
    assert graph.events_consumed == batch.events_consumed
    assert sorted(map(str, graph.nodes)) == sorted(map(str, batch.nodes))


def test_ring_sink_bounds_session_memory(session):
    ring = deque(maxlen=5)
    session.subscribe(CallbackSink(ring.append))
    session.run()
    assert list(ring) == list(session.trace())[-5:]


def test_trace_is_answered_by_the_session_index(session):
    session.run()
    trace = session.trace()
    assert trace.history_index() is session.index()
    assert trace.message_pairs() == session.index().message_pairs()
    assert session.trace() is trace  # nothing recorded since: one view


def assert_answers_its_prefix(trace, records, nprocs):
    """``trace`` answers by_proc, message_pairs, window and span for
    exactly ``records``, as the record walks of tests/oracles.py do."""
    assert list(trace) == records
    rows = oracles.by_proc(records, nprocs)
    for p in range(nprocs):
        assert list(trace.by_proc(p)) == rows[p]
    want = oracles.match(records).pairs
    assert [(pr.send.index, pr.recv.index) for pr in trace.message_pairs()] == want
    lo, hi = oracles.span(records)
    assert trace.span == (lo, hi)
    mid = (lo + hi) / 2
    for t_lo, t_hi in ((lo, mid), (mid, hi), (lo, hi)):
        assert trace.window(t_lo, t_hi) == oracles.window(records, t_lo, t_hi)


def test_stop_snapshot_answers_its_prefix_after_cont_and_replay(session):
    session.set_threshold(0, 2)
    session.run()
    at_stop = session.trace()
    prefix = list(at_stop)
    # while the execution holds exactly these rows, its index answers
    assert at_stop.history_index() is session.index()
    session.clear_thresholds()
    session.cont()
    finished = session.trace()
    full = list(finished)
    assert len(full) > len(prefix) and full[:len(prefix)] == prefix
    assert_answers_its_prefix(at_stop, prefix, session.nprocs)
    assert at_stop.history_index() is not session.index()
    session.replay(session.stop_history[0])
    assert session.trace() is not finished
    assert_answers_its_prefix(at_stop, prefix, session.nprocs)
    assert_answers_its_prefix(finished, full, session.nprocs)
