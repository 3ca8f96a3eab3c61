"""Trace profiles, critical paths, and race steering."""

from __future__ import annotations

import pytest

from repro import mp
from repro.analysis import (
    HistoryIndex,
    communication_matrix,
    critical_path,
    detect_races,
    function_profile,
    function_profile_text,
    matching_fingerprint,
    slack_per_process,
    steer_to_alternative,
    time_breakdown,
    time_breakdown_text,
)
from repro.apps import fibonacci as fibmod
from repro.apps import master_worker_program
from repro.apps import strassen as st
from repro.mp.datatypes import SourceLocation
from repro.trace.events import EventKind, TraceRecord
from tests import oracles
from tests.conftest import traced_run


@pytest.fixture(scope="module")
def strassen_trace():
    cfg = st.StrassenConfig(n=8, nprocs=4)
    _, tr = traced_run(st.strassen_program(cfg), 4)
    return tr


class TestTimeBreakdown:
    def test_totals_cover_event_durations(self, strassen_trace):
        rows = time_breakdown(strassen_trace)
        assert len(rows) == 4
        for row in rows:
            assert row.total >= 0.0
        # The master computes (operand prep + combine) and receives.
        master = rows[0]
        assert master.compute > 0
        assert master.recv_blocked + master.recv_overhead > 0

    def test_blocked_vs_overhead_split(self):
        """A receiver that arrives early logs mostly blocked time."""

        def prog(comm):
            if comm.rank == 0:
                comm.compute(100.0)
                comm.send("late", dest=1)
            else:
                comm.recv(source=0)  # waits ~100 time units

        _, tr = traced_run(prog, 2)
        row = time_breakdown(tr)[1]
        assert row.recv_blocked > 50.0
        assert row.recv_blocked > row.recv_overhead

    def test_text_rendering(self, strassen_trace):
        text = time_breakdown_text(strassen_trace)
        assert "recv-wait" in text and text.count("\n") == 4


class TestCommMatrix:
    def test_strassen_star(self, strassen_trace):
        mat = communication_matrix(strassen_trace)
        msgs, elems = mat.totals()
        assert msgs == 21
        assert elems > 0
        # Star pattern: nothing flows between workers.
        for s in range(1, 4):
            for d in range(1, 4):
                assert mat.counts[s, d] == 0
        # Operands outweigh results: 0->w carries two matrices.
        for w in range(1, 4):
            assert mat.counts[0, w] >= 2

    def test_user_only_excludes_collectives(self):
        def prog(comm):
            comm.bcast("x", root=0)
            if comm.rank == 0:
                comm.send("user", dest=1, tag=1)
            elif comm.rank == 1:
                comm.recv(source=0, tag=1)

        _, tr = traced_run(prog, 3)
        user = communication_matrix(tr, user_only=True)
        every = communication_matrix(tr, user_only=False)
        assert user.totals()[0] == 1
        assert every.totals()[0] == 3  # + two bcast legs

    def test_busiest_route(self, strassen_trace):
        src, dst = communication_matrix(strassen_trace).busiest_route()
        assert src == 0 and dst in (1, 2, 3)

    def test_text(self, strassen_trace):
        assert "total: 21 messages" in communication_matrix(strassen_trace).as_text()


class TestFunctionProfile:
    def test_fib_profile(self):
        _, tr = traced_run(fibmod.fib_program(8), 1, functions=[fibmod.fib])
        stats = function_profile(tr)
        assert stats["fib"].calls == fibmod.fib_call_count(8)
        assert stats["fib"].inclusive >= stats["fib"].exclusive >= 0
        assert "fib" in function_profile_text(tr)

    def test_exclusive_excludes_children(self):
        def parent(comm):
            child(comm)
            child(comm)

        def child(comm):
            comm.compute(10.0)

        def prog(comm):
            parent(comm)

        _, tr = traced_run(prog, 1, functions=[parent, child])
        stats = function_profile(tr)
        assert stats["child"].calls == 2
        assert stats["child"].inclusive == pytest.approx(20.0, abs=1.0)
        # Parent's exclusive time is tiny: all its time is in children.
        assert stats["parent"].exclusive < stats["parent"].inclusive / 2

    def test_empty_profile_text(self, strassen_trace):
        assert "no function records" in function_profile_text(strassen_trace)


class TestCriticalPath:
    def test_fully_serial_pipeline(self):
        """A pure pipeline is its own critical path: dominance ~ 1."""

        def prog(comm):
            if comm.rank > 0:
                comm.recv(source=comm.rank - 1)
            comm.compute(10.0)
            if comm.rank < comm.size - 1:
                comm.send("t", dest=comm.rank + 1)

        _, tr = traced_run(prog, 4)
        cp = critical_path(tr)
        assert cp.length > 0
        assert cp.hops() >= 3  # crosses every pipeline stage
        assert cp.dominance > 0.7

    def test_embarrassingly_parallel_low_dominance(self):
        def prog(comm):
            comm.compute(10.0)

        _, tr = traced_run(prog, 4)
        cp = critical_path(tr)
        # Only one process's work can be on the path.
        assert cp.records and all(r.proc == cp.records[0].proc for r in cp.records)

    def test_path_is_causal_chain(self, strassen_trace):
        from repro.analysis import compute_causal_order

        cp = critical_path(strassen_trace)
        order = compute_causal_order(strassen_trace)
        for a, b in zip(cp.records, cp.records[1:]):
            assert order.happens_before(a.index, b.index)

    def test_slack(self):
        def prog(comm):
            comm.compute(100.0 if comm.rank == 0 else 1.0)
            comm.barrier()

        _, tr = traced_run(prog, 3)
        slack = slack_per_process(tr)
        # The heavy rank has the least slack.
        assert slack[0] < slack[1] and slack[0] < slack[2]

    def test_empty_trace(self):
        from repro.trace import Trace

        cp = critical_path(Trace([], 2))
        assert cp.length == 0.0 and cp.records == []

    def test_as_text(self, strassen_trace):
        text = critical_path(strassen_trace).as_text(limit=10)
        assert "critical path" in text and "message hops" in text

    @staticmethod
    def _path(nprocs, records):
        """Path indexes and length of ``records``, checked against the
        oracle."""
        idx = HistoryIndex(records, nprocs=nprocs)
        cp = critical_path(idx.trace, index=idx)
        ref = oracles.critical_path(records, idx.send_of_recv)
        assert [r.index for r in cp.records] == [r.index for r in ref.records]
        assert cp.length == ref.length and cp.weights == ref.weights
        return [r.index for r in cp.records], cp.length

    @staticmethod
    def _rec(i, proc, kind, t0, t1, **kw):
        return TraceRecord(
            index=i, proc=proc, kind=kind, t0=t0, t1=t1, marker=i + 1,
            location=SourceLocation("prog.py", 1, "main"), **kw,
        )

    def _message(self, recv_proc_work):
        """Rank 0 sends (weight 1); rank 1 computes ``recv_proc_work``
        and then receives it (weight 1 after the send completes)."""
        key = dict(src=0, dst=1, tag=0, seq=0)
        return [
            self._rec(0, 0, EventKind.SEND, 0.0, 1.0, **key),
            self._rec(1, 1, EventKind.COMPUTE, 0.0, recv_proc_work),
            self._rec(2, 1, EventKind.RECV, 1.0, 2.0, **key),
        ]

    def test_negative_duration_restarts_fresh(self):
        """A record that ends before it starts weighs negative: the next
        record starts a fresh path rather than extend the negative one."""
        records = [
            self._rec(0, 0, EventKind.COMPUTE, 5.0, 2.0),
            self._rec(1, 0, EventKind.COMPUTE, 2.0, 3.0),
        ]
        assert self._path(1, records) == ([1], 1.0)

    def test_tie_keeps_program_edge(self):
        """Program and message edges of equal length: program wins."""
        assert self._path(2, self._message(1.0)) == ([1, 2], 2.0)

    def test_longer_message_edge_is_taken(self):
        assert self._path(2, self._message(0.5)) == ([0, 2], 2.0)

    def test_first_of_equal_maxima_ends_the_path(self):
        records = [
            self._rec(0, 0, EventKind.COMPUTE, 0.0, 2.0),
            self._rec(1, 1, EventKind.COMPUTE, 0.0, 1.0),
            self._rec(2, 1, EventKind.COMPUTE, 1.0, 2.0),
        ]
        assert self._path(2, records) == ([0], 2.0)


class TestRaceSteering:
    def test_steered_replay_delivers_alternative(self):
        program = master_worker_program(n_tasks=6)
        rt = mp.Runtime(4)
        from repro.instrument import WrapperLibrary
        from repro.trace import TraceRecorder

        recorder = TraceRecorder(4)
        WrapperLibrary(rt, recorder)
        rt.run(program)
        rt.shutdown()
        trace = recorder.snapshot()

        races = detect_races(trace)
        assert races
        race = races[0]
        alternative = race.alternatives[0]
        steered = steer_to_alternative(rt.comm_log, trace, race, alternative)

        rt2 = mp.Runtime(4, replay_log=steered)
        recorder2 = TraceRecorder(4)
        WrapperLibrary(rt2, recorder2)
        rt2.run(program)
        rt2.shutdown()
        trace2 = recorder2.snapshot()

        # The racing receive (same post position) now matched the
        # alternative message.
        recv2 = [
            r for r in trace2.by_proc(race.recv.proc)
            if r.is_recv and r.marker == race.recv.marker
        ]
        assert recv2, "steered run reaches the same receive"
        assert recv2[0].message_key() == alternative.message_key()
        # The program still completes with the same task results.
        assert rt2.results()[0] == rt.results()[0]
        # And the matchings genuinely differ.
        assert matching_fingerprint(rt.comm_log) != matching_fingerprint(
            rt2.comm_log
        )

    def test_invalid_alternative_rejected(self):
        program = master_worker_program(n_tasks=4)
        rt = mp.Runtime(3)
        from repro.instrument import WrapperLibrary
        from repro.trace import TraceRecorder

        recorder = TraceRecorder(3)
        WrapperLibrary(rt, recorder)
        rt.run(program)
        rt.shutdown()
        trace = recorder.snapshot()
        races = detect_races(trace)
        assert races
        not_an_alt = races[0].matched_send
        with pytest.raises(ValueError, match="not one of the race"):
            steer_to_alternative(rt.comm_log, trace, races[0], not_an_alt)
