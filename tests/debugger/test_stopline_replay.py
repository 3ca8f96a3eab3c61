"""Stoplines, controlled replay, and undo -- the paper's §4 features."""

from __future__ import annotations

import pytest

from repro import mp
from repro.apps import ring_program
from repro.apps import strassen as st
from repro.debugger import (
    DebugSession,
    StoplinePlacement,
    compute_stopline,
    replay_matches_markers,
    verify_stopline_consistency,
    vertical_stopline_at_time,
)
from repro.trace.events import EventKind
from tests.conftest import traced_run


@pytest.fixture(scope="module")
def strassen_trace():
    cfg = st.StrassenConfig(n=8, nprocs=8)
    _, tr = traced_run(st.strassen_program(cfg), 8)
    return tr


class TestStoplineComputation:
    def test_vertical_at_time(self, strassen_trace):
        t_lo, t_hi = strassen_trace.span
        mid = (t_lo + t_hi) / 2
        sl = vertical_stopline_at_time(strassen_trace, mid)
        assert sl.time == mid
        assert len(sl.thresholds) >= 1
        assert verify_stopline_consistency(strassen_trace, sl)

    def test_vertical_anchored_on_event(self, strassen_trace):
        # Anchor on the master's first result receive.
        anchor = next(
            r for r in strassen_trace.by_proc(0)
            if r.is_recv and r.tag == st.TAG_RESULT
        )
        sl = compute_stopline(strassen_trace, anchor.index)
        assert sl.anchor is anchor
        assert sl.thresholds[0] == anchor.marker
        assert verify_stopline_consistency(strassen_trace, sl)

    def test_vertical_slices_are_consistent_everywhere(self, strassen_trace):
        """Property over many times: a vertical slice never cuts a
        message backwards (§4.1's causality argument)."""
        t_lo, t_hi = strassen_trace.span
        for k in range(12):
            t = t_lo + (t_hi - t_lo) * k / 11
            sl = vertical_stopline_at_time(strassen_trace, t)
            assert verify_stopline_consistency(strassen_trace, sl), t

    def test_frontier_placements(self, strassen_trace):
        anchor = next(
            r for r in strassen_trace.by_proc(3) if r.is_recv
        )
        past = compute_stopline(
            strassen_trace, anchor.index, StoplinePlacement.PAST_FRONTIER
        )
        future = compute_stopline(
            strassen_trace, anchor.index, StoplinePlacement.FUTURE_FRONTIER
        )
        assert past.thresholds[anchor.proc] == anchor.marker
        assert future.thresholds[anchor.proc] == anchor.marker
        # Past thresholds never exceed future thresholds where both exist.
        for r in past.thresholds:
            if r in future.thresholds:
                assert past.thresholds[r] <= future.thresholds[r]

    def test_describe(self, strassen_trace):
        sl = vertical_stopline_at_time(strassen_trace, 1.0)
        assert "stopline (vertical)" in sl.describe()


class TestReplayToStopline:
    def test_replay_stops_at_marker_vector(self):
        cfg = st.StrassenConfig(n=8, nprocs=4)
        session = DebugSession(st.strassen_program(cfg), 4)
        session.run()
        tr = session.trace()
        anchor = next(r for r in tr.by_proc(2) if r.is_recv)
        sl = session.set_stopline(anchor.index)
        summary = session.replay()
        assert summary.outcome is mp.RunOutcome.STOPPED
        for rank in sl.thresholds:
            proc = session.runtime.procs[rank]
            if proc.state is mp.ProcState.STOPPED:
                assert proc.marker == sl.thresholds[rank]
        assert replay_matches_markers(session._execution, sl.thresholds) or any(
            p.state is mp.ProcState.BLOCKED for p in session.runtime.procs
        )
        session.shutdown()

    def test_replayed_prefix_identical(self):
        """The replayed history up to the stopline equals the original
        prefix (identical event causality, §4.2)."""
        cfg = st.StrassenConfig(n=8, nprocs=4)
        session = DebugSession(st.strassen_program(cfg), 4)
        session.run()
        original = session.trace()
        anchor = next(r for r in original.by_proc(0) if r.is_recv)
        session.set_stopline(anchor.index)
        session.replay()
        replayed = session.trace()

        def fingerprint(tr, rank, upto):
            return [
                (r.kind, r.marker, r.src, r.dst, r.tag, r.seq)
                for r in tr.by_proc(rank)
                if r.marker < upto
            ]

        for rank in range(4):
            upto = session.current_stopline.thresholds.get(rank)
            if upto is None:
                continue
            assert fingerprint(replayed, rank, upto) == fingerprint(
                original, rank, upto
            ), f"rank {rank} prefix diverged"
        session.shutdown()

    def test_continue_after_replay_completes(self):
        cfg = st.StrassenConfig(n=8, nprocs=4)
        session = DebugSession(st.strassen_program(cfg), 4)
        session.run()
        anchor = next(r for r in session.trace().by_proc(1) if r.is_recv)
        session.set_stopline(anchor.index)
        session.replay()
        session.clear_thresholds()
        final = session.cont()
        assert final.outcome is mp.RunOutcome.FINISHED
        import numpy as np

        np.testing.assert_allclose(
            session.results()[0], st.reference_product(cfg), atol=1e-10
        )
        session.shutdown()

    @pytest.mark.parametrize("placement", list(StoplinePlacement))
    def test_proc_start_anchor_replays_to_its_thresholds(self, placement):
        """A PROC_START record carries marker 0, which no construct
        does: every threshold is at least 1, and the replay parks each
        thresholded rank exactly at its threshold."""
        session = DebugSession(ring_program(), 4)
        session.run()
        anchor = next(
            r for r in session.trace().by_proc(1)
            if r.kind is EventKind.PROC_START
        )
        assert anchor.marker == 0
        sl = session.set_stopline(anchor.index, placement)
        assert all(sl.thresholds[r] >= 1 for r in sl.thresholds)
        assert sl.thresholds[1] == 1
        session.replay()
        markers = session.markers()
        for rank in sl.thresholds:
            assert markers[rank] == sl.thresholds[rank], rank
        session.shutdown()

    def test_replay_without_stopline_rejected(self):
        session = DebugSession(lambda comm: None, 1)
        session.run()
        with pytest.raises(ValueError, match="no stopline"):
            session.replay()
        session.shutdown()


class TestUndo:
    @staticmethod
    def _stepper(n):
        def prog(comm):
            for i in range(n):
                comm.compute(1.0)  # one marker per compute (wrapper bump)
            return comm.rank

        return prog

    def test_undo_restores_previous_markers(self):
        session = DebugSession(self._stepper(20), 2)
        session.set_threshold(0, 5)
        session.set_threshold(1, 5)
        session.run()
        first = session.markers()
        session.set_threshold(0, 10)
        session.set_threshold(1, 10)
        session.cont()
        assert session.markers().as_dict() == {0: 10, 1: 10}
        summary = session.undo()
        assert summary.outcome is mp.RunOutcome.STOPPED
        assert session.markers() == first
        session.shutdown()

    def test_undo_after_steps(self):
        """Undo of a single step returns exactly one marker back."""
        session = DebugSession(self._stepper(10), 1)
        session.set_threshold(0, 3)
        session.run()
        session.set_threshold(0, None)
        session.step(0)
        assert session.markers()[0] == 4
        session.undo()
        assert session.markers()[0] == 3
        session.shutdown()

    def test_repeated_undo_walks_backwards(self):
        session = DebugSession(self._stepper(10), 1)
        session.set_threshold(0, 2)
        session.run()
        session.set_threshold(0, None)
        session.step(0)
        session.step(0)
        assert session.markers()[0] == 4
        session.undo()
        assert session.markers()[0] == 3
        session.undo()
        assert session.markers()[0] == 2
        session.shutdown()

    def test_undo_beyond_history_rejected(self):
        session = DebugSession(self._stepper(3), 1)
        session.run()
        with pytest.raises(ValueError, match="cannot undo"):
            session.undo(5)
        session.shutdown()

    def test_undo_with_wildcard_traffic_reproduces_matching(self):
        """Undo across nondeterministic receives: forced matching keeps
        the replayed history identical (§4.2)."""
        from repro.apps import master_worker_program

        session = DebugSession(master_worker_program(n_tasks=8), 4)
        session.run()
        log_before = dict(session.master_log.recv_matches)
        # Undo to the very start is impossible (only one stop), so replay
        # to a mid-point threshold instead and compare the master log.
        session.replay(thresholds={0: 5})
        session.clear_thresholds()
        session.cont()
        assert session.master_log.recv_matches == log_before
        session.shutdown()
