"""Vector clocks, happens-before, and frontiers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    analyze_frontiers,
    check_trace_causality,
    compute_causal_order,
    is_consistent_frontier,
)
from repro.apps import LUConfig, lu_program
from repro.apps import strassen as st
from tests.conftest import traced_run


@pytest.fixture(scope="module")
def pipeline():
    """3-rank pipeline 0 -> 1 -> 2 with local compute around each hop."""

    def prog(comm):
        if comm.rank == 0:
            comm.compute(1.0)
            comm.send("x", dest=1)
            comm.compute(1.0)
        elif comm.rank == 1:
            comm.recv(source=0)
            comm.compute(1.0)
            comm.send("y", dest=2)
        else:
            comm.compute(1.0)
            comm.recv(source=1)

    _, tr = traced_run(prog, 3)
    return tr, compute_causal_order(tr)


class TestHappensBefore:
    def test_program_order(self, pipeline):
        tr, order = pipeline
        rows = tr.by_proc(0)
        for earlier, later in zip(rows, rows[1:]):
            assert order.happens_before(earlier.index, later.index)
            assert not order.happens_before(later.index, earlier.index)

    def test_message_order(self, pipeline):
        tr, order = pipeline
        for pair in tr.message_pairs():
            assert order.happens_before(pair.send.index, pair.recv.index)

    def test_transitivity_across_hops(self, pipeline):
        tr, order = pipeline
        send0 = next(r for r in tr if r.is_send and r.proc == 0)
        recv2 = next(r for r in tr if r.is_recv and r.proc == 2)
        assert order.happens_before(send0.index, recv2.index)

    def test_concurrent_events(self, pipeline):
        tr, order = pipeline
        # p0's first compute and p2's first compute are causally unrelated.
        c0 = tr.by_proc(0)[0]
        c2 = tr.by_proc(2)[0]
        assert order.concurrent(c0.index, c2.index)

    def test_not_reflexive(self, pipeline):
        tr, order = pipeline
        assert not order.happens_before(0, 0)
        assert not order.concurrent(0, 0)

    def test_past_future_partition(self, pipeline):
        tr, order = pipeline
        recv1 = next(r for r in tr if r.is_recv and r.proc == 1)
        e = recv1.index
        past = set(order.past(e))
        future = set(order.future(e))
        conc = set(order.concurrency_region(e))
        assert past.isdisjoint(future)
        assert conc.isdisjoint(past | future)
        assert past | future | conc | {e} == set(range(len(tr)))

    def test_causality_invariant_holds(self, pipeline):
        tr, _ = pipeline
        assert check_trace_causality(tr) is None


class TestFrontiers:
    @pytest.fixture(scope="class")
    def lu_analysis(self):
        cfg = LUConfig(grid=16, nprocs=8, sweeps=3)
        _, tr = traced_run(lu_program(cfg), 8)
        order = compute_causal_order(tr)
        # Pick a mid-trace receive on a middle rank (the Figure 8 click).
        target = [r for r in tr.by_proc(4) if r.is_recv][2]
        return tr, order, analyze_frontiers(tr, target.index)

    def test_past_frontier_consistent_inclusively(self, lu_analysis):
        tr, order, fa = lu_analysis
        assert is_consistent_frontier(
            tr, fa.past_frontier.indexes(), inclusive=True
        )

    def test_future_frontier_consistent_exclusively(self, lu_analysis):
        """Stopping just BEFORE each earliest-future event is a legal
        cut (the future stopline of Section 4.1)."""
        tr, order, fa = lu_analysis
        assert is_consistent_frontier(
            tr, fa.future_frontier.indexes(), inclusive=False
        )

    def test_past_before_future_per_proc(self, lu_analysis):
        _, _, fa = lu_analysis
        for p, past_rec in fa.past_frontier.events.items():
            fut_rec = fa.future_frontier.event(p)
            if past_rec is not None and fut_rec is not None:
                assert past_rec.t0 <= fut_rec.t1
                assert past_rec.marker <= fut_rec.marker

    def test_frontier_members_related_to_event(self, lu_analysis):
        _, order, fa = lu_analysis
        e = fa.event.index
        for rec in fa.past_frontier.events.values():
            if rec is not None:
                assert order.happens_before(rec.index, e)
        for rec in fa.future_frontier.events.values():
            if rec is not None:
                assert order.happens_before(e, rec.index)

    def test_concurrency_region_wide_for_pipeline(self, lu_analysis):
        """Pipelined LU gives distant ranks wide concurrency with the
        middle rank (the Figure 8 widening)."""
        _, _, fa = lu_analysis
        conc = fa.concurrency_events()
        assert any(r.proc in (0, 7) for r in conc)

    def test_past_stopline_thresholds(self, lu_analysis):
        _, _, fa = lu_analysis
        sl = fa.past_stopline()
        assert sl[fa.event.proc] == fa.event.marker
        for p, rec in fa.past_frontier.events.items():
            if p != fa.event.proc and rec is not None:
                assert sl[p] == rec.marker + 1

    def test_future_stopline_thresholds(self, lu_analysis):
        _, _, fa = lu_analysis
        sl = fa.future_stopline()
        for p, rec in fa.future_frontier.events.items():
            if p != fa.event.proc and rec is not None:
                assert sl[p] == rec.marker

    def test_send_recv_pair_is_consistent_cut(self, pipeline):
        """A cut containing both a send and its receive is consistent."""
        tr, order = pipeline
        pair = tr.message_pairs()[0]
        assert is_consistent_frontier(
            tr, [pair.send.index, pair.recv.index]
        )

    def test_inconsistent_cut_detected(self, pipeline):
        """A receive inside the cut with its send outside is not."""
        tr, order = pipeline
        pair = tr.message_pairs()[0]
        before_send = tr.by_proc(pair.send.proc)[0]
        assert before_send.index != pair.send.index
        assert not is_consistent_frontier(
            tr, [before_send.index, pair.recv.index]
        )

    def test_two_events_one_process_rejected(self, pipeline):
        tr, order = pipeline
        rows = tr.by_proc(0)
        assert not is_consistent_frontier(
            tr, [rows[0].index, rows[1].index]
        )


class TestStrassenCausality:
    def test_master_sends_precede_all_worker_activity(self):
        cfg = st.StrassenConfig(n=8, nprocs=4)
        _, tr = traced_run(st.strassen_program(cfg), 4)
        order = compute_causal_order(tr)
        first_send = next(r for r in tr.by_proc(0) if r.is_send)
        # The first operand send precedes the result receive it enables.
        result_recvs = [r for r in tr.by_proc(0) if r.is_recv]
        assert result_recvs
        assert order.happens_before(first_send.index, result_recvs[0].index)
