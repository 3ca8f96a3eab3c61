"""Matching anomalies, deadlock detection, and message races."""

from __future__ import annotations


from repro import mp
from repro.analysis import (
    analyze_deadlock,
    analyze_matching,
    build_wait_graph,
    detect_races,
    find_cycles,
    find_intertwined,
    matching_fingerprint,
    wait_chain,
)
from repro.apps import master_worker_program
from repro.apps import strassen as st
from repro.explore import explore
from repro.instrument import WrapperLibrary
from repro.trace import TraceRecorder
from tests.conftest import traced_run


def run_buggy_strassen():
    cfg = st.StrassenConfig(n=8, nprocs=8, buggy=True)
    rt = mp.Runtime(8)
    recorder = TraceRecorder(8)
    WrapperLibrary(rt, recorder)
    report = rt.run(st.strassen_program(cfg), raise_errors=False)
    trace = recorder.snapshot()
    waiting = list(report.waiting)
    rt.shutdown()
    return trace, waiting


class TestMatchingAnalysis:
    def test_clean_run(self):
        cfg = st.StrassenConfig(n=8, nprocs=8)
        _, tr = traced_run(st.strassen_program(cfg), 8)
        report = analyze_matching(tr)
        assert report.clean
        assert report.intertwined == []
        assert "no anomalies" in report.as_text()

    def test_buggy_run_missed_message(self):
        """The Figure 6 diagnosis: the stray send is paired with the
        starving worker 7."""
        trace, waiting = run_buggy_strassen()
        report = analyze_matching(trace, blocked=waiting)
        assert len(report.unmatched_sends) == 1
        assert len(report.missed) == 1
        missed = report.missed[0]
        assert missed.send.src == 0
        assert missed.starving.rank == 7
        assert "likely intended destination 7" in missed.describe()

    def test_intertwined_detection(self):
        """Same route, two tags, receive order inverted."""

        def prog(comm):
            if comm.rank == 0:
                comm.send("early", dest=1, tag=1)
                comm.send("late", dest=1, tag=2)
            else:
                comm.compute(1.0)
                got_late = comm.recv(source=0, tag=2)  # inverts send order
                got_early = comm.recv(source=0, tag=1)
                return (got_late, got_early)

        _, tr = traced_run(prog, 2)
        pairs = find_intertwined(tr)
        assert len(pairs) == 1
        assert pairs[0].route() == (0, 1)
        assert pairs[0].first_send.tag == 1

    def test_no_intertwining_in_fifo_traffic(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=1)
            else:
                for _ in range(5):
                    comm.recv(source=0, tag=1)

        _, tr = traced_run(prog, 2)
        assert find_intertwined(tr) == []


class TestDeadlockAnalysis:
    def test_cycle_found_in_buggy_strassen(self):
        trace, waiting = run_buggy_strassen()
        report = analyze_deadlock(waiting, nprocs=8, trace=trace)
        assert report.deadlocked
        assert report.cycles == [[0, 7]]
        assert report.involved_ranks() == {0, 7}
        assert report.missed  # cause diagnosis included
        text = report.as_text()
        assert "cycle: p0 -> p7 -> p0" in text

    def test_three_way_cycle(self):
        def prog(comm):
            comm.recv(source=(comm.rank + 1) % comm.size)

        rt = mp.Runtime(3)
        report = rt.run(prog, raise_errors=False)
        analysis = analyze_deadlock(report.waiting, nprocs=3)
        assert analysis.cycles == [[0, 1, 2]]
        rt.shutdown()

    def test_starvation_is_not_cycle(self):
        """A blocked process waiting on an exited one: no cycle."""

        def prog(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=9)

        rt = mp.Runtime(2)
        report = rt.run(prog, raise_errors=False)
        analysis = analyze_deadlock(report.waiting, nprocs=2)
        assert not analysis.deadlocked
        assert "starvation, not deadlock" in analysis.as_text()
        rt.shutdown()

    def test_wildcard_wait_edges(self):
        waits = [
            mp.WaitInfo(0, mp.WaitKind.RECV, mp.ANY_SOURCE, 1),
            mp.WaitInfo(1, mp.WaitKind.RECV, 0, 1),
        ]
        g = build_wait_graph(waits, nprocs=3)
        assert set(g.edges()) == {(0, 1), (1, 0)}
        assert find_cycles(g) == [[0, 1]]

    def test_wait_chain(self):
        waits = [
            mp.WaitInfo(0, mp.WaitKind.RECV, 1, 1),
            mp.WaitInfo(1, mp.WaitKind.RECV, 2, 1),
            mp.WaitInfo(2, mp.WaitKind.RECV, 0, 1),
        ]
        assert wait_chain(waits, 3, start=0) == [0, 1, 2, 0]

    def test_empty_report(self):
        analysis = analyze_deadlock([], nprocs=4)
        assert not analysis.deadlocked
        assert analysis.as_text() == "no blocked processes"


class TestRaceDetection:
    def test_master_worker_races_detected(self):
        _, tr = traced_run(master_worker_program(n_tasks=6), 4)
        races = detect_races(tr)
        assert races, "wildcard master should exhibit races"
        race = races[0]
        assert race.recv.proc == 0
        assert race.alternatives
        assert "race at p0" in race.describe()

    def test_deterministic_program_has_no_races(self):
        cfg = st.StrassenConfig(n=8, nprocs=4)
        _, tr = traced_run(st.strassen_program(cfg), 4)
        assert detect_races(tr) == []

    def test_explicit_recv_not_flagged_even_if_other_traffic(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=1)
                comm.recv(source=2, tag=1)
            else:
                comm.send(comm.rank, dest=0, tag=1)

        _, tr = traced_run(prog, 3)
        assert detect_races(tr) == []

    def test_explore_sees_alternative_matchings(self):
        """Steered replays realize master/worker matchings the base run
        did not: more than one matching in total."""
        report = explore(master_worker_program(n_tasks=8), 4, depth=1)
        assert report.races_at_root > 0
        # every reported outcome realized a matching distinct from the
        # base run's and from each other's (converged replays are folded)
        assert report.explored >= 1

    def test_explore_deterministic_program(self):
        cfg = st.StrassenConfig(n=8, nprocs=4)
        report = explore(st.strassen_program(cfg), 4, depth=1)
        assert report.races_at_root == 0
        assert report.explored == 0
        assert not report.schedule_sensitive

    def test_fingerprint_stability(self):
        rt = mp.Runtime(4)
        rt.run(master_worker_program(n_tasks=5))
        fp1 = matching_fingerprint(rt.comm_log)
        rt2 = mp.Runtime(4)
        rt2.run(master_worker_program(n_tasks=5))
        assert fp1 == matching_fingerprint(rt2.comm_log)
