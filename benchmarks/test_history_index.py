"""HistoryIndex economics: derive once, share everywhere.

Two claims, each asserted and measured:

(a) a multi-analysis debugging session (stopline -> frontiers -> races
    -> critical path on an 8-proc LU trace) performs exactly ONE
    vector-clock build and ONE matching build when the analyses share a
    HistoryIndex -- versus one full re-derivation per analysis without
    sharing.  The wall-clock speedup of the derivation work is reported
    and gated against ``benchmarks/results/history_index_baseline.json``:
    the run fails if the measured speedup regresses below half the
    recorded baseline (the >2x regression gate wired into CI).

(b) the incrementally-built index (record-by-record, with interleaved
    catch-up queries mid-stream) equals the batch-built reference on a
    200k-event stream -- clocks, pairs, and unmatched lists
    record-for-record.

Results land in ``benchmarks/results/history_index.txt``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR, traced_run, write_artifact
from repro.analysis import (
    HistoryIndex,
    analyze_frontiers,
    critical_path,
    detect_races,
    ensure_index,
)
from repro.apps.lu import LUConfig, lu_program
from repro.debugger.stopline import StoplinePlacement, compute_stopline
from repro.trace.trace import Trace

from repro.mp.datatypes import SourceLocation
from repro.trace import EventKind, TraceRecord
from tests import oracles

N_EVENTS = 200_000
NPROCS = 8
LOC = SourceLocation("synthetic.py", 1, "worker")

BASELINE = RESULTS_DIR / "history_index_baseline.json"
#: CI regression gate: fail when the shared-vs-rederived speedup drops
#: below baseline/REGRESSION_FACTOR (i.e. a >2x regression).
REGRESSION_FACTOR = 2.0


def synthesize_matched_records(n: int = N_EVENTS):
    """A causal ring stream where every receive HAS a matching earlier
    send (keys agree per (src, dst, tag, seq) route), so the incremental
    clock joins and pair lists are fully exercised.  Every third round is
    compute-only; one send per 10k rounds is left unreceived."""
    i = 0
    round_no = 0
    while i < n:
        phase = round_no % 3
        for proc in range(NPROCS):
            if i >= n:
                return
            t = i * 0.01
            if phase == 0:
                yield TraceRecord(index=i, proc=proc, kind=EventKind.SEND,
                                  t0=t, t1=t + 0.005, marker=i + 1,
                                  location=LOC, src=proc,
                                  dst=(proc + 1) % NPROCS, tag=1, size=64,
                                  seq=round_no)
            elif phase == 1:
                if round_no % 10_000 == 1 and proc == 0:
                    # drop one receive: its partner send stays unmatched
                    yield TraceRecord(index=i, proc=proc,
                                      kind=EventKind.COMPUTE,
                                      t0=t, t1=t + 0.008, marker=i + 1,
                                      location=LOC)
                else:
                    yield TraceRecord(index=i, proc=proc,
                                      kind=EventKind.RECV,
                                      t0=t, t1=t + 0.005, marker=i + 1,
                                      location=LOC,
                                      src=(proc - 1) % NPROCS, dst=proc,
                                      tag=1, size=64, seq=round_no - 1)
            else:
                yield TraceRecord(index=i, proc=proc, kind=EventKind.COMPUTE,
                                  t0=t, t1=t + 0.008, marker=i + 1,
                                  location=LOC)
            i += 1
        round_no += 1


@pytest.fixture(scope="module")
def lu8_trace():
    """The 8-proc LU trace the session benchmark debugs."""
    cfg = LUConfig(grid=32, nprocs=8, panels=4, sweeps=4)
    _, trace = traced_run(lu_program(cfg), 8)
    return trace


def run_session(trace, index):
    """The scripted multi-analysis session: stopline, frontiers, races,
    critical path -- all on the same trace."""
    event = next(r.index for r in trace if r.is_recv)
    compute_stopline(trace, event, StoplinePlacement.PAST_FRONTIER, index=index)
    analyze_frontiers(trace, event, index=index)
    detect_races(trace, index=index)
    critical_path(trace, index=index)


def test_history_index_session_and_regression_gate(lu8_trace):
    records, nprocs = list(lu8_trace.records), lu8_trace.nprocs

    # -- shared: one index, four analyses ------------------------------
    shared_trace = Trace(records, nprocs)
    shared_index = ensure_index(shared_trace)
    start = time.perf_counter()
    run_session(shared_trace, shared_index)
    shared_wall = time.perf_counter() - start
    stats = shared_index.stats()

    # The acceptance criterion: exactly one build of each component.
    assert stats.clock_builds == 1
    assert stats.matching_builds == 1
    assert stats.row_builds == 1

    # -- re-derived: a fresh trace (thus fresh index) per analysis -----
    event = next(r.index for r in shared_trace if r.is_recv)
    start = time.perf_counter()
    compute_stopline(Trace(records, nprocs), event, StoplinePlacement.PAST_FRONTIER)
    analyze_frontiers(Trace(records, nprocs), event)
    detect_races(Trace(records, nprocs))
    critical_path(Trace(records, nprocs))
    rederived_wall = time.perf_counter() - start

    speedup = rederived_wall / shared_wall if shared_wall > 0 else float("inf")
    # Sharing can never be slower than re-deriving four times; allow
    # noise but require a real win.
    assert speedup > 1.2

    # -- regression gate against the recorded baseline -----------------
    gate_line = "baseline: (none; recorded this run)"
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        floor = baseline["speedup"] / REGRESSION_FACTOR
        gate_line = (
            f"baseline speedup {baseline['speedup']:.1f}x, "
            f"gate floor {floor:.1f}x"
        )
        assert speedup >= floor, (
            f"history-index speedup regressed: {speedup:.1f}x measured vs "
            f"{baseline['speedup']:.1f}x baseline (floor {floor:.1f}x)"
        )
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE.write_text(
            json.dumps({"speedup": round(speedup, 2), "events": len(records)})
            + "\n"
        )

    write_artifact(
        "history_index.txt",
        "\n".join([
            "HistoryIndex shared-substrate economics",
            f"trace: {len(records)} events, {nprocs} procs (LU)",
            "session: stopline -> frontiers -> races -> critical path",
            "",
            f"  shared index     : {shared_wall * 1e3:8.1f} ms "
            f"({stats.clock_builds} clock build, "
            f"{stats.matching_builds} matching build)",
            f"  re-derived (x4)  : {rederived_wall * 1e3:8.1f} ms",
            f"  speedup          : {speedup:8.1f}x",
            f"  {gate_line}",
            "",
            stats.as_text(),
        ]),
    )


def test_incremental_equals_batch_200k():
    """(b): the incrementally appended index equals the scalar oracles'
    batch derivation on a 200k-event stream, with catch-up queries
    interleaved mid-stream."""
    records = list(synthesize_matched_records())
    n = len(records)
    start = time.perf_counter()
    batch = oracles.match(records)
    batch_clocks = oracles.clocks(records, NPROCS, batch.send_of_recv)
    batch_pairs = batch.pairs
    batch_wall = time.perf_counter() - start

    index = HistoryIndex(nprocs=NPROCS)
    start = time.perf_counter()
    for k, rec in enumerate(records):
        index.extend(rec)
        if k % 50_000 == 0:
            index.message_pairs()  # interleaved catch-up
            _ = index.clocks
    _ = index.clocks
    inc_wall = time.perf_counter() - start

    np.testing.assert_array_equal(index.clocks, batch_clocks)
    assert [
        (p.send.index, p.recv.index) for p in index.message_pairs()
    ] == batch_pairs
    assert [r.index for r in index.unmatched_sends()] == batch.unmatched_sends
    assert [r.index for r in index.unmatched_recvs()] == batch.unmatched_recvs
    stats = index.stats()
    assert stats.clock_builds == 1
    assert stats.matching_builds == 1
    assert stats.clock_extends == n
    # the stream must actually exercise matching: most receives pair up,
    # and the dropped receives leave their sends unmatched
    assert len(batch_pairs) > n // 4
    assert len(batch.unmatched_sends) > 0

    write_artifact(
        "history_index_200k.txt",
        "\n".join([
            "Incremental vs batch on a 200k-event stream",
            f"events: {n}, procs: {NPROCS}, "
            f"pairs: {len(batch_pairs)}",
            "",
            f"  batch derivation       : {batch_wall:8.3f}s",
            f"  incremental (streamed) : {inc_wall:8.3f}s "
            f"({inc_wall / n * 1e6:.1f} us/event)",
            "  equality: clocks, pairs, unmatched lists identical",
        ]),
    )
