"""Vectorized analysis kernels vs the scalar reference oracles.

The tentpole claim behind the columnar HistoryIndex core: on a
200k-event trace, the numpy kernels (segment-broadcast vector clocks,
lexsort matching, searchsorted windows, mask-based race detection,
cumsum critical-path DP) beat the per-record Python references in
``tests/oracles.py`` by a wide margin *while producing identical
output* -- the equality is asserted here record-for-record, then the
speedups are gated:

* clocks + matching: >= 5x (absolute floor), and
* race detection:    >= 10x (absolute floor),

plus a >2x regression gate against the committed baseline in
``benchmarks/results/analysis_kernels_baseline.json`` (same pattern as
the tracefile-v3 decode gate wired into the CI benchmark smoke job).

The synthetic trace is compute-heavy (1.25% sends, 1.25% receives, ring
routed, every 100th receive posted with a wildcard source) -- the shape
the paper's instrumented runs produce, where per-record interpretation
cost dominates the scalar kernels.

Results land in ``benchmarks/results/analysis_kernels.txt``.
"""

from __future__ import annotations

import json
import time
from collections import deque

import numpy as np

from benchmarks.conftest import RESULTS_DIR, write_artifact
from repro.analysis import HistoryIndex
from repro.analysis.critical_path import critical_path
from repro.analysis.races import detect_races
from repro.mp.datatypes import ANY_SOURCE, SourceLocation
from repro.trace import EventKind, TraceRecord
from tests import oracles

N_EVENTS = 200_000
NPROCS = 8
LOC = SourceLocation("synthetic.py", 1, "worker")

BASELINE = RESULTS_DIR / "analysis_kernels_baseline.json"
#: CI regression gate: fail when a measured speedup drops below
#: baseline/REGRESSION_FACTOR (i.e. a >2x regression).
REGRESSION_FACTOR = 2.0
#: absolute floors: the vectorized kernels must clear
#: these regardless of what the baseline file says.
MIN_CLOCKS_MATCHING_SPEEDUP = 5.0
MIN_RACES_SPEEDUP = 10.0


def synthesize_records(n: int = N_EVENTS):
    """A deterministic compute-heavy stream: per 80-event stride one
    ring send and one (matching, FIFO) receive, the rest compute.
    Every 100th receive is posted with a wildcard source, so race
    detection has real work on both sides."""
    records = []
    seqs = [0] * NPROCS
    outstanding: deque[TraceRecord] = deque()
    recv_no = 0
    for i in range(n):
        t = i * 0.01
        proc = i % NPROCS
        slot = i % 80
        if slot == 0:
            dst = (proc + 1) % NPROCS
            rec = TraceRecord(index=i, proc=proc, kind=EventKind.SEND,
                              t0=t, t1=t + 0.005, marker=i + 1, location=LOC,
                              src=proc, dst=dst, tag=1, size=64,
                              seq=seqs[proc])
            seqs[proc] += 1
            outstanding.append(rec)
            records.append(rec)
        elif slot == 10 and outstanding:
            s = outstanding.popleft()
            recv_no += 1
            extra = {"posted_src": ANY_SOURCE} if recv_no % 100 == 0 else {}
            records.append(
                TraceRecord(index=i, proc=s.dst, kind=EventKind.RECV,
                            t0=t, t1=t + 0.005, marker=i + 1, location=LOC,
                            src=s.src, dst=s.dst, tag=1, size=64, seq=s.seq,
                            extra=extra)
            )
        else:
            records.append(
                TraceRecord(index=i, proc=proc, kind=EventKind.COMPUTE,
                            t0=t, t1=t + 0.008, marker=i + 1, location=LOC)
            )
    return records


def test_vectorized_kernels_speedup_and_regression_gate():
    records = synthesize_records()
    n = len(records)

    # -- clocks + matching: oracle loops vs the index's kernels --------
    py_cm = float("inf")
    for _rep in range(2):  # min-of-2: shields the gate from CI noise
        start = time.perf_counter()
        ref = oracles.match(records)
        ref_clocks = oracles.clocks(records, NPROCS, ref.send_of_recv)
        py_cm = min(py_cm, time.perf_counter() - start)
    vec_cm = float("inf")
    for _rep in range(2):
        idx = HistoryIndex(nprocs=NPROCS)
        idx.extend_many(records)
        idx.message_pairs()  # forces (and times) the matching kernel
        _ = idx.clocks  # forces (and times) the clock kernel
        stats = idx.stats()
        vec_cm = min(vec_cm, stats.clock_seconds + stats.matching_seconds)

    # -- equality first: speed means nothing on different answers ------
    np.testing.assert_array_equal(ref_clocks, idx.clocks)
    assert ref.pairs == [(p.send.index, p.recv.index) for p in idx.message_pairs()]
    assert ref.unmatched_sends == [r.index for r in idx.unmatched_sends()]

    t_lo, t_hi = idx.span
    windows = [
        (t_lo + k * (t_hi - t_lo) / 64, t_lo + (k + 2) * (t_hi - t_lo) / 64)
        for k in range(32)
    ]
    window_walls = {}
    start = time.perf_counter()
    ref_windows = [len(oracles.window(records, lo, hi)) for lo, hi in windows]
    window_walls["python"] = time.perf_counter() - start
    start = time.perf_counter()
    vec_windows = [len(idx.window(lo, hi)) for lo, hi in windows]
    window_walls["numpy"] = time.perf_counter() - start
    assert ref_windows == vec_windows

    def race_key(races):
        return [
            (r.recv.index, r.matched_send.index, [a.index for a in r.alternatives])
            for r in races
        ]

    kernel_walls = {"races_python": float("inf"), "races_numpy": float("inf")}
    for _rep in range(2):  # min-of-2, as above: the 10x floor is gated
        start = time.perf_counter()
        ref_races = oracles.detect_races(records, ref.send_of_recv, ref_clocks)
        kernel_walls["races_python"] = min(
            kernel_walls["races_python"], time.perf_counter() - start
        )
        start = time.perf_counter()
        races = detect_races(idx.trace, index=idx)
        kernel_walls["races_numpy"] = min(
            kernel_walls["races_numpy"], time.perf_counter() - start
        )
    race_results = {"python": race_key(ref_races), "numpy": race_key(races)}
    assert race_results["python"] == race_results["numpy"]
    assert len(race_results["numpy"]) > 0  # wildcards produced real races

    start = time.perf_counter()
    ref_path = oracles.critical_path(records, ref.send_of_recv)
    kernel_walls["path_python"] = time.perf_counter() - start
    start = time.perf_counter()
    path = critical_path(idx.trace, index=idx)
    kernel_walls["path_numpy"] = time.perf_counter() - start
    assert [r.index for r in ref_path.records] == [r.index for r in path.records]
    assert ref_path.length == path.length

    # -- speedups ------------------------------------------------------
    cm_speedup = py_cm / vec_cm if vec_cm > 0 else float("inf")
    races_speedup = (
        kernel_walls["races_python"] / kernel_walls["races_numpy"]
        if kernel_walls["races_numpy"] > 0
        else float("inf")
    )
    window_speedup = (
        window_walls["python"] / window_walls["numpy"]
        if window_walls["numpy"] > 0
        else float("inf")
    )
    path_speedup = (
        kernel_walls["path_python"] / kernel_walls["path_numpy"]
        if kernel_walls["path_numpy"] > 0
        else float("inf")
    )

    assert cm_speedup >= MIN_CLOCKS_MATCHING_SPEEDUP, (
        f"clocks+matching speedup {cm_speedup:.1f}x below the "
        f"{MIN_CLOCKS_MATCHING_SPEEDUP}x floor"
    )
    assert races_speedup >= MIN_RACES_SPEEDUP, (
        f"race-detection speedup {races_speedup:.1f}x below the "
        f"{MIN_RACES_SPEEDUP}x floor"
    )

    # -- regression gate against the recorded baseline -----------------
    gate_lines = ["baseline: (none; recorded this run)"]
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        gate_lines = []
        for key, measured in (
            ("clocks_matching_speedup", cm_speedup),
            ("races_speedup", races_speedup),
        ):
            floor = baseline[key] / REGRESSION_FACTOR
            gate_lines.append(
                f"baseline {key} {baseline[key]:.1f}x, gate floor {floor:.1f}x"
            )
            assert measured >= floor, (
                f"{key} regressed: {measured:.1f}x measured vs "
                f"{baseline[key]:.1f}x baseline (floor {floor:.1f}x)"
            )
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE.write_text(
            json.dumps(
                {
                    "clocks_matching_speedup": round(cm_speedup, 1),
                    "races_speedup": round(races_speedup, 1),
                    "events": n,
                }
            )
            + "\n"
        )

    write_artifact(
        "analysis_kernels.txt",
        "\n".join(
            [
                "Vectorized analysis kernels vs scalar reference",
                f"trace: {n} events, {NPROCS} procs, "
                f"{len(ref.pairs)} pairs, "
                f"{len(race_results['numpy'])} racing receives",
                "",
                f"  clocks+matching : python {py_cm * 1e3:8.1f} ms | "
                f"numpy {vec_cm * 1e3:8.1f} ms | {cm_speedup:6.1f}x "
                f"(floor {MIN_CLOCKS_MATCHING_SPEEDUP}x)",
                f"  race detection  : python "
                f"{kernel_walls['races_python'] * 1e3:8.1f} ms | numpy "
                f"{kernel_walls['races_numpy'] * 1e3:8.1f} ms | "
                f"{races_speedup:6.1f}x (floor {MIN_RACES_SPEEDUP}x)",
                f"  window (32 q)   : python "
                f"{window_walls['python'] * 1e3:8.1f} ms | numpy "
                f"{window_walls['numpy'] * 1e3:8.1f} ms | "
                f"{window_speedup:6.1f}x",
                f"  critical path   : python "
                f"{kernel_walls['path_python'] * 1e3:8.1f} ms | numpy "
                f"{kernel_walls['path_numpy'] * 1e3:8.1f} ms | "
                f"{path_speedup:6.1f}x",
                "  equality: clocks, pairs, unmatched, windows, races,",
                "            critical path identical to tests/oracles.py",
                *[f"  {line}" for line in gate_lines],
            ]
        ),
    )
