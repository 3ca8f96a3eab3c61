"""The zoomed time-space view against the paged window read it rests on.

The paper's NTV/VK view (§3.1) draws the part of the trace being zoomed,
and §4.3 gets that part by "rescanning the appropriate portion of the
trace file".  ``build_window_diagram`` over the paged index is that
view: one paged column read, then bars and message lines drawn from the
window's columns.  This benchmark times a pan session of it against
``OutOfCoreIndex.seek_window`` -- the window's records and nothing
more -- on the same windows, and gates the view's median at
:data:`MAX_RATIO` times the seek's: drawing a window may cost a small
multiple of reading it, not a history index build per frame.

The store is the end-to-end benchmark's ``analyze``/``zoom`` store
(seed 1: 102,400 events of a 64-rank halo exchange, 8 compressed hash
shards), written here into a temporary directory.  A session is
:data:`PANS` half-width pans of a window of about 1,000 events, starting
a third of the way into the trace; each of :data:`REPEATS` repetitions
runs it once per path, each path on a fresh reader and index.

Results land in ``benchmarks/results/window_view.txt``; absolute times
are machine-dependent, the gate is on the ratio only.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from bench.gen import EVENTS_PER_ROUND, NPROCS, SHARDS, HaloStore
from benchmarks.conftest import write_artifact
from repro.analysis.paged import OutOfCoreIndex
from repro.trace import EventKind, TraceFileReader
from repro.viz import build_window_diagram

SEED = 1
ROUNDS = 320
PANS = 60
REPEATS = 3
WINDOW_EVENTS = 1000
#: the gate: view p50 <= MAX_RATIO x seek p50
MAX_RATIO = 4.0


def pan_windows(store: HaloStore) -> list[tuple[float, float]]:
    lo, hi = store.span
    width = WINDOW_EVENTS / EVENTS_PER_ROUND
    start = lo + (hi - lo) / 3
    return [
        (start + k * width / 2, start + k * width / 2 + width) for k in range(PANS)
    ]


def session(path, windows, draw: bool) -> tuple[list[float], list, OutOfCoreIndex]:
    """Per-window seconds, results and the paged index of one pan
    session on a fresh reader."""
    paged = OutOfCoreIndex(TraceFileReader(path))
    seconds, results = [], []
    for t_lo, t_hi in windows:
        start = time.perf_counter()
        if draw:
            result = build_window_diagram(paged, t_lo, t_hi)
        else:
            result = paged.seek_window(t_lo, t_hi)
        seconds.append(time.perf_counter() - start)
        results.append(result)
    return seconds, results, paged


def test_window_view_costs_a_small_multiple_of_the_paged_seek(tmp_path):
    store = HaloStore(SEED, ROUNDS)
    path = tmp_path / "halo.trace"
    store.write(path)
    windows = pan_windows(store)
    view_s: list[float] = []
    seek_s: list[float] = []
    for _ in range(REPEATS):
        seconds, diagrams, view_index = session(path, windows, draw=True)
        view_s += seconds
        seconds, windows_read, seek_index = session(path, windows, draw=False)
        seek_s += seconds

    lines_drawn = 0
    for diagram, records, (t_lo, t_hi) in zip(diagrams, windows_read, windows):
        assert [b.record for b in diagram.bars] == [
            r
            for r in records
            if r.t1 > r.t0 and r.kind not in (EventKind.PROC_START, EventKind.PROC_EXIT)
        ]
        assert all(
            end.t1 >= t_lo and end.t0 <= t_hi
            for m in diagram.messages
            for end in (m.send, m.recv)
        )
        lines_drawn += len(diagram.messages)
    assert lines_drawn > 0

    view_p50, seek_p50 = statistics.median(view_s), statistics.median(seek_s)
    ratio = view_p50 / seek_p50
    view_stats, seek_stats = view_index.stats(), seek_index.stats()
    lines = [
        "Zoomed time-space view vs the paged window read",
        f"store: seed {SEED}, {store.n_events} events, {NPROCS} ranks, "
        f"{SHARDS} hash shards, {view_index.nblocks} blocks",
        f"session: {PANS} half-width pans of ~{WINDOW_EVENTS} events, "
        f"{REPEATS} repetitions per path ({len(view_s)} samples each); "
        f"{np.mean([len(r) for r in windows_read]):.0f} records and "
        f"{lines_drawn / PANS:.0f} message lines per window",
        "",
        f"  {'path':<44} {'p50':>9} {'p90':>9}  cache hit rate",
        f"  {'build_window_diagram(OutOfCoreIndex)':<44} "
        f"{view_p50 * 1e3:7.2f}ms {np.percentile(view_s, 90) * 1e3:7.2f}ms  "
        f"{view_stats.hit_rate:.0%}",
        f"  {'OutOfCoreIndex.seek_window':<44} "
        f"{seek_p50 * 1e3:7.2f}ms {np.percentile(seek_s, 90) * 1e3:7.2f}ms  "
        f"{seek_stats.hit_rate:.0%}",
        "",
        f"view / seek p50: {ratio:.2f}x (gate: <= {MAX_RATIO:.0f}x)",
    ]
    write_artifact("window_view.txt", "\n".join(lines))
    assert ratio <= MAX_RATIO, f"view p50 is {ratio:.2f}x the paged seek's"
