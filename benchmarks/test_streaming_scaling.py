"""Streaming-pipeline scaling: incremental consumers vs batch loading.

The pipeline exists so trace consumers do not have to hold -- or even
read -- the whole history.  On a >=200k-event trace this benchmark
measures, and asserts the direction of, both halves of that claim:

(a) graph construction: loading the full trace into memory and calling
    ``TraceGraph.from_trace`` versus streaming the file's records
    straight into ``TraceGraph.from_records`` (peak heap should collapse
    -- the graph is tiny, the record list is not);

(b) window rescans: ``seek_window(use_index=False)``, which walks
    every block of the file, versus ``seek_window`` through the index
    footer of the writer's default format (bytes read should collapse
    -- the acceptance criterion: strictly fewer bytes than a full scan).

Results land in ``benchmarks/results/streaming_scaling.txt``.  Absolute
times are machine-dependent; the assertions are on relative shape only.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from benchmarks.conftest import write_artifact
from repro.mp.datatypes import SourceLocation
from repro.trace import (
    EventKind,
    TraceFileReader,
    TraceFileWriter,
    TraceRecord,
    load_trace,
)
from repro.graphs.tracegraph import TraceGraph

N_EVENTS = 200_000
NPROCS = 8
LOC = SourceLocation("synthetic.py", 1, "worker")


def synthesize_records(n: int = N_EVENTS):
    """A deterministic ring-like event stream: send/recv pairs plus
    compute, with monotonically advancing virtual time."""
    seq = 0
    for i in range(n):
        proc = i % NPROCS
        t = i * 0.01
        phase = (i // NPROCS) % 3
        if phase == 0:
            yield TraceRecord(index=i, proc=proc, kind=EventKind.SEND,
                              t0=t, t1=t + 0.005, marker=i + 1, location=LOC,
                              src=proc, dst=(proc + 1) % NPROCS,
                              tag=1, size=64, seq=seq + proc)
        elif phase == 1:
            yield TraceRecord(index=i, proc=proc, kind=EventKind.RECV,
                              t0=t, t1=t + 0.005, marker=i + 1, location=LOC,
                              src=(proc - 1) % NPROCS, dst=proc,
                              tag=1, size=64, seq=seq + proc)
        else:
            yield TraceRecord(index=i, proc=proc, kind=EventKind.COMPUTE,
                              t0=t, t1=t + 0.008, marker=i + 1, location=LOC)
        if proc == NPROCS - 1 and phase == 1:
            seq += NPROCS


@pytest.fixture(scope="module")
def big_trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scaling") / "big.trace"
    with TraceFileWriter(path, nprocs=NPROCS, auto_flush_every=8192) as w:
        for rec in synthesize_records():
            w.write(rec)
    return path


def timed_peak(fn):
    """(result, wall seconds, peak Python-heap bytes) of one call."""
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, wall, peak


def test_streaming_scaling(big_trace_file):
    path = big_trace_file
    file_bytes = path.stat().st_size

    # -- (a) full-load vs incremental graph build ----------------------
    def full_load_build():
        trace = load_trace(path)
        return TraceGraph.from_trace(trace)

    def incremental_build():
        reader = TraceFileReader(path)
        return TraceGraph.from_records(reader.iter_records(), reader.nprocs)

    batch_graph, batch_wall, batch_peak = timed_peak(full_load_build)
    inc_graph, inc_wall, inc_peak = timed_peak(incremental_build)

    # 2/3 of the synthetic stream are message events (graph input).
    assert batch_graph.events_consumed == inc_graph.events_consumed > 0
    assert sorted(map(str, inc_graph.nodes)) == sorted(map(str, batch_graph.nodes))
    # The whole point: the streaming build never materializes the record
    # list, so its peak heap is a fraction of the batch build's.
    assert inc_peak < batch_peak / 2

    # -- (b) linear rescan vs indexed seek_window ----------------------
    reader = TraceFileReader(path)
    assert reader.has_index
    t_lo, t_hi = 500.0, 510.0  # ~1000 of 200k events

    mark = reader.bytes_read
    start = time.perf_counter()
    linear = reader.seek_window(t_lo, t_hi, use_index=False)
    linear_wall = time.perf_counter() - start
    linear_bytes = reader.bytes_read - mark

    mark = reader.bytes_read
    start = time.perf_counter()
    indexed = reader.seek_window(t_lo, t_hi)
    indexed_wall = time.perf_counter() - start
    indexed_bytes = reader.bytes_read - mark

    assert indexed == linear
    assert len(indexed) > 0
    # Acceptance criterion: the indexed path reads strictly fewer bytes.
    assert 0 < indexed_bytes < linear_bytes

    rows = [
        ("graph: full load + from_trace", f"{batch_wall:8.3f}s",
         f"{batch_peak / 2**20:9.1f} MiB peak heap"),
        ("graph: streamed from_records", f"{inc_wall:8.3f}s",
         f"{inc_peak / 2**20:9.1f} MiB peak heap"),
        ("rescan: linear scan", f"{linear_wall:8.3f}s",
         f"{linear_bytes / 2**20:9.1f} MiB read"),
        ("rescan: seek_window (indexed)", f"{indexed_wall:8.3f}s",
         f"{indexed_bytes / 2**20:9.1f} MiB read"),
    ]
    lines = [
        "Streaming pipeline scaling",
        f"trace: {N_EVENTS} events, {NPROCS} procs, "
        f"{file_bytes / 2**20:.1f} MiB on disk (format v{reader.version}, indexed)",
        f"window for (b): t in [{t_lo}, {t_hi}] -> {len(indexed)} records",
        "",
    ]
    lines += [f"  {name:<32} {wall}  {mem}" for name, wall, mem in rows]
    lines += [
        "",
        f"peak-heap ratio (batch/streamed): {batch_peak / inc_peak:5.1f}x",
        f"bytes-read ratio (linear/indexed): {linear_bytes / indexed_bytes:5.1f}x",
    ]
    write_artifact("streaming_scaling.txt", "\n".join(lines))
