"""``analyze``: one sequential pass over a store that fits in memory.

Each pass opens the seeded halo store, builds the in-memory history
index (the default serial path) and runs the §4 analyses a user asks for
first: the matching report, the causal order, races, the critical path,
frontiers, past-frontier stoplines and window queries.  History building
and the analysis kernels dominate; the paged index never runs, so paging
changes should leave this workload alone.

Throughput is events per second of the median whole pass.  The latency
a user waits on is a query on the built index: the workload's operation
is one frontier or past-frontier stopline (40 a pass), the two §4
requests behind placing a stopline.
"""

from __future__ import annotations

import shutil
import statistics

import numpy as np

from repro.analysis import (
    HistoryIndex,
    analyze_frontiers,
    analyze_matching,
    critical_path,
    detect_races,
    is_consistent_frontier,
)
from repro.debugger.stopline import (
    StoplinePlacement,
    compute_stopline,
    verify_stopline_consistency,
)
from repro.trace import TraceFileReader

from .gen import HaloStore, store_files
from .harness import Run

FRONTIERS = 20
WINDOWS = 200
#: op_tail_ms percentile of each pass's 40 frontier/stopline queries,
#: which run back to back in about 0.3 s (the median over passes is
#: reported); a run makes 8-12 passes
TAIL = 95


def store_rounds(quick: bool) -> int:
    """320 rounds of 320 events: 102,400 events, about 300 MB at peak
    once indexed.  The quick store (64 rounds, 40 blocks) still
    outgrows the paged cache."""
    return 64 if quick else 320


def write_store(run: Run, store: HaloStore, k: int):
    """Set-up shared with ``zoom``: generate and write the store."""
    path = run.workdir / f"store{k}" / "halo.trace"
    path.parent.mkdir(parents=True)
    with run.spans.span("generate", "bench"):
        chunks = list(store.chunks())
    run.timed("write", "trace", store.write, path, chunks, count=False)
    return path


def drop_store(path) -> None:
    shutil.rmtree(path.parent)


def store_bytes(path) -> int:
    return sum(p.stat().st_size for p in store_files(path))


class Queries:
    """The seeded inputs of one pass, identical in every pass."""

    def __init__(self, store: HaloStore, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        n = store.n_events
        self.anchors = rng.integers(n // 8, n - n // 8, FRONTIERS).tolist()
        lo, hi = store.span
        width = rng.uniform(0.5, 4.0, WINDOWS)
        start = rng.uniform(lo, hi - width)
        self.windows = list(zip(start.tolist(), (start + width).tolist()))


def one_pass(run: Run, path, queries: Queries) -> dict:
    """Open the store and run the analysis suite once; every call is
    timed.  Returns what the checks need."""
    spans = run.spans
    begin = run.busy
    reader = run.timed("open", "trace", TraceFileReader, path)
    if spans.enabled:
        # time the inner public calls of from_file: the read, and the
        # record materialization of the block it returns
        spans.wrap(
            reader, "read_columns", "read_columns", "trace",
            result_hook=lambda block: spans.wrap(
                block, "to_records", "materialize", "analysis"),
        )
    idx = run.timed("from_file", "analysis", HistoryIndex.from_file, reader)
    pairs = run.timed("matching", "analysis", idx.message_pairs)
    report = run.timed("matching_report", "analysis", analyze_matching,
                       idx.trace, index=idx)
    first_answer = run.busy - begin
    run.timed("clocks", "analysis", lambda: idx.order)
    races = run.timed("races", "analysis", detect_races, idx.trace, index=idx)
    path_ = run.timed("critical_path", "analysis", critical_path,
                      idx.trace, index=idx)
    frontiers = [
        run.timed("frontier", "analysis", analyze_frontiers, idx.trace, a,
                  index=idx)
        for a in queries.anchors
    ]
    stoplines = [
        run.timed("stopline", "debugger", compute_stopline, idx.trace, a,
                  StoplinePlacement.PAST_FRONTIER, index=idx)
        for a in queries.anchors
    ]
    windows = [run.timed("window", "analysis", idx.window, lo, hi)
               for lo, hi in queries.windows]
    suite = run.busy - begin
    with spans.span("collect", "bench"):
        windows = [[r.index for r in hits] for hits in windows]
    return {
        "idx": idx, "reader": reader, "pairs": len(pairs), "report": report,
        "races": len(races), "path": path_, "first_answer": first_answer,
        "suite": suite,
        "frontiers": [f.past_frontier.indexes() for f in frontiers],
        "stoplines": [sl.thresholds.as_dict() for sl in stoplines],
        "windows": windows,
    }


def check_pass(run: Run, store: HaloStore, out: dict, ref: dict) -> None:
    """Cheap checks on every pass: the oracle's counts, and outputs equal
    to those of the fully verified first pass."""
    run.check(out["pairs"] == store.n_sends,
              f"{out['pairs']} message pairs, oracle says {store.n_sends}")
    run.check(out["report"].clean and not out["report"].intertwined,
              "matching report lists anomalies in a fully matched store")
    run.check(out["races"] == store.n_races,
              f"{out['races']} races, oracle says {store.n_races}")
    run.check(out["path"].length > 0, "empty critical path")
    run.check(out["frontiers"] == ref["frontiers"], "frontiers changed")
    run.check(out["stoplines"] == ref["stoplines"], "stoplines changed")
    run.check(out["windows"] == ref["windows"], "window results changed")


def verify_pass(run: Run, store: HaloStore, out: dict, queries: Queries) -> None:
    """Full checks of one pass: every stopline and frontier is
    consistent, every window equals the oracle's."""
    idx = out["idx"]
    trace = idx.trace
    for a, thresholds in zip(queries.anchors, out["stoplines"]):
        sl = compute_stopline(trace, a, StoplinePlacement.PAST_FRONTIER, index=idx)
        run.check(sl.thresholds.as_dict() == thresholds
                  and verify_stopline_consistency(trace, sl, index=idx),
                  f"stopline at event {a} is not consistent")
    for a, members in zip(queries.anchors, out["frontiers"]):
        run.check(is_consistent_frontier(trace, members, index=idx),
                  f"past frontier of event {a} is not consistent")
    for (lo, hi), got in zip(queries.windows, out["windows"]):
        run.check(got == store.window_indexes(lo, hi).tolist(),
                  f"window [{lo}, {hi}] differs from the oracle")


def analyze(run: Run) -> None:
    store = HaloStore(run.seed, store_rounds(run.quick))
    path = run.setup(lambda k: write_store(run, store, k), drop_store)
    with run.spans.span("generate", "bench"):
        queries = Queries(store, run.seed)

    # the first pass warms up and is checked in full; its timings are
    # dropped, its outputs become the reference for the timed passes
    before = set(run.samples)
    ref = one_pass(run, path, queries)
    for name in set(run.samples) - before:
        del run.samples[name]
    with run.spans.span("verify", "bench"):
        verify_pass(run, store, ref, queries)
    ref.pop("idx")

    suites, first_answers = [], []
    for _ in run.rounds():
        out = one_pass(run, path, queries)
        suites.append(out["suite"])
        first_answers.append(out["first_answer"])
        with run.spans.span("check", "bench"):
            check_pass(run, store, out, ref)
        reader, races = out["reader"], out["races"]
        del out  # the next pass must not build its index beside this one
    frontiers, stoplines = run.samples["frontier"], run.samples["stopline"]
    run.samples["query"] = frontiers + stoplines
    passes = [frontiers[i:i + FRONTIERS] + stoplines[i:i + FRONTIERS]
              for i in range(0, len(frontiers), FRONTIERS)]
    # throughput of the median pass: a stall over one pass does not move it
    run.finish("query", TAIL, store.n_events, statistics.median(suites),
               bursts=passes)
    run.metrics.update({
        "analysis.first_answer_s": statistics.median(first_answers),
        "analysis.suite_s": statistics.median(suites),
        "analysis.history.matching_s": run.median("matching"),
        "analysis.history.clocks_s": run.median("clocks"),
        "analysis.history.window_p50_ms": run.median_ms("window"),
        "analysis.matching_report_s": run.median("matching_report"),
        "analysis.races_s": run.median("races"),
        "analysis.races": float(races),
        "analysis.critical_path_s": run.median("critical_path"),
        "analysis.frontiers_p50_ms": run.median_ms("frontier"),
        "debugger.stopline_ms": run.median_ms("stopline"),
        "trace.write_s": run.median("write"),
        "trace.bytes_per_event": store_bytes(path) / store.n_events,
        "trace.bytes_read": float(reader.bytes_read),
        "trace.shards_opened": float(reader.shards_opened),
    })
    if run.spans.enabled:
        decode = run.span_median("read_columns")
        materialize = run.span_median("materialize")
        run.metrics.update({
            "trace.decode_s": decode,
            "analysis.history.materialize_s": materialize,
            "analysis.history.ingest_s":
                run.median("from_file") - decode - materialize,
        })
    run.notes.append(
        f"store: {store.n_events} events, {store.n_sends} pairs, "
        f"{store.n_races} races; first answer "
        f"{run.metrics['analysis.first_answer_s']:.2f} s of a "
        f"{run.metrics['analysis.suite_s']:.2f} s suite"
    )
