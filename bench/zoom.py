"""``zoom``: small random reads of the store ``analyze`` scans once.

The paper's zoom (§4.3) rescans only the part of the trace a view
needs.  This workload opens the same seeded store through the paged
index with its defaults -- a 32-block LRU over 208 blocks, so the store
is six times the cache -- and replays a seeded pan/zoom/jump session of
``seek_window`` calls.  Block decode, the cache and readahead
do the work; no history index is built, so the history kernels should
not move this workload.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import HistoryIndex
from repro.analysis.paged import DEFAULT_CACHE_BLOCKS
from repro.trace import TraceFileReader

from .analyze import drop_store, store_bytes, store_rounds, write_store
from .gen import EVENTS_PER_ROUND, NPROCS, HaloStore
from .harness import Run, ratio

#: one round of the session, the same for every seed: 15 pans (P), 6
#: zooms (Z) and 4 jumps (J).  Scripting the kinds and zoom factors fixes
#: how many queries see each window width, so seeds differ in where the
#: user looks, not in how much each query asks for.
MOVES = "PZPPJPZPPPZPJPZPPJPZPPZJP"
#: window widths in events visited by the round's zooms, 250 to 16,000
ZOOM_EVENTS = (4000, 16000, 4000, 1000, 250, 1000)
START_EVENTS = 1000
#: queries of the round that keep only four ranks (20%)
FILTERED = frozenset({2, 7, 12, 17, 22})
#: the last query of each round is checked against the oracle
ROUND = len(MOVES)
#: op_tail_ms percentile: a run makes 1,000-1,800 queries
TAIL = 98


def session(store: HaloStore, seed: int):
    """Endless seeded zoom session: pans by half a width (80% forward),
    4x zooms, and jumps to a random time; the seed picks the start, the
    pan directions, the jump targets and the filtered ranks."""
    rng = np.random.default_rng([seed, 2])
    lo, hi = store.span
    length = hi - lo
    centre = rng.uniform(lo, hi)
    width = START_EVENTS / EVENTS_PER_ROUND
    while True:
        zooms = iter(ZOOM_EVENTS)
        for k, move in enumerate(MOVES):
            forward, jump_to = rng.random(2)
            ranks = rng.choice(NPROCS, 4, replace=False)
            if move == "P":
                centre += width / 2 if forward < 0.8 else -width / 2
            elif move == "Z":
                width = next(zooms) / EVENTS_PER_ROUND
            else:
                centre = lo + jump_to * length
            centre = lo + (centre - lo) % length
            procs = set(ranks.tolist()) if k in FILTERED else None
            yield centre - width / 2, centre + width / 2, procs


def open_paged(run: Run, store: HaloStore, k: int):
    path = write_store(run, store, k)
    paged = HistoryIndex.from_file(TraceFileReader(path), paged=True)
    return path, paged


def close_paged(opened) -> None:
    path, paged = opened
    paged.close()
    drop_store(path)


def zoom(run: Run) -> None:
    store = HaloStore(run.seed, store_rounds(run.quick))
    path, paged = run.setup(lambda k: open_paged(run, store, k), close_paged)
    reader = paged.reader
    run.idle = paged.wait_prefetch
    run.spans.wrap(reader, "load_block", "load_block", "trace")
    queries = session(store, run.seed)
    returned = 0
    try:
        for _ in run.rounds():
            with run.spans.span("generate", "bench"):
                batch = [next(queries) for _ in range(ROUND)]
            for lo, hi, procs in batch:
                with run.spans.span("release", "bench"):
                    hits = []  # freeing the last result's records is not query time
                hits = run.timed("query", "analysis", paged.seek_window,
                                 lo, hi, procs)
                returned += len(hits)
            with run.spans.span("check", "bench"):
                expected = store.window_indexes(lo, hi, procs).tolist()
                run.check([r.index for r in hits] == expected,
                          f"window [{lo}, {hi}] procs={procs} differs "
                          "from the oracle")
                hits = []
        stats = paged.stats()
    finally:
        paged.close()
    latencies = run.samples["query"]
    run.finish("query", TAIL, returned, sum(latencies))
    run.metrics.update({
        "analysis.paged.block_loads": float(stats.block_loads),
        "analysis.paged.cache_hits": float(stats.cache_hits),
        "analysis.paged.hit_rate": stats.hit_rate,
        "analysis.paged.prefetch_loads": float(stats.prefetch_loads),
        "analysis.paged.prefetch_useful":
            ratio(stats.prefetch_hits, stats.prefetch_loads),
        "analysis.paged.evictions": float(stats.evictions),
        "analysis.paged.records_per_query": returned / len(latencies),
        "trace.load_block_p50_ms": run.span_median("load_block", 1e3),
        "trace.write_s": run.median("write"),
        "trace.bytes_per_event": store_bytes(path) / store.n_events,
        "trace.bytes_read": float(reader.bytes_read),
        "trace.shards_opened": float(reader.shards_opened),
    })
    run.notes.append(
        f"{len(latencies)} queries over {paged.nblocks} blocks "
        f"({paged.nblocks / DEFAULT_CACHE_BLOCKS:.0f}x the cache): p50 "
        f"{run.measured['op_p50_ms']:.2f} ms, p{TAIL} "
        f"{run.measured['op_tail_ms']:.2f} ms as timed, hit rate "
        f"{stats.hit_rate:.0%}"
    )
