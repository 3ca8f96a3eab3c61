"""Readahead for paged queries on the 10M-event shard store.

Measured on a 10M-event synthetic halo-exchange store (64 procs, 8 hash
shards, compressed blocks): on a sequential window sweep (a debugger
panning forward in time), background prefetch lifts the paged cache
hit rate measurably above the identical sweep with readahead disabled.
The sweep's wall time with and without readahead is reported beside
the hit rates.

A recorded baseline (``benchmarks/results/parallel_pipeline_baseline
.json``) gates regressions at ``REGRESSION_FACTOR``: the run fails when
the readahead hit rate falls below ``baseline / 2``.  Results land in
``benchmarks/results/parallel_pipeline.txt``.
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, write_artifact
from benchmarks.test_tracefile_sharded import (
    DT,
    INDEX_BLOCK,
    N_EVENTS,
    NPROCS,
    SHARDS,
    synthesize_chunk,
)
from repro.analysis.paged import OutOfCoreIndex, prefetch_enabled
from repro.trace import TraceFileReader, TraceShardWriter

CHUNK = 500_000
#: events per shard block group: one t-ordered "page" of the sweep
BLOCK_SPAN = INDEX_BLOCK * SHARDS * DT
SWEEP_STEPS = 60
PREFETCH_DEPTH = 8
CACHE_BLOCKS = 48

BASELINE = RESULTS_DIR / "parallel_pipeline_baseline.json"
REGRESSION_FACTOR = 2.0
#: absolute floor on the hit-rate gain over the same sweep without readahead
MIN_HIT_RATE_GAIN = 0.05


@pytest.fixture(scope="module")
def sharded_store(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("parallel_pipeline")
    path = tmp / "halo2d.trace"
    with TraceShardWriter(
        path, nprocs=NPROCS, by="hash", shards=SHARDS,
        index_block=INDEX_BLOCK, compression="auto",
    ) as w:
        for start in range(0, N_EVENTS, CHUNK):
            w.write_columns(
                synthesize_chunk(start, min(CHUNK, N_EVENTS - start))
            )
    return path


def _sweep(paged) -> None:
    """Sequential forward pan: each window advances one block span."""
    for k in range(SWEEP_STEPS):
        lo = k * BLOCK_SPAN
        paged.seek_window(lo, lo + 1.5 * BLOCK_SPAN)
        paged.wait_prefetch(30.0)


@pytest.mark.skipif(
    not prefetch_enabled(), reason="REPRO_NO_PREFETCH is set"
)
def test_readahead_lifts_hit_rate(sharded_store):
    path = sharded_store
    with_pf = OutOfCoreIndex(
        TraceFileReader(path), cache_blocks=CACHE_BLOCKS,
        prefetch_blocks=PREFETCH_DEPTH,
    )
    without = OutOfCoreIndex(
        TraceFileReader(path), cache_blocks=CACHE_BLOCKS, prefetch_blocks=0,
    )
    t0 = time.perf_counter()
    _sweep(with_pf)
    sweep_pf_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    _sweep(without)
    sweep_plain_wall = time.perf_counter() - t0
    stats_pf = with_pf.stats()
    stats_plain = without.stats()
    with_pf.close()
    without.close()

    assert stats_pf.prefetch_hits > 0
    gain = stats_pf.hit_rate - stats_plain.hit_rate
    assert gain >= MIN_HIT_RATE_GAIN, (
        f"readahead hit rate {stats_pf.hit_rate:.1%} vs "
        f"{stats_plain.hit_rate:.1%} without (gain {gain:.1%}, "
        f"floor {MIN_HIT_RATE_GAIN:.0%})"
    )

    if BASELINE.exists():
        hit_rate_floor = json.loads(BASELINE.read_text())["prefetch_hit_rate"]
        gate_line = (
            f"baseline hit rate {hit_rate_floor:.1%} "
            f"(floor {hit_rate_floor / REGRESSION_FACTOR:.1%})"
        )
        assert stats_pf.hit_rate >= hit_rate_floor / REGRESSION_FACTOR, (
            f"readahead hit rate regressed: {stats_pf.hit_rate:.1%} vs "
            f"{hit_rate_floor:.1%} baseline"
        )
    else:
        gate_line = "baseline: (none; recorded this run)"
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE.write_text(
            json.dumps({
                "prefetch_hit_rate": round(stats_pf.hit_rate, 3),
                "events": N_EVENTS,
            }) + "\n"
        )

    lines = [
        "Shard pipeline: readahead for paged queries",
        f"trace: {N_EVENTS / 1e6:.0f}M events, {NPROCS} procs, "
        f"{SHARDS} hash shards, blocks of {INDEX_BLOCK} records",
        "",
        f"  sweep               : {SWEEP_STEPS} windows advancing "
        f"{BLOCK_SPAN:.3f} s/step",
        f"  with readahead      : hit rate {stats_pf.hit_rate:.1%} "
        f"({stats_pf.prefetch_hits} of {stats_pf.cache_hits} hits "
        f"served by readahead, {stats_pf.prefetch_loads} speculative "
        f"loads), {sweep_pf_wall:.2f} s",
        f"  without readahead   : hit rate {stats_plain.hit_rate:.1%} "
        f"({stats_plain.block_loads} demand loads), "
        f"{sweep_plain_wall:.2f} s",
        f"  hit-rate gain       : +{gain:.1%} (floor "
        f"{MIN_HIT_RATE_GAIN:.0%})",
        f"  {gate_line}",
    ]
    write_artifact("parallel_pipeline.txt", "\n".join(lines))
