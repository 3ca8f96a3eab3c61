"""``record``: the instrumented run and the store's write side.

The paper's Table 1 is what recording costs.  Each round runs halo2d on
64 simtime ranks untraced, traced to memory, and three times traced to
a sharded store (the workload's operation, so a run has enough of them
for a tail percentile), and the Table-1 Fibonacci with and without
uinst, so the per-layer numbers are differences of medians: what the
wrapper library adds over the bare run, and what the store adds over
memory.  No analysis runs here; the analysis layers should not move
this workload's numbers.
"""

from __future__ import annotations

import shutil
import statistics

import numpy as np

from repro.apps import (
    fib_program,
    fibonacci,
    halo2d_program,
    process_grid,
    reference_halo2d,
)
from repro.instrument.uinst import Uinst
from repro.instrument.wrappers import WrapperLibrary
from repro.mp import Runtime
from repro.trace import TraceFileReader
from repro.trace.recorder import TraceRecorder
from repro.trace.sinks import FileSink

from .gen import store_files
from .harness import Run, ratio

NPROCS = 64
TILE = 8
BACKEND = "simtime"
#: in-memory retention of the traced runs (the store keeps everything)
MEMORY_LIMIT = 4096
#: traced-to-store runs per round
RECORDINGS = 3
#: op_tail_ms percentile: a run records 55-90 times
TAIL = 75


def _sizes(quick: bool) -> tuple[int, int]:
    """(halo steps, fib n)."""
    return (1, 16) if quick else (2, 20)


def _halo(program, traced: bool, store=None):
    """One halo2d run, untraced, traced to memory, or traced to a store
    at ``store``; returns (results, records published)."""
    rt = Runtime(NPROCS, backend=BACKEND)
    recorder = sink = None
    try:
        if traced:
            recorder = TraceRecorder(NPROCS, memory_limit=MEMORY_LIMIT)
            WrapperLibrary(rt, recorder)
            if store is not None:
                sink = FileSink(store, NPROCS, compression="auto", shards="proc")
                recorder.subscribe(sink)
        rt.run(program)
        if sink is not None:
            sink.close()  # the recording is done when the store is closed
        return rt.results(), (recorder.total_recorded if recorder else 0)
    finally:
        rt.shutdown()


def _fib(n: int, instrumented: bool):
    """Table 1's fib(n) on one rank; returns (result, uinst calls)."""
    rt = Runtime(1, backend=BACKEND)
    wrappers = []
    uinst = None
    if instrumented:
        uinst = Uinst(rt, recorder=None, charge_virtual_cost=False)
        uinst.register_function(fibonacci.fib)
        wrappers.append(uinst.target_wrapper())
    try:
        rt.run(fib_program(n), target_wrappers=wrappers)
        return rt.results()[0], (uinst.entry_count if uinst else 0)
    finally:
        rt.shutdown()


def _open_store(run: Run, k: int):
    """Set-up: everything a traced recording builds before its first
    event -- the instrumented runtime and a 64-shard store."""
    rt = Runtime(NPROCS, backend=BACKEND)
    recorder = TraceRecorder(NPROCS, memory_limit=MEMORY_LIMIT)
    WrapperLibrary(rt, recorder)
    path = run.workdir / f"setup{k}" / "halo.trace"
    path.parent.mkdir(parents=True)
    sink = FileSink(path, NPROCS, compression="auto", shards="proc")
    recorder.subscribe(sink)
    sink.close()
    rt.shutdown()
    shutil.rmtree(path.parent)


def tile_sums(steps: int, seed: int) -> list[float]:
    """Per-rank ``tile.sum()`` of halo2d after ``steps``, from the
    numpy reference."""
    grid = reference_halo2d(NPROCS, TILE, steps, seed)
    _, px = process_grid(NPROCS)
    tiles = []
    for rank in range(NPROCS):
        gy, gx = divmod(rank, px)
        tile = grid[gy * TILE:(gy + 1) * TILE, gx * TILE:(gx + 1) * TILE]
        tiles.append(float(tile.sum()))
    return tiles


def record(run: Run) -> None:
    steps, fib_n = _sizes(run.quick)
    run.setup(lambda k: _open_store(run, k))
    program = halo2d_program(tile=TILE, steps=steps, seed=run.seed)
    with run.spans.span("reference", "bench"):
        expected = tile_sums(steps, run.seed)
        fib_expected = fibonacci.fib(fib_n)
        fib_calls = fibonacci.fib_call_count(fib_n)
    with run.spans.span("warmup", "instrument"):
        _halo(program, traced=True)  # first-use costs stay out of timing

    events = 0
    store_bytes: list[float] = []
    for k in run.rounds():
        plain, _ = run.timed("untraced", "mp", _halo, program, False)
        memory, _ = run.timed("memory", "instrument", _halo, program, True)
        with run.spans.span("check", "bench"):
            # one check per timed operation
            run.check(np.allclose(plain, expected, rtol=1e-12, atol=1e-12),
                      "untraced halo2d results differ from the numpy reference")
            run.check(memory == plain, "traced-to-memory results differ")
        for j in range(RECORDINGS):
            store = run.workdir / f"run{k}.{j}" / "halo.trace"
            store.parent.mkdir(parents=True)
            traced, n = run.timed("traced", "trace", _halo, program, True, store)
            events += n
            with run.spans.span("check", "bench"):
                on_disk = len(TraceFileReader(store).read_columns())
                run.check(traced == plain and on_disk == n,
                          f"traced-to-store run: results equal: {traced == plain}; "
                          f"store holds {on_disk} records, recorder published {n}")
                store_bytes.append(
                    sum(p.stat().st_size for p in store_files(store)) / max(n, 1)
                )
                shutil.rmtree(store.parent)
        fib_plain, _ = run.timed("fib", "mp", _fib, fib_n, False)
        fib_traced, calls = run.timed("fib_uinst", "instrument", _fib, fib_n, True)
        with run.spans.span("check", "bench"):
            run.check(fib_plain == fib_expected, "fib result is wrong")
            run.check(fib_traced == fib_expected and calls == fib_calls,
                      f"uinst fib: result {fib_traced}, {calls} calls "
                      f"(expected {fib_calls})")

    run.finish("traced", TAIL, events, sum(run.samples["traced"]))
    untraced = run.median("untraced")
    memory_s = run.median("memory")
    fib_uinst = run.median("fib_uinst")
    run.metrics.update({
        "mp.run_s": untraced,
        "instrument.wrapper_s": memory_s - untraced,
        "instrument.overhead_x": ratio(run.median("traced"), untraced),
        "instrument.uinst_s": fib_uinst - run.median("fib"),
        "instrument.uinst_calls_per_s": ratio(fib_calls, fib_uinst),
        "trace.write_s": run.median("traced") - memory_s,
        "trace.bytes_per_event": statistics.median(store_bytes),
    })
    run.notes.append(
        f"halo2d@{NPROCS} x {steps} steps: {events // len(run.samples['traced'])} "
        f"events per traced run; Table 1 overhead "
        f"{run.metrics['instrument.overhead_x']:.2f}x; fib({fib_n}) uinst "
        f"{ratio(fib_uinst, run.median('fib')):.1f}x over {fib_calls} calls"
    )
