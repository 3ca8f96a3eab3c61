"""The 1000+-rank promise of the simtime backend.

Simtime carries ranks on lazily created threads and hands the execution
token over with O(1) per-rank semaphores, so a 1024-rank 2-D
halo-exchange stencil trace (isend/irecv/waitall + numpy compute) must
complete in single-digit seconds.

Results land in ``benchmarks/results/backend_compare.txt``, with a >2x
regression gate against the committed wall time in
``backend_compare_baseline.json`` (same pattern as the analysis-kernel
and tracefile-v3 gates wired into the CI benchmark smoke job).
"""

from __future__ import annotations

import json
import time

from benchmarks.conftest import RESULTS_DIR, write_artifact
from repro.apps import halo2d_program
from repro.mp import run_program

HALO_TILE = 2
BIG_NPROCS = 1024

BASELINE = RESULTS_DIR / "backend_compare_baseline.json"
#: CI regression gate: fail when the big-run wall exceeds
#: baseline*REGRESSION_FACTOR.
REGRESSION_FACTOR = 2.0
MAX_BIG_WALL = 9.9  # "single-digit seconds" for the 1024-rank trace


def test_1024_rank_wall():
    big = halo2d_program(tile=HALO_TILE, steps=2)
    t0 = time.perf_counter()
    rt = run_program(big, nprocs=BIG_NPROCS, backend="simtime")
    wall = time.perf_counter() - t0
    assert len(rt.results()) == BIG_NPROCS
    assert wall <= MAX_BIG_WALL, (
        f"1024-rank stencil took {wall:.1f}s on simtime; "
        f"the ceiling is single-digit seconds"
    )

    # -- regression gate against the recorded baseline -----------------
    gate_lines = ["baseline: (none; recorded this run)"]
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        ceiling = baseline["big_wall_seconds"] * REGRESSION_FACTOR
        gate_lines = [
            f"baseline 1024-rank wall {baseline['big_wall_seconds']:.2f}s, "
            f"gate ceiling {ceiling:.2f}s"
        ]
        assert wall <= ceiling, (
            f"1024-rank wall regressed: {wall:.2f}s vs "
            f"{baseline['big_wall_seconds']:.2f}s baseline "
            f"(ceiling {ceiling:.2f}s)"
        )
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE.write_text(
            json.dumps({"big_wall_seconds": round(wall, 2)}) + "\n"
        )

    write_artifact(
        "backend_compare.txt",
        "\n".join(
            [
                f"halo2d @ {BIG_NPROCS} ranks on simtime: {wall:.2f} s "
                f"(ceiling {MAX_BIG_WALL}s)",
                "",
                *gate_lines,
            ]
        ),
    )
