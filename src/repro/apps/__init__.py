"""``repro.apps`` -- the workload programs the paper evaluates on.

* :mod:`~repro.apps.strassen` -- distributed Strassen multiply (Figures
  3-7, Table 1), including the wrong-destination buggy variant.
* :mod:`~repro.apps.fibonacci` -- recursive Fibonacci (Table 1 worst case).
* :mod:`~repro.apps.lu` -- NAS-LU-like pipelined SSOR solver (Figure 8).
* :mod:`~repro.apps.ring` -- ring / pingpong / halo / master-worker
  microworkloads for tests and examples.
* :mod:`~repro.apps.halo2d` -- 2-D halo-exchange Jacobi stencil on a
  process torus (isend/irecv/waitall; the 64-1024-rank scaling workload).
* :mod:`~repro.apps.dptrain` -- allreduce-heavy data-parallel training
  loop (collective-dominated scaling workload).

Application code deliberately lives *outside* the runtime packages so
the instrumentation layers treat it as user code (source locations in
traces point here).

:data:`CONFORMANCE_PROGRAMS` is the shared registry the engine
conformance suite iterates: one small, rank-count-agnostic
configuration of every app, each entry a ``factory(nprocs, seed)``
returning a launchable target.
"""

from .dptrain import dptrain_program, make_shard
from .fibonacci import distributed_fib_program, fib, fib_call_count, fib_program
from .halo2d import halo2d_program, initial_tile, process_grid, reference_halo2d
from .lu import LUConfig, local_residual, lu_program, make_rhs
from .ring import halo_program, master_worker_program, pingpong_program, ring_program
from .schedbug import (
    SCHEDBUG_MODES,
    reference_result,
    schedbug_program,
    task_value,
)
from .strassen import (
    N_PRODUCTS,
    TAG_OPERAND_A,
    TAG_OPERAND_B,
    TAG_RESULT,
    StrassenConfig,
    combine_products,
    make_inputs,
    reference_product,
    split_quadrants,
    strassen_operands,
    strassen_program,
)

def _fib_padded(n):
    """distributed_fib uses ranks 0-2; let extra ranks exit cleanly."""
    inner = distributed_fib_program(n)

    def prog(comm):
        return inner(comm) if comm.rank < 3 else None

    return prog


#: name -> factory(nprocs, seed) -> program target, sized for quick runs.
CONFORMANCE_PROGRAMS = {
    "ring": lambda nprocs, seed: ring_program(rounds=2, payload=2),
    "pingpong": lambda nprocs, seed: pingpong_program(rounds=3, size=4),
    "halo1d": lambda nprocs, seed: halo_program(steps=2, width=3),
    "master_worker": lambda nprocs, seed: master_worker_program(
        n_tasks=2 * nprocs, task_cost=1.0
    ),
    "strassen": lambda nprocs, seed: strassen_program(
        StrassenConfig(n=8, nprocs=nprocs)
    ),
    "fib": lambda nprocs, seed: _fib_padded(7),
    "lu": lambda nprocs, seed: lu_program(
        LUConfig(grid=max(8, nprocs), nprocs=nprocs, panels=2, sweeps=2)
    ),
    "halo2d": lambda nprocs, seed: halo2d_program(tile=3, steps=2, seed=seed),
    "dptrain": lambda nprocs, seed: dptrain_program(
        steps=3, dim=4, n_samples=8, seed=seed
    ),
    "schedbug": lambda nprocs, seed: schedbug_program(
        n_tasks=2 * nprocs, mode="safe", task_cost=1.0
    ),
}

__all__ = [
    "CONFORMANCE_PROGRAMS",
    "LUConfig",
    "N_PRODUCTS",
    "StrassenConfig",
    "TAG_OPERAND_A",
    "TAG_OPERAND_B",
    "TAG_RESULT",
    "combine_products",
    "distributed_fib_program",
    "dptrain_program",
    "fib",
    "fib_call_count",
    "fib_program",
    "halo2d_program",
    "halo_program",
    "initial_tile",
    "local_residual",
    "lu_program",
    "make_inputs",
    "make_rhs",
    "make_shard",
    "SCHEDBUG_MODES",
    "master_worker_program",
    "pingpong_program",
    "process_grid",
    "reference_halo2d",
    "reference_product",
    "reference_result",
    "ring_program",
    "schedbug_program",
    "task_value",
    "split_quadrants",
    "strassen_operands",
    "strassen_program",
]
