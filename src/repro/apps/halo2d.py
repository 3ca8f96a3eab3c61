"""2-D halo-exchange Jacobi stencil on a periodic process torus.

The canonical bulk-synchronous SPMD workload at scale: each rank owns a
``tile x tile`` block of a global periodic grid, exchanges one-cell-deep
edge halos with its four torus neighbours using nonblocking
``isend``/``irecv`` + ``waitall``, and applies a 4-point Jacobi
averaging update.  Unlike the 1-D :func:`repro.apps.ring.halo_program`
smoke workload this exercises a genuine 2-D neighbourhood (the paper's
target programs are grid codes of exactly this shape) and is the
scaling workload for the 64-1024-rank benchmarks: per-rank work is
constant, so wall-clock is dominated by the engine's scheduling cost.

Communication is fully deterministic (no wildcards), so every policy
and seed must reproduce the same numerics, and the pure-numpy
:func:`reference_halo2d` gives the ground-truth global evolution to
check tiles against.
"""

from __future__ import annotations

import numpy as np

from repro.mp.comm import Comm

#: direction tags; "to-north" arrives at the north neighbour as its
#: *south* halo.  Distinct per direction so the Py==2 / Px==2 torus
#: (where the north and south neighbour are the same rank) stays
#: unambiguous.
TAG_TO_NORTH = 61
TAG_TO_SOUTH = 62
TAG_TO_WEST = 63
TAG_TO_EAST = 64


def process_grid(nprocs: int) -> tuple[int, int]:
    """Factor ``nprocs`` into the squarest ``(Py, Px)`` torus."""
    px = int(np.sqrt(nprocs))
    while nprocs % px:
        px -= 1
    return nprocs // px, px


def initial_tile(rank: int, nprocs: int, tile: int, seed: int = 0) -> np.ndarray:
    """Deterministic initial block for ``rank`` (slice of the global grid)."""
    py, px = process_grid(nprocs)
    gy, gx = divmod(rank, px)
    rows = np.arange(gy * tile, (gy + 1) * tile)[:, None]
    cols = np.arange(gx * tile, (gx + 1) * tile)[None, :]
    # Smooth-but-nontrivial field; seed shifts the phase so distinct
    # seeds give distinct (still deterministic) executions.
    return np.sin(0.7 * rows + seed) * np.cos(0.3 * cols - seed) + 0.01 * rows * cols


def reference_halo2d(nprocs: int, tile: int, steps: int, seed: int = 0) -> np.ndarray:
    """Pure-numpy ground truth: the full global grid after ``steps``."""
    py, px = process_grid(nprocs)
    grid = np.empty((py * tile, px * tile))
    for rank in range(nprocs):
        gy, gx = divmod(rank, px)
        grid[gy * tile:(gy + 1) * tile, gx * tile:(gx + 1) * tile] = initial_tile(
            rank, nprocs, tile, seed
        )
    for _ in range(steps):
        grid = 0.25 * (
            np.roll(grid, 1, axis=0)
            + np.roll(grid, -1, axis=0)
            + np.roll(grid, 1, axis=1)
            + np.roll(grid, -1, axis=1)
        )
    return grid


def halo2d_program(tile: int = 4, steps: int = 2, seed: int = 0,
                   compute_cost: float = 0.0):
    """Build the stencil target; each rank returns ``float(tile.sum())``.

    ``compute_cost`` adds virtual compute time per step (for time-space
    diagrams); it does not affect the numerics.
    """

    def prog(comm: Comm):
        py, px = process_grid(comm.size)
        gy, gx = divmod(comm.rank, px)
        north = ((gy - 1) % py) * px + gx
        south = ((gy + 1) % py) * px + gx
        west = gy * px + (gx - 1) % px
        east = gy * px + (gx + 1) % px
        local = initial_tile(comm.rank, comm.size, tile, seed)

        for _ in range(steps):
            recvs = [
                comm.irecv(source=south, tag=TAG_TO_NORTH),  # south's top-bound row
                comm.irecv(source=north, tag=TAG_TO_SOUTH),
                comm.irecv(source=east, tag=TAG_TO_WEST),
                comm.irecv(source=west, tag=TAG_TO_EAST),
            ]
            sends = [
                comm.isend(local[0, :].copy(), dest=north, tag=TAG_TO_NORTH),
                comm.isend(local[-1, :].copy(), dest=south, tag=TAG_TO_SOUTH),
                comm.isend(local[:, 0].copy(), dest=west, tag=TAG_TO_WEST),
                comm.isend(local[:, -1].copy(), dest=east, tag=TAG_TO_EAST),
            ]
            halo_s, halo_n, halo_e, halo_w = comm.waitall(recvs)
            comm.waitall(sends)
            padded = np.empty((tile + 2, tile + 2))
            padded[1:-1, 1:-1] = local
            padded[0, 1:-1] = halo_n
            padded[-1, 1:-1] = halo_s
            padded[1:-1, 0] = halo_w
            padded[1:-1, -1] = halo_e
            local = 0.25 * (
                padded[:-2, 1:-1]
                + padded[2:, 1:-1]
                + padded[1:-1, :-2]
                + padded[1:-1, 2:]
            )
            if compute_cost:
                comm.compute(compute_cost, label="stencil")
        return float(local.sum())

    return prog
