"""Allreduce-heavy data-parallel training loop.

A miniature synchronous-SGD workload: rank 0 broadcasts the initial
model, every rank computes a gradient on its private data shard, and
each step runs **two** allreduces -- one to average gradients, one to
average the loss -- before the local SGD update.  Collective traffic
therefore dominates, the complementary stress profile to the
point-to-point :mod:`~repro.apps.halo2d` stencil: the ring/tree
collectives inside the runtime generate O(size) messages per step, so
at 256-1024 ranks this workload measures how cheaply the engine
schedules long dependency chains.

The model is linear least-squares on synthetic shards drawn around a
shared ground-truth weight vector, so the averaged loss is guaranteed
to decrease monotonically under a small enough step size -- a property
the tests assert, and one that only holds if the runtime delivers the
collectives correctly.

Deterministic end to end (no wildcards, seeded shards): every policy
must return the identical loss history on every rank.
"""

from __future__ import annotations

import numpy as np

from repro.mp.comm import Comm


def make_shard(rank: int, seed: int, n_samples: int, dim: int):
    """Deterministic per-rank (X, y) regression shard."""
    # NOT hash(): string hashing is salted per interpreter, which would
    # silently break cross-run trace identity.
    rng = np.random.default_rng(1_000_003 * seed + rank + 17)
    w_true = _true_weights(seed, dim)
    x = rng.standard_normal((n_samples, dim))
    noise = 0.01 * rng.standard_normal(n_samples)
    return x, x @ w_true + noise


def _true_weights(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(999_331 * (seed + 1))
    return rng.standard_normal(dim)


def dptrain_program(steps: int = 4, dim: int = 8, n_samples: int = 16,
                    lr: float = 0.05, seed: int = 0,
                    compute_cost: float = 0.0):
    """Build the training target; every rank returns the loss history.

    The returned list has one (identical across ranks) averaged loss
    per step, measured *before* that step's update, so with a sane
    ``lr`` it decreases monotonically.
    """

    def prog(comm: Comm):
        x, y = make_shard(comm.rank, seed, n_samples, dim)
        # Rank 0 owns the initial model; everyone starts identical.
        w0 = np.zeros(dim) if comm.rank == 0 else None
        w = comm.bcast(w0, root=0)
        losses = []
        for _ in range(steps):
            resid = x @ w - y
            loss = float(resid @ resid) / n_samples
            grad = 2.0 * (x.T @ resid) / n_samples
            if compute_cost:
                comm.compute(compute_cost, label="grad")
            grad_sum = comm.allreduce(grad)
            loss_sum = comm.allreduce(loss)
            losses.append(loss_sum / comm.size)
            w = w - lr * (grad_sum / comm.size)
        return losses

    return prog
