"""Seeded 2-D halo trace store with a closed-form oracle.

The ``analyze`` and ``zoom`` workloads need a store far larger than a
recorded run can produce inside a benchmark's set-up budget, and they
need to know the right answers without trusting the code under test.
:class:`HaloStore` builds the columns of a 64-rank halo exchange
directly in numpy and knows, in closed form, what every query over it
must return.

Layout.  Ranks form an 8x8 torus.  Every round each rank sends east and
south, receives from west and north, then computes -- five events.  The
global record index is ``round * 5P + slot * P + rank`` (all sends of a
round precede all its receives, so the index order is a causal
linearization), and ``seq`` is the round, so every send has exactly one
matching receive.  On four seeded ranks the west receive of every 32nd
round is posted with ``ANY_SOURCE``, which gives the race detector work.

Times.  An event of ``slot`` on rank ``p`` in round ``r`` spans
``t0 = r + offset[slot, p]`` to ``t0 + duration[slot, p]``.  The seed
draws a per-rank skew (folded into ``offset``) and a per-rank compute
duration.  Because times are that simple, :meth:`HaloStore.window_indexes`
lists the records of any ``[t_lo, t_hi]`` window by solving for the
round range of each (slot, rank) pair -- no scan of the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.mp.datatypes import ANY_SOURCE, SourceLocation
from repro.trace import EventKind, TraceShardWriter
from repro.trace.columnar import COLUMN_SPEC, DEFAULT_KIND_TABLE, KIND_CODES, ColumnBlock

NPROCS = 64
SIDE = 8
#: slots of one round, in program order
SLOTS = ("send_east", "send_south", "recv_west", "recv_north", "compute")
EVENTS_PER_ROUND = len(SLOTS) * NPROCS
#: halo2d's direction tags: a message sent east arrives as the west halo
TAG_TO_SOUTH = 62
TAG_TO_EAST = 64
WILDCARD_RANKS = 4
WILDCARD_EVERY = 32
#: rounds per ``write_columns`` call (bounds the generator's memory)
CHUNK_ROUNDS = 100
SHARDS = 8

LOCATIONS = [
    SourceLocation("halo2d.py", 99 + i, name) for i, name in enumerate(SLOTS)
]


def _east(p: np.ndarray) -> np.ndarray:
    return (p // SIDE) * SIDE + (p % SIDE + 1) % SIDE


def _west(p: np.ndarray) -> np.ndarray:
    return (p // SIDE) * SIDE + (p % SIDE - 1) % SIDE


def _south(p: np.ndarray) -> np.ndarray:
    return (p + SIDE) % NPROCS


def _north(p: np.ndarray) -> np.ndarray:
    return (p - SIDE) % NPROCS


@dataclass
class HaloStore:
    """The store for one seed: its columns, its on-disk form, its oracle."""

    seed: int
    rounds: int
    offset: np.ndarray = field(init=False, repr=False)
    duration: np.ndarray = field(init=False, repr=False)
    wildcard_ranks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        rng = np.random.default_rng(self.seed)
        skew = rng.uniform(0.0, 0.05, NPROCS)
        compute = rng.uniform(0.30, 0.49, NPROCS)
        start = np.array([0.00, 0.05, 0.10, 0.30, 0.45])
        self.offset = start[:, None] + skew[None, :]
        self.duration = np.empty((len(SLOTS), NPROCS))
        self.duration[0:2] = 0.02
        self.duration[2] = 0.20
        self.duration[3] = 0.15
        self.duration[4] = compute
        self.wildcard_ranks = np.sort(
            rng.choice(NPROCS, WILDCARD_RANKS, replace=False)
        )

    # ------------------------------------------------------------------
    # sizes and closed-form answers
    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        return self.rounds * EVENTS_PER_ROUND

    @property
    def n_sends(self) -> int:
        """Sends in the store; every one is matched, so this is also the
        number of message pairs."""
        return 2 * NPROCS * self.rounds

    @property
    def n_races(self) -> int:
        """Races the detector must report: one per wildcard receive once
        there are two rounds.  Each races with the west neighbour's other
        sends to it that do not causally follow it -- every earlier one,
        and the next seven (news from a rank reaches its west neighbour
        only by going round the torus row, one hop per round)."""
        if self.rounds < 2:
            return 0
        return WILDCARD_RANKS * len(range(0, self.rounds, WILDCARD_EVERY))

    @property
    def span(self) -> tuple[float, float]:
        last = float(self.rounds - 1)
        return (
            float(self.offset.min()),
            float(((last + self.offset) + self.duration).max()),
        )

    def window_indexes(
        self, t_lo: float, t_hi: float, procs: Optional[set[int]] = None
    ) -> np.ndarray:
        """Sorted record indexes overlapping ``[t_lo, t_hi]`` (inclusive,
        the ``seek_window`` semantics), optionally limited to ``procs``.

        Per (slot, rank) the overlapping rounds are one contiguous range;
        its ends are solved for and then nudged with the generator's own
        float expressions, so boundary cases agree bit for bit.
        """
        if t_lo > t_hi:
            return np.empty(0, dtype=np.int64)
        a = self.offset.ravel()
        d = self.duration.ravel()
        slot = np.repeat(np.arange(len(SLOTS)), NPROCS)
        rank = np.tile(np.arange(NPROCS), len(SLOTS))
        last = self.rounds - 1
        lo = np.clip(np.floor(t_lo - a - d) - 1, 0, last + 1)
        hi = np.clip(np.floor(t_hi - a) + 1, -1, last)
        while True:
            up = (lo <= last) & ((lo + a) + d < t_lo)
            down = (hi >= 0) & (hi + a > t_hi)
            if not (up.any() or down.any()):
                break
            lo = lo + up
            hi = hi - down
        keep = hi >= lo
        if procs is not None:
            keep &= np.isin(rank, list(procs))
        parts = [
            np.arange(int(l), int(h) + 1, dtype=np.int64) * EVENTS_PER_ROUND
            + s * NPROCS + p
            for l, h, s, p in zip(lo[keep], hi[keep], slot[keep], rank[keep])
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    # ------------------------------------------------------------------
    # columns
    # ------------------------------------------------------------------
    def columns(self, r_lo: int, r_hi: int) -> ColumnBlock:
        """Every record of rounds ``[r_lo, r_hi)`` as one column block."""
        rounds = np.arange(r_lo, r_hi, dtype=np.int64)
        nr = rounds.size
        slot = np.tile(np.repeat(np.arange(len(SLOTS)), NPROCS), nr)
        proc = np.tile(np.arange(NPROCS), len(SLOTS) * nr)
        rnd = np.repeat(rounds, EVENTS_PER_ROUND)
        index = rnd * EVENTS_PER_ROUND + slot * NPROCS + proc
        t0 = rnd.astype(np.float64) + self.offset[slot, proc]
        t1 = t0 + self.duration[slot, proc]
        kind_of_slot = np.array(
            [KIND_CODES[EventKind.SEND]] * 2
            + [KIND_CODES[EventKind.RECV]] * 2
            + [KIND_CODES[EventKind.COMPUTE]],
            dtype=np.uint8,
        )
        src_of_slot = [proc, proc, _west(proc), _north(proc)]
        dst_of_slot = [_east(proc), _south(proc), proc, proc]
        tag_of_slot = [TAG_TO_EAST, TAG_TO_SOUTH, TAG_TO_EAST, TAG_TO_SOUTH]
        src = np.full(index.size, -1, dtype=np.int64)
        dst = np.full(index.size, -1, dtype=np.int64)
        tag = np.full(index.size, -1, dtype=np.int64)
        for s in range(4):
            at = slot == s
            src[at] = src_of_slot[s][at]
            dst[at] = dst_of_slot[s][at]
            tag[at] = tag_of_slot[s]
        message = slot < 4
        wildcard = (
            (slot == 2)
            & (rnd % WILDCARD_EVERY == 0)
            & np.isin(proc, self.wildcard_ranks)
        )
        cols = {
            "index": index,
            "proc": proc,
            "kind": kind_of_slot[slot],
            "t0": t0,
            "t1": t1,
            "marker": rnd * len(SLOTS) + slot + 1,
            "src": src,
            "dst": dst,
            "tag": tag,
            "size": np.where(message, 64, 0),
            "seq": np.where(message, rnd, -1),
            "peer_marker": np.full(index.size, -1),
            "peer_time": np.full(index.size, -1.0),
            "construct_id": np.full(index.size, -1),
            "loc": slot,
            "ploc": np.full(index.size, -1),
            "extra": np.where(wildcard, 0, -1),
        }
        return ColumnBlock(
            columns={
                name: np.ascontiguousarray(cols[name], dtype=dt)
                for name, dt in COLUMN_SPEC
            },
            locations=LOCATIONS,
            peer_locations=[],
            extras=[{"posted_src": ANY_SOURCE, "posted_tag": TAG_TO_EAST}],
            kind_table=DEFAULT_KIND_TABLE,
        )

    def chunks(self) -> Iterator[ColumnBlock]:
        """The whole store as column blocks of :data:`CHUNK_ROUNDS` rounds."""
        for r in range(0, self.rounds, CHUNK_ROUNDS):
            yield self.columns(r, min(r + CHUNK_ROUNDS, self.rounds))

    def write(self, path: Path,
              chunks: Optional[Iterable[ColumnBlock]] = None) -> None:
        """Write the store (or pre-generated ``chunks`` of it) as 8 hash
        shards of compressed 512-record blocks, the library defaults."""
        with TraceShardWriter(
            path, NPROCS, by="hash", shards=SHARDS, compression="auto"
        ) as writer:
            for block in self.chunks() if chunks is None else chunks:
                writer.write_columns(block)


def store_files(path: Path) -> list[Path]:
    """The manifest and every shard file of the store at ``path``."""
    path = Path(path)
    return [path] + sorted(path.parent.glob(f"{path.stem}-shard*.trace"))
