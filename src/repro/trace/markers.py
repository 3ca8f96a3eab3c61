"""Execution markers and marker vectors.

An *execution marker* (paper Section 2) is a tag "that allow[s] mapping
from a particular trace record to the point of its generation": here, the
pair (rank, counter) where the counter is the per-process count of
instrumentation points.  A *marker vector* assigns one counter value per
rank; stoplines and undo targets are marker vectors.

Semantics used throughout: a threshold of ``m`` stops the process when
its counter *reaches* ``m``, i.e. **before** the construct whose record
carries marker ``m`` executes its body.  (The marker is generated at the
top of the construct, then the threshold test runs -- exactly the
UserMonitor ordering of Section 2.2.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional


@dataclass(frozen=True, order=True)
class ExecutionMarker:
    """A single (rank, counter) execution tag."""

    rank: int
    counter: int

    def __str__(self) -> str:
        return f"p{self.rank}@{self.counter}"


class MarkerVector:
    """One counter per rank; the debugger's cross-process stop target.

    Ranks without an entry are unconstrained (they run to completion
    during a replay toward this vector).
    """

    def __init__(self, thresholds: Optional[Mapping[int, int]] = None) -> None:
        self._thresholds: dict[int, int] = dict(thresholds or {})
        for rank, counter in self._thresholds.items():
            if counter < 0:
                raise ValueError(
                    f"marker counter must be >= 0 (rank {rank} got {counter})"
                )

    # ------------------------------------------------------------------
    @classmethod
    def from_markers(cls, markers: Iterable[ExecutionMarker]) -> "MarkerVector":
        return cls({m.rank: m.counter for m in markers})

    def markers(self) -> Iterator[ExecutionMarker]:
        for rank in sorted(self._thresholds):
            yield ExecutionMarker(rank, self._thresholds[rank])

    # ------------------------------------------------------------------
    def __getitem__(self, rank: int) -> int:
        return self._thresholds[rank]

    def get(self, rank: int, default: Optional[int] = None) -> Optional[int]:
        return self._thresholds.get(rank, default)

    def __contains__(self, rank: int) -> bool:
        return rank in self._thresholds

    def __len__(self) -> int:
        return len(self._thresholds)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._thresholds))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkerVector):
            return NotImplemented
        return self._thresholds == other._thresholds

    def __hash__(self) -> int:
        return hash(frozenset(self._thresholds.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{r}:{c}" for r, c in sorted(self._thresholds.items()))
        return f"MarkerVector({{{inner}}})"

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[int, int]:
        """Copy as a plain rank->counter dict (runtime threshold form)."""
        return dict(self._thresholds)

    def dominates(self, other: "MarkerVector") -> bool:
        """True if this vector is componentwise >= ``other`` on the
        ranks both constrain."""
        for rank in other:
            mine = self.get(rank)
            if mine is not None and mine < other[rank]:
                return False
        return True

    def merged_min(self, other: "MarkerVector") -> "MarkerVector":
        """Componentwise minimum over the union of constrained ranks."""
        out: dict[int, int] = dict(self._thresholds)
        for rank in other:
            val = other[rank]
            out[rank] = min(out[rank], val) if rank in out else val
        return MarkerVector(out)
