"""Result dataclasses for schedule-space exploration.

One :class:`ScheduleOutcome` per replayed alternative schedule, rolled
up into an :class:`ExplorationReport` -- the artifact the "is my
program schedule-insensitive?" workflow produces.  Everything here is
JSON-serializable (``to_jsonable``) so reports can be archived next to
the forcing logs that reproduce each schedule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class ScheduleStatus(enum.Enum):
    """How one explored schedule ended, worst first."""

    CRASH = "crash"  # a rank raised
    DEADLOCK = "deadlock"  # all live ranks blocked
    DIVERGENT = "divergent"  # finished, numerically different results
    CLEAN = "clean"  # finished, same results as the base run


#: ordering used by :meth:`ExplorationReport.worst` (lower = worse).
_SEVERITY = {
    ScheduleStatus.CRASH: 0,
    ScheduleStatus.DEADLOCK: 1,
    ScheduleStatus.DIVERGENT: 2,
    ScheduleStatus.CLEAN: 3,
}


@dataclass
class ScheduleOutcome:
    """One steered replay: what was forced, and what happened."""

    schedule_id: int
    depth: int
    #: human description of the steer point (rank/marker/alternative)
    steer: str
    #: dedup key: matching fingerprint extended with the steer marker
    fingerprint: tuple
    #: JSON form of the forcing log that reproduces this schedule
    forcing_log: dict
    status: ScheduleStatus
    #: first divergent event per process vs the base run
    #: (:func:`repro.trace.diff.first_divergence_locations` dicts)
    divergences: list[dict] = field(default_factory=list)
    result_repr: Optional[str] = None
    error: Optional[str] = None
    blocked: list[str] = field(default_factory=list)
    events: int = 0
    wall: float = 0.0

    def first_divergence(self) -> Optional[dict]:
        return self.divergences[0] if self.divergences else None

    def describe(self) -> str:
        lines = [
            f"schedule #{self.schedule_id} (depth {self.depth}): "
            f"{self.status.value.upper()}",
            f"  steer: {self.steer}",
        ]
        if self.error:
            lines.append(f"  error: {self.error}")
        for wait in self.blocked[:4]:
            lines.append(f"  blocked: {wait}")
        div = self.first_divergence()
        if div is not None:
            left = div["left"] or {}
            right = div["right"] or {}

            def show(side: dict) -> str:
                if not side:
                    return "<end of trace>"
                msg = ""
                if side["src"] >= 0 or side["dst"] >= 0:
                    msg = f" {side['src']}->{side['dst']}#{side['seq']}"
                return (
                    f"{side['kind']}{msg} marker {side['marker']} "
                    f"at {side['location']}"
                )

            lines.append(
                f"  first divergence: p{div['proc']} event #{div['position']}"
                f" -- base {show(left)} vs {show(right)}"
            )
        if self.result_repr is not None:
            lines.append(f"  results: {self.result_repr}")
        n_forced = len(self.forcing_log.get("recv_matches", ()))
        lines.append(f"  forcing log: {n_forced} forced matching(s)")
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        return {
            "schedule_id": self.schedule_id,
            "depth": self.depth,
            "steer": self.steer,
            "fingerprint": [list(entry) for entry in self.fingerprint],
            "forcing_log": self.forcing_log,
            "status": self.status.value,
            "divergences": self.divergences,
            "result_repr": self.result_repr,
            "error": self.error,
            "blocked": self.blocked,
            "events": self.events,
            "wall": self.wall,
        }


@dataclass
class ExplorationReport:
    """Everything one exploration produced."""

    program: str
    nprocs: int
    depth: int
    batch: str
    races_at_root: int
    outcomes: list[ScheduleOutcome] = field(default_factory=list)
    #: candidates skipped because their forced prefix was already tried
    deduped: int = 0
    #: replays whose realized full matching converged with a prior one
    converged: int = 0
    #: candidates left unexplored when the schedule budget ran out
    pending: int = 0
    #: alternatives dropped because one forced receive cannot reach them
    unsteerable: int = 0
    #: alternatives dropped by the ``max_alternatives`` cap
    truncated: int = 0
    wall: float = 0.0
    base_events: int = 0

    # ------------------------------------------------------------------
    @property
    def explored(self) -> int:
        return len(self.outcomes)

    @property
    def counts(self) -> dict[str, int]:
        out = {status.value: 0 for status in ScheduleStatus}
        for outcome in self.outcomes:
            out[outcome.status.value] += 1
        return out

    @property
    def schedule_sensitive(self) -> bool:
        """Did any explored schedule crash, deadlock, or diverge?"""
        return any(o.status is not ScheduleStatus.CLEAN for o in self.outcomes)

    @property
    def qualified(self) -> bool:
        """Were some alternatives of the detected races left unexplored
        (unsteerable or truncated), so a clean verdict does not cover
        every matching?"""
        return bool(self.unsteerable or self.truncated)

    @property
    def schedules_per_sec(self) -> float:
        return self.explored / self.wall if self.wall > 0 else 0.0

    def worst(self) -> Optional[ScheduleOutcome]:
        """The most severe outcome (ties broken by discovery order)."""
        if not self.outcomes:
            return None
        return min(self.outcomes, key=lambda o: (_SEVERITY[o.status], o.schedule_id))

    def bad_schedules(self) -> list[ScheduleOutcome]:
        return [o for o in self.outcomes if o.status is not ScheduleStatus.CLEAN]

    # ------------------------------------------------------------------
    def as_text(self, verbose: bool = False) -> str:
        counts = self.counts
        lines = [
            f"explored {self.explored} alternative schedule(s) of "
            f"{self.program} on {self.nprocs} ranks "
            f"(depth {self.depth}, batch {self.batch}):",
            "  " + ", ".join(
                f"{counts[s.value]} {s.value}" for s in ScheduleStatus
            ),
            f"  races at root: {self.races_at_root}; prefix-deduped: "
            f"{self.deduped}; converged replays: {self.converged}; "
            f"pending (budget): {self.pending}",
            f"  alternatives not explored: {self.unsteerable} unsteerable, "
            f"{self.truncated} truncated (max_alternatives)",
            f"  wall: {self.wall:.2f}s ({self.schedules_per_sec:.1f} "
            "schedules/sec)",
        ]
        if not self.schedule_sensitive:
            lines.append(
                "  verdict: no schedule-dependent behaviour found -- the "
                "program looks schedule-insensitive over the explored space"
            )
            if self.qualified:
                lines.append(
                    f"  (qualified: {self.unsteerable + self.truncated} "
                    "alternative(s) of the detected races were not "
                    "explored, so this does not cover every matching)"
                )
        else:
            lines.append("  verdict: SCHEDULE-SENSITIVE")
            shown = self.bad_schedules() if verbose else [self.worst()]
            for outcome in shown:
                assert outcome is not None
                lines.extend("  " + ln for ln in outcome.describe().splitlines())
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        return {
            "program": self.program,
            "nprocs": self.nprocs,
            "depth": self.depth,
            "batch": self.batch,
            "races_at_root": self.races_at_root,
            "explored": self.explored,
            "counts": self.counts,
            "schedule_sensitive": self.schedule_sensitive,
            "qualified": self.qualified,
            "deduped": self.deduped,
            "converged": self.converged,
            "pending": self.pending,
            "unsteerable": self.unsteerable,
            "truncated": self.truncated,
            "wall": self.wall,
            "schedules_per_sec": self.schedules_per_sec,
            "base_events": self.base_events,
            "outcomes": [o.to_jsonable() for o in self.outcomes],
        }
