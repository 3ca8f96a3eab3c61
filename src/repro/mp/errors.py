"""Exception hierarchy for the simulated message-passing runtime.

The runtime mirrors the error classes an MPI implementation reports
(invalid rank, truncation, ...) plus simulator-level conditions the paper's
debugger cares about: deadlock (Figures 5-6 of the paper show two processes
blocked in receives on each other) and controlled-replay divergence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .process import WaitInfo


class MPError(Exception):
    """Base class for all errors raised by the :mod:`repro.mp` runtime."""


class MPIError(MPError):
    """An error corresponding to a failed MPI call (bad arguments etc.)."""


class InvalidRankError(MPIError):
    """A ``dest``/``source`` argument named a rank outside the communicator."""

    def __init__(self, rank: int, size: int) -> None:
        super().__init__(f"rank {rank} outside communicator of size {size}")
        self.rank = rank
        self.size = size


class InvalidTagError(MPIError):
    """A tag was negative (and not one of the wildcard constants)."""

    def __init__(self, tag: int) -> None:
        super().__init__(f"invalid tag {tag}: user tags must be >= 0")
        self.tag = tag


class TruncationError(MPIError):
    """A receive posted with a max count smaller than the matched message."""

    def __init__(self, expected: int, actual: int) -> None:
        super().__init__(
            f"message truncated: receive buffer holds {expected} "
            f"elements, message carries {actual}"
        )
        self.expected = expected
        self.actual = actual


class RequestError(MPIError):
    """Misuse of a nonblocking request (double wait, freed request, ...)."""


class DeadlockError(MPError):
    """All live processes are blocked and none can make progress.

    The scheduler raises (or, in ``report`` mode, records) this when its
    ready queue empties while blocked processes remain.  ``waiting``
    carries one :class:`~repro.mp.process.WaitInfo` per blocked process so
    the debugger can show *who waits for whom*, which is exactly the
    analysis behind the paper's Figure 5.
    """

    def __init__(self, waiting: Sequence["WaitInfo"]) -> None:
        lines = ", ".join(str(w) for w in waiting)
        super().__init__(f"deadlock: all live processes blocked [{lines}]")
        self.waiting = list(waiting)


class ReplayDivergenceError(MPError):
    """A controlled replay observed an event the recorded log cannot match.

    Raised when the program under replay issues a communication operation
    whose (process, operation, peer, tag) signature differs from the
    recorded history -- i.e. the program is not deterministic relative to
    the trace, violating the applicability conditions in Section 6 of the
    paper.
    """


class ProcessKilled(BaseException):
    """Injected into a process thread to terminate it during teardown.

    Derives from :class:`BaseException` so user-level ``except Exception``
    blocks do not swallow it.
    """
