"""Constants and small value types shared across the runtime.

These mirror the MPI constants the paper's instrumentation layer cares
about (``MPI_ANY_SOURCE``, ``MPI_ANY_TAG``, reserved tags for collectives)
without pretending to be a full ABI.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Wildcard source rank for :meth:`Comm.recv` (``MPI_ANY_SOURCE``).
ANY_SOURCE: int = -1

#: Wildcard tag for :meth:`Comm.recv` (``MPI_ANY_TAG``).
ANY_TAG: int = -2

#: Null process: sends/recvs to it complete immediately and carry nothing,
#: matching ``MPI_PROC_NULL`` semantics used by boundary exchanges.
PROC_NULL: int = -3

#: Tags >= this value are reserved for internal collective plumbing.  User
#: tags must stay below it, as enforced by :func:`check_tag`.
COLLECTIVE_TAG_BASE: int = 1 << 28

#: The upper bound on user tags (mirrors ``MPI_TAG_UB``).
TAG_UB: int = COLLECTIVE_TAG_BASE - 1


class CollectiveTag(enum.IntEnum):
    """Reserved tag space carved out above :data:`COLLECTIVE_TAG_BASE`.

    Collectives in this runtime are implemented on top of point-to-point
    sends so that they show up in traces as message events (the paper's
    time-space diagrams render collective traffic the same way).  Each
    collective kind gets a disjoint tag block so concurrent collectives on
    the same communicator never cross-match.
    """

    BARRIER = COLLECTIVE_TAG_BASE + 0x0000
    BCAST = COLLECTIVE_TAG_BASE + 0x1000
    SCATTER = COLLECTIVE_TAG_BASE + 0x2000
    GATHER = COLLECTIVE_TAG_BASE + 0x3000
    REDUCE = COLLECTIVE_TAG_BASE + 0x4000
    ALLREDUCE = COLLECTIVE_TAG_BASE + 0x5000
    ALLGATHER = COLLECTIVE_TAG_BASE + 0x6000
    ALLTOALL = COLLECTIVE_TAG_BASE + 0x7000
    SCAN = COLLECTIVE_TAG_BASE + 0x8000


class SendMode(enum.Enum):
    """Point-to-point send modes, as in MPI chapter 3.

    * ``STANDARD`` -- buffered by the runtime; the sender never blocks.
      (Real MPI may choose either; the simulator picks buffered so that the
      deadlock scenarios reproduced from the paper are *receive* deadlocks,
      as in Figure 5.)
    * ``SYNCHRONOUS`` -- rendezvous; the send completes only once a
      matching receive is posted (``MPI_Ssend``).
    * ``READY`` -- erroneous unless a matching receive is already posted
      (``MPI_Rsend``); the simulator raises on misuse, which is a message
      error the paper's Section 6 excludes from replayable programs.
    """

    STANDARD = "standard"
    SYNCHRONOUS = "synchronous"
    READY = "ready"


@dataclass(frozen=True)
class SourceLocation:
    """A (file, line, function) triple identifying a program construct.

    Trace records carry one of these so displays can map a bar or message
    line back to the program source, the "click on a bar" feature of both
    NTV and VK described in Section 3.1 of the paper.
    """

    filename: str
    lineno: int
    function: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.filename}:{self.lineno}:{self.function}"

    @staticmethod
    def unknown() -> "SourceLocation":
        """A placeholder location for constructs without source info."""
        return SourceLocation("<unknown>", 0, "<unknown>")


def check_rank(rank: int, size: int, *, wildcard_ok: bool = False) -> None:
    """Validate a rank argument against a communicator of ``size``.

    ``PROC_NULL`` is always accepted; ``ANY_SOURCE`` only when
    ``wildcard_ok`` (i.e. for receive-side arguments).
    """
    from .errors import InvalidRankError

    if rank == PROC_NULL:
        return
    if wildcard_ok and rank == ANY_SOURCE:
        return
    if not 0 <= rank < size:
        raise InvalidRankError(rank, size)


def is_reserved_tag(tag: int) -> bool:
    """True for tags in the collective-plumbing space."""
    return tag >= COLLECTIVE_TAG_BASE


def check_tag(tag: int, *, wildcard_ok: bool = False, reserved_ok: bool = False) -> None:
    """Validate a tag argument (user tags must be in ``[0, TAG_UB]``).

    ``reserved_ok`` is set only by point-to-point calls issued from
    inside a collective implementation, which are allowed to use the
    reserved tag space above :data:`COLLECTIVE_TAG_BASE`.
    """
    from .errors import InvalidTagError

    if wildcard_ok and tag == ANY_TAG:
        return
    if reserved_ok and is_reserved_tag(tag):
        return
    if not 0 <= tag <= TAG_UB:
        raise InvalidTagError(tag)
