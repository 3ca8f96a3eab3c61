"""Mailboxes and receive matching.

Every process owns one :class:`Mailbox`.  Sends deposit a
:class:`~repro.mp.message.Message` into the destination mailbox; receives
post a :class:`PendingRecv` and either match an already-queued message or
block until a deposit satisfies them.

Matching implements the MPI rules the paper's trace-graph construction
depends on (Section 3.2):

* **Non-overtaking** -- among queued messages from the same (src, tag),
  the one with the smallest ``seq`` matches first.  Because the simulator
  deposits messages in send order, "smallest arrival order" implies
  "smallest seq" per (src, tag), so a single arrival-ordered scan is
  enough.
* **Posted-receive order** -- a deposited message matches the *earliest
  posted* pending receive it satisfies.
* **Wildcard determinism** -- an ``ANY_SOURCE``/``ANY_TAG`` receive takes
  the matching message with the smallest arrival order.  A replay
  director can *force* the match instead (Section 4.2 nondeterminism
  control) by pinning the pending receive to one envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .datatypes import SourceLocation
from .envelopeutil import envelope_key_str  # noqa: F401  (re-export for tools)
from .errors import MPIError
from .message import Envelope, Message


@dataclass
class PendingRecv:
    """A posted receive waiting to be matched.

    Attributes
    ----------
    source, tag:
        The receive's matching pattern (may be wildcards).
    forced:
        When set by the replay director, only a message whose envelope
        equals this (src, tag, seq) triple may match -- even if other
        messages that satisfy (source, tag) are available.  This is how a
        replay reproduces the original wildcard matching.
    matched:
        Filled in with the message once matched.
    post_order:
        Position in the process's posted-receive queue; earlier posts
        match first.
    location:
        Source construct that posted the receive (for trace records and
        for the who-waits-for-whom deadlock report).
    on_match:
        Optional callback run (by the depositing thread) at match time;
        used by nonblocking receives to complete their request.
    """

    source: int
    tag: int
    post_order: int
    #: communicator context: only same-comm messages may match
    comm_id: int = 0
    forced: Optional[Envelope] = None
    matched: Optional[Message] = None
    location: SourceLocation = field(default_factory=SourceLocation.unknown)
    on_match: Optional[Callable[[Message], None]] = None
    cancelled: bool = False

    def accepts(self, msg: Message) -> bool:
        """Would this pending receive match ``msg``?"""
        if self.cancelled or self.matched is not None:
            return False
        if msg.envelope.comm_id != self.comm_id:
            return False
        if self.forced is not None:
            env = msg.envelope
            return (env.src, env.tag, env.seq) == (
                self.forced.src,
                self.forced.tag,
                self.forced.seq,
            )
        return msg.matches(self.source, self.tag)

    def complete(self, msg: Message) -> None:
        """Record ``msg`` as the match and fire the completion callback."""
        self.matched = msg
        if self.on_match is not None:
            self.on_match(msg)


class Mailbox:
    """Arrived-but-unreceived messages plus posted receives for one rank.

    The mailbox is manipulated only by threads holding the scheduler
    token, so it needs no locking of its own -- a deliberate property of
    the cooperative runtime that keeps matching deterministic.
    """

    def __init__(self, owner_rank: int) -> None:
        self.owner_rank = owner_rank
        self._queued: list[Message] = []
        self._posted: list[PendingRecv] = []
        self._post_counter = 0
        #: count of messages ever deposited (tests & flow stats)
        self.total_deposited = 0
        #: count of messages ever matched to a receive
        self.total_matched = 0
        #: runtime-installed observer fired at every (message, receive)
        #: match -- the single point where the replay log records wildcard
        #: resolutions and synchronous senders learn they may proceed.
        self.on_message_matched: Optional[
            Callable[[Message, PendingRecv], None]
        ] = None
        #: runtime-installed observer fired at every deposit (wakes
        #: blocked probes at the destination).
        self.on_deposit: Optional[Callable[[Message], None]] = None

    def _notify_match(self, msg: Message, pending: PendingRecv) -> None:
        if self.on_message_matched is not None:
            self.on_message_matched(msg, pending)

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def deposit(self, msg: Message) -> Optional[PendingRecv]:
        """Deliver ``msg``; return the pending receive it matched, if any.

        If an already-posted receive accepts the message, the message
        bypasses the queue and completes that receive (the earliest
        posted one, per MPI matching).  Otherwise it is queued for a
        future receive.
        """
        self.total_deposited += 1
        if self.on_deposit is not None:
            self.on_deposit(msg)
        for pending in self._posted:
            if pending.accepts(msg):
                self._posted.remove(pending)
                pending.complete(msg)
                self.total_matched += 1
                self._notify_match(msg, pending)
                return pending
        self._queued.append(msg)
        return None

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def post(
        self,
        source: int,
        tag: int,
        *,
        comm_id: int = 0,
        forced: Optional[Envelope] = None,
        location: Optional[SourceLocation] = None,
        on_match: Optional[Callable[[Message], None]] = None,
    ) -> PendingRecv:
        """Post a receive; match immediately against the queue if possible.

        Returns the :class:`PendingRecv`, whose ``matched`` field is
        already set when a queued message satisfied it.
        """
        pending = PendingRecv(
            source=source,
            tag=tag,
            post_order=self._post_counter,
            comm_id=comm_id,
            forced=forced,
            location=location or SourceLocation.unknown(),
            on_match=on_match,
        )
        self._post_counter += 1
        msg = self._take_queued(pending)
        if msg is not None:
            pending.complete(msg)
            self.total_matched += 1
            self._notify_match(msg, pending)
        else:
            self._posted.append(pending)
        return pending

    def _take_queued(self, pending: PendingRecv) -> Optional[Message]:
        """Remove and return the queued message ``pending`` should match.

        Queued messages are kept in arrival order, so the first match in
        a scan is both the smallest arrival order (wildcard determinism)
        and the smallest seq per (src, tag) (non-overtaking).
        """
        for i, msg in enumerate(self._queued):
            if pending.accepts(msg):
                return self._queued.pop(i)
        return None

    @property
    def next_post_order(self) -> int:
        """Post order the *next* receive will get (replay forcing key)."""
        return self._post_counter

    def cancel(self, pending: PendingRecv) -> bool:
        """Cancel a posted receive; returns False if it already matched."""
        if pending.matched is not None:
            return False
        pending.cancelled = True
        if pending in self._posted:
            self._posted.remove(pending)
        return True

    # ------------------------------------------------------------------
    # probes and introspection
    # ------------------------------------------------------------------
    def probe(self, source: int, tag: int, comm_id: int = 0) -> Optional[Message]:
        """Return (without removing) the message a (source, tag) receive
        would match right now, or None."""
        probe_recv = PendingRecv(source=source, tag=tag, post_order=-1,
                                 comm_id=comm_id)
        for msg in self._queued:
            if probe_recv.accepts(msg):
                return msg
        return None

    def has_posted_matching(self, src: int, tag: int, comm_id: int = 0) -> bool:
        """Is any posted receive able to accept a (src, tag) message?

        Used by ready-mode sends, which are erroneous unless the
        matching receive is already posted.
        """
        trial = Message(
            envelope=Envelope(src, self.owner_rank, tag, -1, comm_id),
            payload=None,
        )
        # seq -1 never equals a forced seq, so forced receives correctly
        # report "not matching" here; ready sends against a replay-forced
        # receive are rejected conservatively.
        return any(p.accepts(trial) for p in self._posted)

    @property
    def queued_messages(self) -> tuple[Message, ...]:
        """Snapshot of undelivered messages (unmatched sends so far)."""
        return tuple(self._queued)

    @property
    def posted_receives(self) -> tuple[PendingRecv, ...]:
        """Snapshot of unmatched posted receives."""
        return tuple(self._posted)


def iter_unmatched_sends(mailboxes: Iterable[Mailbox]) -> list[Message]:
    """All queued-but-unreceived messages across mailboxes.

    This is the runtime half of the paper's Section 4.4 "list of
    unmatched sends and receives" that the debugger maintains.
    """
    out: list[Message] = []
    for box in mailboxes:
        out.extend(box.queued_messages)
    return out


def validate_ready_send(mailbox: Mailbox, src: int, tag: int, comm_id: int = 0) -> None:
    """Raise unless a matching receive is already posted (``MPI_Rsend``)."""
    if not mailbox.has_posted_matching(src, tag, comm_id):
        raise MPIError(
            f"ready-mode send {src}->{mailbox.owner_rank} tag={tag}: "
            "no matching receive posted"
        )
