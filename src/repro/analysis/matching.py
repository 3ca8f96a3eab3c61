"""Send/receive matching anomalies (paper §4.4).

    "The debugger maintains a list of unmatched sends and receives...
    As soon as the communication graph has been built, the user is
    informed about the unmatched send/receives.  At this point,
    information about intertwined messages is also available to the
    user."

Three diagnostics:

* **unmatched lists** -- sends never received and receives never
  satisfied (from the trace and/or the live runtime);
* **intertwined messages** -- two messages between the same (src, dst)
  whose receive order inverts their send order (legal across different
  tags under MPI, but frequently a bug symptom; see MPI std. p.31);
* **missed-message diagnosis** (Figure 6) -- pairing an unmatched send
  with a blocked receive that is plausibly its intended consumer, e.g.
  the Strassen bug's operand that went to the wrong rank while worker 7
  starves for exactly that tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.mp.datatypes import ANY_SOURCE, ANY_TAG
from repro.mp.process import WaitInfo, WaitKind
from repro.trace.events import TraceRecord
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .history import HistoryIndex


@dataclass(frozen=True)
class IntertwinedPair:
    """Two same-route messages received in inverted send order."""

    first_send: TraceRecord  # sent earlier...
    second_send: TraceRecord
    first_recv: TraceRecord  # ...but received later
    second_recv: TraceRecord

    def route(self) -> tuple[int, int]:
        return (self.first_send.src, self.first_send.dst)


@dataclass(frozen=True)
class MissedMessage:
    """An unmatched send paired with a starving receive (Figure 6).

    ``send`` went to ``send.dst``; ``starving`` suggests its intended
    destination was ``starving.rank`` -- "Missed message from process 0
    to process 7."
    """

    send: TraceRecord
    starving: WaitInfo

    def describe(self) -> str:
        return (
            f"missed message: send {self.send.src}->{self.send.dst} "
            f"tag={self.send.tag} at {self.send.location} was never "
            f"received; process {self.starving.rank} is blocked waiting "
            f"for (source={self.starving.peer}, tag={self.starving.tag}) "
            f"at {self.starving.location} -- likely intended destination "
            f"{self.starving.rank}"
        )


@dataclass
class MatchingReport:
    """Everything §4.4's first-level analysis surfaces."""

    unmatched_sends: list[TraceRecord] = field(default_factory=list)
    unmatched_recvs: list[TraceRecord] = field(default_factory=list)
    intertwined: list[IntertwinedPair] = field(default_factory=list)
    missed: list[MissedMessage] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.unmatched_sends or self.unmatched_recvs or self.missed)

    def as_text(self) -> str:
        lines = ["matching report:"]
        if self.clean and not self.intertwined:
            lines.append("  no anomalies")
        for rec in self.unmatched_sends:
            lines.append(
                f"  unmatched send {rec.src}->{rec.dst} tag={rec.tag} "
                f"seq={rec.seq} at {rec.location}"
            )
        for rec in self.unmatched_recvs:
            lines.append(
                f"  unmatched recv on p{rec.proc} (src={rec.src}, "
                f"tag={rec.tag}) at {rec.location}"
            )
        for pair in self.intertwined:
            lines.append(
                f"  intertwined on route {pair.route()}: send@{pair.first_send.t1:.2f} "
                f"received after send@{pair.second_send.t1:.2f}"
            )
        for m in self.missed:
            lines.append("  " + m.describe())
        return "\n".join(lines)


def find_intertwined(
    trace: Trace,
    index: "Optional[HistoryIndex]" = None,
) -> list[IntertwinedPair]:
    """Pairs of same-(src,dst) messages whose receive order inverts the
    send order.  Under non-overtaking this can only happen across
    different tags (the same-tag case would be a runtime bug).

    Runs on the index's matched-pair arrays: one lexsort orders the
    pairs by route (routes in order of first appearance) and send
    completion time, keeping receive order among ties; a route has an
    inversion iff its receive times descend somewhere between
    neighbours, and only such routes enumerate their inverted pairs.
    Records are built only for the pairs reported.
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    sends, recvs = idx.pair_indexes()
    if sends.size < 2:
        return []
    cols = idx.columns
    route = (cols["src"][sends].astype(np.int64) << 32) | (
        cols["dst"][sends].astype(np.int64) & 0xFFFFFFFF
    )
    _, first, inverse = np.unique(route, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    route_rank = rank[inverse.reshape(-1)]
    t1 = cols["t1"]
    order = np.lexsort((t1[sends], route_rank))  # stable: ties keep recv order
    g = route_rank[order]
    recv_t1 = t1[recvs][order]
    descent = (recv_t1[1:] < recv_t1[:-1]) & (g[1:] == g[:-1])
    out: list[IntertwinedPair] = []
    bounds = np.searchsorted(g, np.arange(first.size + 1))
    for r in np.unique(g[1:][descent]).tolist():
        a, b = int(bounds[r]), int(bounds[r + 1])
        # (i, j) is intertwined iff i < j but recv_t1[i] > recv_t1[j];
        # np.nonzero walks row-major: (i asc, j asc)
        rt = recv_t1[a:b]
        ii, jj = np.nonzero(np.triu(rt[:, None] > rt[None, :], 1))
        first_pair, second_pair = order[a + ii], order[a + jj]
        m = ii.size
        recs = idx.records_at(np.concatenate([
            sends[first_pair], sends[second_pair],
            recvs[first_pair], recvs[second_pair],
        ]))
        for k in range(m):
            out.append(
                IntertwinedPair(
                    first_send=recs[k],
                    second_send=recs[m + k],
                    first_recv=recs[2 * m + k],
                    second_recv=recs[3 * m + k],
                )
            )
    return out


def diagnose_missed_messages(
    unmatched_sends: Sequence[TraceRecord],
    blocked: Sequence[WaitInfo],
) -> list[MissedMessage]:
    """Pair unmatched sends with compatible starving receives.

    A blocked receive is a candidate consumer of an unmatched send when
    its tag pattern matches the send's tag, its source pattern matches
    the sender, and it is not the process the message actually went to
    (that process simply hasn't consumed it yet -- not "missed")."""
    out: list[MissedMessage] = []
    for send in unmatched_sends:
        for wait in blocked:
            if wait.kind is not WaitKind.RECV:
                continue
            tag_ok = wait.tag in (ANY_TAG, send.tag)
            src_ok = wait.peer in (ANY_SOURCE, send.src)
            went_elsewhere = wait.rank != send.dst
            if tag_ok and src_ok and went_elsewhere:
                out.append(MissedMessage(send=send, starving=wait))
    return out


def analyze_matching(
    trace: Trace,
    blocked: Optional[Sequence[WaitInfo]] = None,
    index: "Optional[HistoryIndex]" = None,
) -> MatchingReport:
    """The full §4.4 first-level report for a trace (plus, when the
    runtime's blocked-wait list is supplied, missed-message diagnoses).

    Unmatched lists and pairs come from the shared
    :class:`~repro.analysis.history.HistoryIndex`; when neither
    ``blocked`` nor ``index`` is given but the index carries live
    blocked-wait state (fed by :meth:`DebugSession.index`), that state
    is used for the missed-message diagnosis.
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    report = MatchingReport(
        unmatched_sends=idx.unmatched_sends(),
        unmatched_recvs=idx.unmatched_recvs(),
        intertwined=find_intertwined(idx.trace, index=idx),
    )
    if blocked is None:
        blocked = idx.blocked
    if blocked:
        report.missed = diagnose_missed_messages(report.unmatched_sends, blocked)
    return report
