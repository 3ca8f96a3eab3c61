"""Message-race detection (paper §4.4, after Netzer et al. [15][17]).

    "If however the program is multithreaded, then message racing can
    occur.  In this case the user might want to turn on the race
    detection feature of the debugger."

In this runtime the only admissible nondeterminism is wildcard matching
(``ANY_SOURCE``/``ANY_TAG``) -- single-threaded processes, as the paper
assumes -- so a *message race* is: a wildcard receive for which some
other send could have been delivered instead.

:func:`detect_races` finds them from one trace + its causal order: a
send races with a receive if it matches the receive's posted pattern
and is not causally after the receive (so some schedule could deliver
it there).  The posted pattern is captured by the wrapper library in
each receive record's ``extra``.  :func:`steer_to_alternative` builds
the forcing log that replays the other side of a race, which is what
:mod:`repro.explore` drives to search the schedule space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.mp.datatypes import ANY_SOURCE, ANY_TAG
from repro.trace.events import TraceRecord
from repro.trace.trace import Trace

from .causality import CausalOrder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .history import HistoryIndex


class UnsteerableAlternativeError(ValueError):
    """The alternative is already consumed by a receive that happens
    before the racing one, so single-steer forcing cannot deliver it
    (the forcing log would force one envelope at two receives and the
    replay would deadlock waiting for a second copy)."""


@dataclass
class MessageRace:
    """A wildcard receive with alternative deliverable sends."""

    recv: TraceRecord
    matched_send: TraceRecord
    alternatives: list[TraceRecord] = field(default_factory=list)

    def describe(self) -> str:
        alts = ", ".join(
            f"{s.src}->{s.dst}#{s.seq}@{s.location.lineno}" for s in self.alternatives
        )
        return (
            f"race at p{self.recv.proc} recv (marker {self.recv.marker}, "
            f"{self.recv.location}): matched {self.matched_send.src}->"
            f"{self.matched_send.dst}#{self.matched_send.seq}; "
            f"could also match: {alts}"
        )


def _posted_pattern(rec: TraceRecord) -> tuple[int, int]:
    """(posted source, posted tag) of a receive record, defaulting to the
    resolved values when the wrapper didn't capture the pattern."""
    src = rec.extra.get("posted_src", rec.src)
    tag = rec.extra.get("posted_tag", rec.tag)
    return src, tag


def is_wildcard_recv(rec: TraceRecord) -> bool:
    src, tag = _posted_pattern(rec)
    return src == ANY_SOURCE or tag == ANY_TAG


def detect_races(
    trace: Trace,
    order: Optional[CausalOrder] = None,
    include_tag_wildcards: bool = True,
    index: "Optional[HistoryIndex]" = None,
) -> list[MessageRace]:
    """All wildcard receives with at least one racing alternative.

    A send ``s2`` races with receive ``r`` (matched to ``s``) when:

    * ``s2 != s`` targets ``r``'s process and matches the posted
      (source, tag) pattern, and
    * ``r`` does not happen before ``s2`` -- i.e. ``s2`` does not
      causally depend on the outcome of ``r``, so a different schedule
      could have had ``s2``'s message available at ``r``.

    Derived state (clocks, matching) comes from the shared
    :class:`~repro.analysis.history.HistoryIndex`: pass ``index=`` (or
    a precomputed ``order=``) when a caller already holds one; a bare
    trace memoizes the index so nothing is derived twice either way.

    One candidate mask over the send (dst, src, tag) columns per
    wildcard receive; happens-before for *all* sends at once against the
    clock matrix.  Wall-clock goes into the index's per-kernel stats
    (``races``).
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    start = time.perf_counter()
    try:
        return _detect_races(idx, order, include_tag_wildcards)
    finally:
        idx.record_kernel("races", time.perf_counter() - start)


def _detect_races(
    idx: "HistoryIndex",
    order: Optional[CausalOrder],
    include_tag_wildcards: bool,
) -> list[MessageRace]:
    """Vectorized kernel over the index's column store.

    Per wildcard receive ``r`` on process ``pr``, the racing-send set is
    one boolean mask over the send columns: ``dst == pr`` (narrowed by
    the posted source/tag when not wildcarded), minus the matched send,
    intersected with NOT ``r -> s2``.  The happens-before test for all
    sends at once is the standard vector-clock comparison against row
    ``pr`` of the clock matrix: ``r -> s2`` iff
    ``clocks[r, pr] <= clocks[s2, pr]``, so the *negation* is a single
    ``<`` over the precomputed send-clock column.
    """
    from .history import RECV_CODES, SEND_CODES

    trace = idx.trace
    clocks = order.clocks if order is not None else idx.clocks
    cols = idx.columns
    kind = cols["kind"]
    recv_idx = np.nonzero(kind == RECV_CODES[0])[0]
    wildcards: list[TraceRecord] = []
    for i in recv_idx.tolist():
        rec = trace[i]
        if not is_wildcard_recv(rec):
            continue
        psrc, _ = _posted_pattern(rec)
        if psrc != ANY_SOURCE and not include_tag_wildcards:
            continue
        wildcards.append(rec)
    if not wildcards:
        return []
    pairs = {p.recv.index: p.send for p in idx.message_pairs()}
    send_idx = np.nonzero(np.isin(kind, SEND_CODES))[0]
    if send_idx.size == 0:
        return []
    s_src = cols["src"][send_idx]
    s_dst = cols["dst"][send_idx]
    s_tag = cols["tag"][send_idx]
    send_clocks = clocks[send_idx]
    recs = trace.records  # one tuple grab; skips __getitem__ per alternative
    races: list[MessageRace] = []
    for rec in wildcards:
        matched = pairs.get(rec.index)
        if matched is None:
            continue
        psrc, ptag = _posted_pattern(rec)
        pr = rec.proc
        mask = s_dst == pr
        if psrc != ANY_SOURCE:
            mask &= s_src == psrc
        if ptag != ANY_TAG:
            mask &= s_tag == ptag
        mask &= send_idx != matched.index
        mask &= send_clocks[:, pr] < clocks[rec.index, pr]
        alt = send_idx[mask]
        if alt.size:
            races.append(
                MessageRace(
                    recv=rec,
                    matched_send=matched,
                    alternatives=[recs[j] for j in alt.tolist()],
                )
            )
    return races


def steer_to_alternative(
    base_log,
    trace: Trace,
    race: MessageRace,
    alternative: TraceRecord,
    order: Optional[CausalOrder] = None,
    index: "Optional[HistoryIndex]" = None,
):
    """Build a forcing log that delivers ``alternative`` to the racing
    receive -- deterministic exploration of the other side of a race.

    The §4.2 machinery forces replays back to the *observed* matching;
    steering turns the same mechanism into a what-if tool: replaying
    under the returned log, the racing receive matches ``alternative``
    instead of its original message.

    Everything downstream of the steer point may legitimately diverge
    (the master may hand out tasks in a different order, so later
    matchings differ), so forcing is kept only for receives that
    *happen before* the racing receive; everything else matches by the
    normal rules.  Forced-entry/receive alignment assumes blocking
    receives (completion order == post order per process); programs
    built on out-of-order ``irecv`` completion should steer manually.

    ``alternative`` must be one of ``race.alternatives``.
    """
    from repro.mp.message import Envelope
    from repro.mp.record import CommLog

    from .history import ensure_index

    if alternative.index not in {a.index for a in race.alternatives}:
        raise ValueError("alternative is not one of the race's candidates")
    idx = ensure_index(trace, index=index)
    trace = idx.trace
    if order is None:
        order = idx.order

    rank = race.recv.proc
    alt_env = Envelope(
        src=alternative.src,
        dst=alternative.dst,
        tag=alternative.tag,
        seq=alternative.seq,
        comm_id=alternative.extra.get("comm", 0),
    )

    # Align each rank's forced entries (sorted by post index) with its
    # receive records in program order.
    steered = CommLog()
    race_entry_key = None
    for r in range(trace.nprocs):
        entries = sorted(
            (post, env)
            for (rr, post), env in base_log.recv_matches.items()
            if rr == r
        )
        recvs = [rec for rec in trace.by_proc(r) if rec.is_recv]
        if len(entries) != len(recvs):
            raise ValueError(
                f"forcing-log/trace misalignment on rank {r}: the base log "
                f"records {len(entries)} receive matching(s) but the trace "
                f"has {len(recvs)} receive record(s); the log and trace must "
                "come from the same execution (blocking receives, completion "
                "order == post order) for steering to align them"
            )
        for (post_idx, env), rec in zip(entries, recvs):
            if rec.index == race.recv.index:
                race_entry_key = (r, post_idx)
            elif order.happens_before(rec.index, race.recv.index):
                steered.recv_matches[(r, post_idx)] = env
    if race_entry_key is None:
        raise ValueError(
            "the racing receive's matching is not in the base log"
        )
    for key, env in steered.recv_matches.items():
        if env == alt_env:
            raise UnsteerableAlternativeError(
                f"alternative {alt_env} is already delivered to receive "
                f"{key} in the forced prefix (it happens before the racing "
                "receive); a single steer cannot deliver it again -- "
                "exploring that matching requires exchanging the earlier "
                "receive's message too"
            )
    steered.recv_matches[race_entry_key] = alt_env
    # waitany choices: keep only those whose position is safely causal --
    # conservatively, none (free choice downstream of a steer).
    return steered


def matching_fingerprint(comm_log, markers=None) -> tuple:
    """A hashable summary of one run's matching decisions.

    ``markers`` (optional rank -> execution-marker mapping) extends the
    fingerprint with execution-marker coordinates: two forcing logs with
    identical matchings but different steer points (the schedule-space
    explorer tags each candidate with the racing receive's marker) hash
    differently, while plain matching fingerprints stay comparable with
    pre-marker callers.
    """
    fp = tuple(
        (rank, idx, env.src, env.tag, env.seq)
        for (rank, idx), env in sorted(comm_log.recv_matches.items())
    )
    if markers:
        fp = fp + (("markers",) + tuple(sorted(markers.items())),)
    return fp

