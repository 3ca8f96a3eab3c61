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
    :class:`~repro.analysis.history.HistoryIndex`: pass ``index=`` when
    a caller already holds one; a bare trace memoizes the index so
    nothing is derived twice either way.

    One candidate mask over the send (dst, src, tag) columns per
    wildcard receive; happens-before for the surviving sends at once
    against the compact clock table.  Wall-clock goes into the index's
    per-kernel stats (``races``).
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    start = time.perf_counter()
    try:
        return _detect_races(idx, include_tag_wildcards)
    finally:
        idx.record_kernel("races", time.perf_counter() - start)


def _detect_races(
    idx: "HistoryIndex",
    include_tag_wildcards: bool,
) -> list[MessageRace]:
    """Vectorized kernel over the index's column store.

    The posted (source, tag) of every receive comes from the rows'
    ``extra`` side table (no record is built), and the wildcard test is
    one mask over those arrays.  Per matched wildcard receive ``r`` on
    process ``pr``, the racing-send set is one boolean mask over the
    send columns: ``dst == pr`` (narrowed by the posted source/tag when
    not wildcarded), minus the matched send, intersected with NOT
    ``r -> s2``.  The happens-before test runs only on the sends the
    masks keep: the standard vector-clock comparison ``r -> s2`` iff
    ``VC[r][pr] <= VC[s2][pr]``, where ``VC[r][pr]`` is r's own count
    and ``VC[s2][pr]`` is s2's segment entry in the compact clock table
    -- for a send on ``pr`` too, since ``r`` is a join (see
    :class:`~repro.analysis.causality.ClockTable`) -- so the *negation*
    is a single ``<`` over a gather of the surviving sends.  Records
    are built only for the races found.
    """
    from .history import RECV_CODES, SEND_CODES

    clocks = idx.order.clocks
    table, seg, own = clocks.table, clocks.seg, clocks.own
    cols = idx.columns
    kind = cols["kind"]
    recv_idx = np.flatnonzero(kind == RECV_CODES[0])
    psrc = cols["src"][recv_idx].tolist()
    ptag = cols["tag"][recv_idx].tolist()
    for k, extra in idx.row_extras(recv_idx).items():
        psrc[k] = extra.get("posted_src", psrc[k])
        ptag[k] = extra.get("posted_tag", ptag[k])
    psrc_a = np.asarray(psrc, dtype=np.int64)
    ptag_a = np.asarray(ptag, dtype=np.int64)
    any_src = psrc_a == ANY_SOURCE
    wild = any_src | (ptag_a == ANY_TAG)
    if not include_tag_wildcards:
        wild &= any_src
    matched = idx.matched_sends()[recv_idx]
    chosen = np.flatnonzero(wild & (matched >= 0))
    send_idx = np.flatnonzero(np.isin(kind, SEND_CODES))
    if chosen.size == 0 or send_idx.size == 0:
        return []
    s_src = cols["src"][send_idx]
    s_dst = cols["dst"][send_idx]
    s_tag = cols["tag"][send_idx]
    proc = cols["proc"]
    races: list[MessageRace] = []
    for k in chosen.tolist():
        r = int(recv_idx[k])
        s = int(matched[k])
        pr = int(proc[r])
        mask = s_dst == pr
        if psrc[k] != ANY_SOURCE:
            mask &= s_src == psrc[k]
        if ptag[k] != ANY_TAG:
            mask &= s_tag == ptag[k]
        mask &= send_idx != s
        alt = send_idx[mask]
        alt = alt[table[seg[alt], pr] < own[r]]
        if alt.size:
            recs = idx.records_at(np.concatenate([[r, s], alt]))
            races.append(MessageRace(
                recv=recs[0], matched_send=recs[1], alternatives=recs[2:]
            ))
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

    alt_env = Envelope(
        src=alternative.src,
        dst=alternative.dst,
        tag=alternative.tag,
        seq=alternative.seq,
        comm_id=alternative.extra.get("comm", 0),
    )

    # Align each rank's forced entries (sorted by post index) with its
    # receive rows in program order.
    from .history import RECV_CODES

    table = idx.row_table()
    is_recv = idx.column("kind") == RECV_CODES[0]
    target = race.recv.index
    # the forced prefix: on row r, the first VC[target][r] events happen
    # before the target (on its own row, the target itself is last)
    prefix = order.clocks.row(target).tolist()
    steered = CommLog()
    race_entry_key = None
    for r in range(trace.nprocs):
        entries = sorted(
            (post, env)
            for (rr, post), env in base_log.recv_matches.items()
            if rr == r
        )
        row = table.members[table.offsets[r]: table.offsets[r + 1]]
        at = np.flatnonzero(is_recv[row])
        recvs = row[at].tolist()
        if len(entries) != len(recvs):
            raise ValueError(
                f"forcing-log/trace misalignment on rank {r}: the base log "
                f"records {len(entries)} receive matching(s) but the trace "
                f"has {len(recvs)} receive record(s); the log and trace must "
                "come from the same execution (blocking receives, completion "
                "order == post order) for steering to align them"
            )
        bound = prefix[r]
        for (post_idx, env), i, k in zip(entries, recvs, at.tolist()):
            if i == target:
                race_entry_key = (r, post_idx)
            elif k < bound:
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

