"""Race-kernel parity, steering edge cases, and exploration hygiene.

Regression tests for the explorer-adjacent bugfixes: race-kernel
agreement with the scalar oracle on tag-only wildcards, the forcing-log
misalignment check, unsteerable alternatives, the marker-extended
fingerprint, and crash-path shutdown of an exploration.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import mp
from repro.analysis import detect_races, matching_fingerprint
from repro.analysis.races import UnsteerableAlternativeError, steer_to_alternative
from repro.apps import master_worker_program
from repro.explore import BaseRunFailed, explore
from repro.mp.datatypes import ANY_SOURCE, ANY_TAG
from tests import oracles
from tests.conftest import traced_run


def tag_wildcard_program(comm):
    """Tag-only wildcard receives: rank 1 takes two differently-tagged
    messages from rank 0 with ``ANY_TAG``."""
    if comm.rank == 0:
        comm.send("early", dest=1, tag=1)
        comm.send("late", dest=1, tag=2)
    else:
        a = comm.recv(source=0, tag=ANY_TAG)
        b = comm.recv(source=0, tag=ANY_TAG)
        return (a, b)


def two_source_program(comm):
    """Two ``ANY_SOURCE`` receives fed by two senders: the second
    receive's alternative is exactly the first receive's message."""
    if comm.rank == 0:
        a = comm.recv(source=ANY_SOURCE, tag=7)
        b = comm.recv(source=ANY_SOURCE, tag=7)
        return (a, b)
    comm.send(comm.rank, dest=0, tag=7)


def race_shape(races):
    """Comparable summary: (recv, matched, sorted alternatives)."""
    return [
        (
            r.recv.index,
            r.matched_send.index,
            tuple(sorted(a.index for a in r.alternatives)),
        )
        for r in races
    ]


def oracle_races(tr, include_tag):
    records = list(tr)
    sor = oracles.match(records).send_of_recv
    return oracles.detect_races(
        records, sor, oracles.clocks(records, tr.nprocs, sor),
        include_tag_wildcards=include_tag,
    )


class TestOracleParity:
    @pytest.mark.parametrize("include_tag", [True, False])
    def test_tag_only_wildcards(self, include_tag):
        _, tr = traced_run(tag_wildcard_program, 2)
        races = detect_races(tr, include_tag_wildcards=include_tag)
        assert race_shape(races) == race_shape(oracle_races(tr, include_tag))
        if include_tag:
            # Both ANY_TAG receives race: the other tag's send is causally
            # concurrent with each receive.
            assert len(races) == 2
        else:
            # posted_src is concrete, so excluding tag wildcards must
            # drop these races entirely.
            assert races == []

    @pytest.mark.parametrize("include_tag", [True, False])
    def test_master_worker(self, include_tag):
        _, tr = traced_run(master_worker_program(n_tasks=8), 4)
        races = detect_races(tr, include_tag_wildcards=include_tag)
        assert race_shape(races) == race_shape(oracle_races(tr, include_tag))
        assert races, "the wildcard master always races"


class TestSteering:
    def base_run(self):
        rt, tr = traced_run(two_source_program, 3)
        return rt, tr, detect_races(tr)

    def test_unsteerable_alternative_detected(self):
        """Steering the *second* receive to the message the first already
        consumed would force one envelope at two receives; that candidate
        must be rejected, not silently turned into a deadlocking log."""
        rt, tr, races = self.base_run()
        assert len(races) == 2
        first, second = sorted(races, key=lambda r: r.recv.marker)
        with pytest.raises(UnsteerableAlternativeError, match="already delivered"):
            steer_to_alternative(rt.comm_log, tr, second, second.alternatives[0])
        # ...and it is a ValueError, so pre-existing callers still catch it.
        assert issubclass(UnsteerableAlternativeError, ValueError)

    def test_steerable_alternative_replays(self):
        """The first receive has no forced prefix; steering it swaps the
        arrival order and the replay observes the swap."""
        rt, tr, races = self.base_run()
        first = min(races, key=lambda r: r.recv.marker)
        steered = steer_to_alternative(rt.comm_log, tr, first, first.alternatives[0])
        rt2 = mp.Runtime(3, replay_log=steered)
        rt2.run(two_source_program)
        results = rt2.results()
        rt2.shutdown()
        base_a, base_b = rt.results()[0]
        assert results[0] == (base_b, base_a)

    def test_misaligned_log_rejected(self):
        """A base log with receive matchings the trace doesn't have must
        fail loudly instead of silently dropping entries."""
        rt, tr, races = self.base_run()
        mangled = mp.CommLog.from_jsonable(rt.comm_log.to_jsonable())
        posts = [post for (r, post) in mangled.recv_matches if r == 0]
        spare = max(posts) + 1
        env = next(iter(mangled.recv_matches.values()))
        mangled.recv_matches[(0, spare)] = env
        with pytest.raises(ValueError, match="misalignment on rank 0"):
            steer_to_alternative(mangled, tr, races[0], races[0].alternatives[0])

    def test_fingerprint_marker_extension(self):
        rt, tr, races = self.base_run()
        plain = matching_fingerprint(rt.comm_log)
        marked = matching_fingerprint(rt.comm_log, markers={0: 3})
        assert plain != marked
        assert marked[:-1] == plain  # the matching part is unchanged
        assert marked[-1] == ("markers", (0, 3))
        # Empty markers keep the pre-marker fingerprint.
        assert matching_fingerprint(rt.comm_log, markers={}) == plain


class TestExploreHygiene:
    def test_crashing_base_run_raises_and_shuts_down(self):
        """A base run that raises is reported as BaseRunFailed and must
        not leak execution threads."""

        def bad(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.recv(source=1)

        before = threading.active_count()
        with pytest.raises(BaseRunFailed, match="boom"):
            explore(bad, 2)
        deadline = time.time() + 5.0
        while threading.active_count() > before and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before
