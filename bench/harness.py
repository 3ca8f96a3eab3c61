"""What every workload run shares: the clock, samples, checks, results.

A workload is a function ``(run: Run) -> None``.  It sets up through
:meth:`Run.setup` (repeated across the run, so ``setup_s`` is a median),
times each user-visible call through :meth:`Run.timed`, records whether
each output was right through :meth:`Run.check`, and leaves its numbers
in ``run.metrics``.  Calls are timed one at a time by one client (a
closed loop); the loop repeats whole rounds of a fixed mix until
``seconds`` have passed, so the mix is the same however fast the machine
is.

On a shared host the machine itself slows by 10-90% for stretches of a
fraction of a second to minutes, often longer than a run.  So between
timed calls, once the library's background work is done, the run also
times a :class:`Probe`, fixed tasks of the benchmark's own, and the
end-to-end times are reported at a nominal machine speed: each is
divided by the run's median probe time over :data:`NOMINAL_PROBE_S`.
The probe runs no library code, so a change to the library cannot move
it.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, TypeVar

import numpy as np

from .spans import NullSpans, Spans

T = TypeVar("T")

#: set-ups timed in one run, spread evenly over it; ``setup_s`` is their
#: median, so a few seconds of a slowed machine move it little
SETUP_SAMPLES = 15
#: seconds between probes; a probe follows a timed call once this much
#: time has passed since the last one
PROBE_EVERY = 0.2
#: the probe's median time on the 2-vCPU VM of ``bench/results/``: the
#: machine speed end-to-end times are reported at
NOMINAL_PROBE_S = 2.5e-3


class Probe:
    """Two fixed tasks whose times say how fast the machine runs now:
    150,000 random reads from a 32 MB array, which wait on memory once
    neighbours on the host crowd the shared caches, and building and
    sorting 20,000 Python tuples (with the collector off), the kind of
    work every workload spends its time on.  A probe's time is the
    geometric mean of the two.  Of the probes tried (these two, a numpy
    sort and scan, an 8 MB gather, a pure-Python loop, and their pairs),
    this pair tracked the slow periods of all four workloads best.  Each
    task runs once untimed first, so what the workload left in the
    caches does not change the timed pass."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random(4_000_000)
        self._reads = rng.integers(0, self._table.size, 150_000)

    @property
    def nbytes(self) -> int:
        """Memory the probe holds for the whole run."""
        return self._table.nbytes + self._reads.nbytes

    def _gather(self) -> None:
        self._table[self._reads].sum()

    @staticmethod
    def _objects() -> None:
        enabled = gc.isenabled()
        gc.disable()
        rows = [(i, float(i), -i) for i in range(20_000)]
        rows.sort(key=lambda row: row[2])
        if enabled:
            gc.enable()

    @staticmethod
    def _time(task: Callable[[], None]) -> float:
        task()
        start = time.perf_counter()
        task()
        return time.perf_counter() - start

    def __call__(self) -> float:
        return math.sqrt(self._time(self._gather) * self._time(self._objects))


@dataclass
class Run:
    """One workload run."""

    seed: int
    seconds: float
    quick: bool
    workdir: Path
    spans: "Spans | NullSpans" = field(default_factory=NullSpans)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: sample name -> seconds of each timed call
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: metric name -> value, in the unit BENCHMARK.json gives it
    metrics: dict[str, float] = field(default_factory=dict)
    #: human-readable lines printed before the result
    notes: list[str] = field(default_factory=list)
    #: seconds spent inside timed calls so far (checks excluded)
    busy: float = 0.0
    #: end-to-end metric name -> samples behind it
    sample_counts: dict[str, int] = field(default_factory=dict)
    #: end-to-end metric name -> value as timed, before the speed scaling
    measured: dict[str, float] = field(default_factory=dict)
    probe: Callable[[], float] = field(default_factory=Probe)
    #: called before each probe to let the library's background work
    #: (the paged index's readahead) finish, so the probe never shares
    #: the machine with the library
    idle: Callable[[], Any] = lambda: None
    #: the workload's (build, dispose), for the set-ups :meth:`rounds` times
    _setup: Any = None
    #: timed calls now open (set-up times the store write inside it)
    _depth: int = 0
    _last_probe: float = 0.0

    # ------------------------------------------------------------------
    def setup(self, build: Callable[[int], T],
              dispose: Callable[[T], None] = lambda _: None) -> T:
        """Time ``build(0)`` and return what it built.  :meth:`rounds`
        then times ``build(k)`` (disposing each result at once) between
        rounds, until :data:`SETUP_SAMPLES` set-ups spread over the run
        have been timed."""
        self._setup = (build, dispose)
        return self._build(build)

    def _build(self, build: Callable[[int], T]) -> T:
        k = len(self.samples.get("setup", ()))
        busy = self.busy
        self.spans.request = f"setup{k}"
        result = self.timed("setup", "bench", build, k, count=False)
        self.spans.request = None
        self.busy = busy  # set-up is not time spent on the workload's calls
        return result

    def _setups_due(self, share: float) -> None:
        """Time further set-ups until their number keeps pace with the
        ``share`` of the run that has passed."""
        if self._setup is None:
            return
        build, dispose = self._setup
        due = 1 + int(min(share, 1.0) * (SETUP_SAMPLES - 1))
        while len(self.samples["setup"]) < due:
            dispose(self._build(build))

    def timed(self, name: str, layer: str, fn: Callable[..., T], *args: Any,
              count: bool = True, **kwargs: Any) -> T:
        """Call ``fn`` under a span, appending its duration to
        ``samples[name]``; ``count`` makes it an attempted operation.
        The probe, when due, runs after the call, outside every timing."""
        self._depth += 1
        with self.spans.span(name, layer):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
        self._depth -= 1
        self.samples.setdefault(name, []).append(elapsed)
        self.busy += elapsed
        if count:
            self.attempted += 1
        if self._depth == 0 and time.perf_counter() - self._last_probe >= PROBE_EVERY:
            with self.spans.span("probe", "bench"):
                self.idle()
                self.samples.setdefault("probe", []).append(self.probe())
            self._last_probe = time.perf_counter()
        return result

    def check(self, ok: bool, what: str) -> bool:
        """Count a wrong output as a failed operation."""
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def rounds(self):
        """Yield round numbers until ``seconds`` have passed (at least
        one round runs); each round is one request for the spans.  The
        set-ups due so far run before each round, the rest after the
        last."""
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() < start + self.seconds:
            self._setups_due((time.perf_counter() - start) / self.seconds)
            self.spans.request = f"round{k}"
            yield k
            k += 1
        self.spans.request = None
        self._setups_due(1.0)

    # ------------------------------------------------------------------
    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def median_ms(self, name: str) -> float:
        return 1e3 * self.median(name)

    def span_median(self, name: str, scale: float = 1.0) -> float:
        durations = self.spans.durations(name)
        return scale * statistics.median(durations) if durations else 0.0

    def finish(self, op: str, tail: int, events: float,
               event_seconds: float,
               bursts: Optional[list[list[float]]] = None) -> None:
        """Fill the end-to-end metrics every workload reports; ``op``
        names the samples of the workload's user-visible operation and
        ``tail`` the percentile reported as ``op_tail_ms`` -- fixed per
        workload, so runs compare, and chosen to leave at least ten of a
        run's samples beyond it.  A workload whose operations run in
        ``bursts`` a fraction of a second long passes them: the tail is
        then the median over bursts of each burst's percentile, since a
        stall of the machine lasting a burst would otherwise set it.
        Times are scaled to the nominal machine speed (see the module
        docstring); ``measured`` keeps them as timed."""
        ops = self.samples[op]
        if bursts is None:
            tail_s = percentile(ops, tail)
        else:
            tail_s = statistics.median(percentile(b, tail) for b in bursts)
        self.measured.update({
            "setup_s": self.median("setup"),
            "op_p50_ms": self.median_ms(op),
            "op_tail_ms": 1e3 * tail_s,
            "events_per_s": events / event_seconds,
        })
        slowdown = self.median("probe") / NOMINAL_PROBE_S
        for name, value in self.measured.items():
            self.metrics[name] = (value * slowdown if name == "events_per_s"
                                  else value / slowdown)
        # the probe's arrays are resident all run; the workload's peak is the rest
        self.metrics["peak_rss_mb"] = (
            peak_rss_mb() - getattr(self.probe, "nbytes", 0) / 2**20)
        self.notes.append(
            f"machine: median probe {self.median_ms('probe'):.3f} ms of "
            f"{len(self.samples['probe'])}, {slowdown:.3f}x the nominal "
            f"{1e3 * NOMINAL_PROBE_S:g} ms; as timed: " + ", ".join(
                f"{name} {value:.5g}" for name, value in self.measured.items())
        )
        self.sample_counts.update({
            "setup_s": len(self.samples["setup"]),
            "op_p50_ms": len(ops),
            "op_tail_ms": len(ops),
            "peak_rss_mb": 1,
        })
        of = f"of {len(ops)} samples" if bursts is None else (
            f"of each burst, median over {len(bursts)} bursts of "
            f"{len(ops)} samples")
        self.notes.append(
            f"op = one '{op}': op_p50_ms is the median and op_tail_ms the "
            f"p{tail} {of}, {sum(s > tail_s for s in ops)} samples beyond "
            f"it; {self.attempted} operations, {self.failed} failed"
        )


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1-99), interpolating between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
