"""The execution-backend contract.

The runtime layer is split in two (DESIGN.md, "Execution backends"):

* **backend-neutral protocol** -- mailboxes and matching, the CommLog and
  replay forcing, marker thresholds, and the debugger control surface.
  This lives in :class:`~repro.mp.runtime.Runtime` and is identical no
  matter how ranks execute.
* **backend-owned execution** -- how rank code actually runs (a
  simulated-time engine, real worker processes), who holds the
  execution token, how a blocked rank is suspended and resumed, and how
  ``current_proc`` attribution works.

:class:`ExecutionBackend` is the seam between the two.  A backend owns
process creation (:meth:`launch`), the scheduling loop
(:meth:`run_until_idle`), teardown (:meth:`shutdown`), and the
worker-side suspension points that :mod:`repro.mp.comm` calls
(``yield_blocked`` / ``yield_ready`` / ``poll_yield``).  Backends
advertise what they support through capability flags so the runtime can
fail fast instead of misbehaving: the debugger surface (marker
thresholds, interrupts, single-step) needs cooperative in-process
execution, which the ``mproc`` backend deliberately trades away for real
parallelism.

Backends are selected by name in :mod:`repro.mp.backends`
(``Runtime(nprocs, backend="mproc")``; the default is ``simtime``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..channel import iter_unmatched_sends
from ..errors import MPError

if TYPE_CHECKING:  # pragma: no cover
    from ..comm import Comm
    from ..message import Message
    from ..process import Process
    from ..runtime import Runtime
    from ..scheduler import RunReport


class ExecutionBackend(ABC):
    """How rank code executes; one instance drives one :class:`Runtime`.

    Capability flags
    ----------------
    supports_debugger:
        Marker thresholds, interrupts, single-step, ``resume`` -- the
        whole stopline/replay surface.  Requires cooperative in-process
        execution.
    supports_wrappers:
        Per-target wrapper installation and PMPI instrumentation whose
        records must be observable from the launching process.
    supports_ready_send:
        Destination-mailbox introspection (``MPI_Rsend`` validation).
    deterministic:
        The same (program, policy, seed, replay log) always produces the
        same execution -- the paper's replay precondition.
    """

    name: str = "abstract"
    supports_debugger: bool = False
    supports_wrappers: bool = False
    supports_ready_send: bool = False
    deterministic: bool = False

    def __init__(self) -> None:
        self.runtime: Optional["Runtime"] = None

    def bind(self, runtime: "Runtime") -> None:
        """Attach the owning runtime; called once, before launch."""
        if self.runtime is not None:
            raise MPError(f"backend {self.name!r} is already bound to a runtime")
        self.runtime = runtime

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def launch(
        self,
        targets: Sequence[Callable[["Comm"], Any]],
        *,
        stop_on_entry: bool = False,
    ) -> None:
        """Create the per-rank processes (and comms) on the bound runtime.

        After this returns, ``runtime.procs`` / ``runtime.comms`` hold
        one entry per rank and every rank is ready to execute on the
        first :meth:`run_until_idle`.
        """

    @abstractmethod
    def run_until_idle(self) -> "RunReport":
        """Execute until completion / debugger stop / deadlock."""

    @abstractmethod
    def shutdown(self) -> None:
        """Terminate all remaining rank executions (idempotent)."""

    # ------------------------------------------------------------------
    # execution-context attribution
    # ------------------------------------------------------------------
    @abstractmethod
    def current_proc(self) -> "Process":
        """The process whose execution context is the calling one.

        Backends register their worker contexts eagerly at start (thread
        ident or worker process), so this is a plain lookup -- never a
        scan over live threads.
        """

    # ------------------------------------------------------------------
    # communication-event hooks (called with the token held)
    # ------------------------------------------------------------------
    def unblock(self, proc: "Process") -> None:
        """A communication event made ``proc``'s wait condition worth
        re-checking (the runtime's deposit/match hooks call this)."""

    def poll_yield(self, proc: "Process") -> None:
        """Give other runnable ranks a turn after an unsuccessful
        nonblocking poll (``test``/``iprobe`` spin loops)."""

    # ------------------------------------------------------------------
    # history introspection (overridable: mproc collects remotely)
    # ------------------------------------------------------------------
    def unmatched_sends(self) -> list["Message"]:
        """Messages deposited but never received (missed messages)."""
        assert self.runtime is not None
        return iter_unmatched_sends(self.runtime.mailboxes)

    def carrier_ident(self, proc: "Process") -> Optional[int]:
        """Thread ident carrying ``proc``'s stack, when the backend runs
        ranks on in-process threads (stack inspection); else None."""
        return None

    # ------------------------------------------------------------------
    # debugger surface (cooperative backends override)
    # ------------------------------------------------------------------
    def _debugger_unsupported(self, what: str) -> "MPError":
        return MPError(
            f"{what} requires the cooperative simtime backend; "
            f"backend {self.name!r} does not support "
            "the debugger control surface"
        )

    def resume_stopped(self, procs: Optional[Sequence["Process"]] = None) -> None:
        raise self._debugger_unsupported("resume")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
