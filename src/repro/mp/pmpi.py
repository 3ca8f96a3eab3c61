"""The PMPI-style profiling interposition layer.

The MPI standard's profiling interface (paper Section 2.3) makes every
library function callable under two names: ``MPI_name`` -- which a tool
may replace -- and ``PMPI_name`` -- the real implementation.  A tool's
``MPI_Send`` records whatever it wants and then calls ``PMPI_Send``.

This module reproduces that name-shift for the simulated runtime:

* every communication entry point of :class:`~repro.mp.comm.Comm` has a
  base implementation named ``pmpi_<op>`` (the ``PMPI_`` name);
* the public method ``<op>`` routes through a per-runtime
  :class:`PMPILayer`, which threads the call through a stack of
  *wrappers* installed by instrumentation libraries;
* a wrapper is ``fn(next_call, comm, *args, **kwargs)`` and must invoke
  ``next_call(comm, *args, **kwargs)`` exactly once (or raise), exactly
  like an ``MPI_Send`` that calls ``PMPI_Send``.

Installing no wrappers leaves the program running directly on the PMPI
implementations -- "link without the debugging library" in the paper's
terms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from .comm import Comm

#: Every interposable operation name.  ``compute`` is included so the
#: virtual-time "computation bars" of the time-space diagrams can be
#: traced through the same mechanism.
INTERPOSABLE_OPS: tuple[str, ...] = (
    "send",
    "ssend",
    "rsend",
    "recv",
    "isend",
    "issend",
    "irecv",
    "probe",
    "iprobe",
    "sendrecv",
    "wait",
    "test",
    "waitall",
    "waitany",
    "cancel",
    "barrier",
    "bcast",
    "scatter",
    "gather",
    "allgather",
    "reduce",
    "allreduce",
    "alltoall",
    "scan",
    "split",
    "compute",
)

Wrapper = Callable[..., Any]


class PMPILayer:
    """Per-runtime registry of wrapper stacks, one per operation name.

    Wrappers are applied outermost-last-installed: installing A then B
    yields call order ``B -> A -> pmpi``.  That matches linking a second
    profiling library "in front of" the first.
    """

    def __init__(self) -> None:
        self._wrappers: dict[str, list[Wrapper]] = {op: [] for op in INTERPOSABLE_OPS}
        #: op -> its built wrapper chain; dropped whenever a stack changes
        self._chains: dict[str, Callable[..., Any]] = {}

    # ------------------------------------------------------------------
    def check_op(self, op: str) -> None:
        if op not in self._wrappers:
            raise ValueError(
                f"unknown interposable operation {op!r}; "
                f"valid ops: {', '.join(INTERPOSABLE_OPS)}"
            )

    def install(self, op: str, wrapper: Wrapper) -> None:
        """Push ``wrapper`` onto the stack for ``op``."""
        self.check_op(op)
        self._wrappers[op].append(wrapper)
        self._chains.pop(op, None)

    def install_all(self, ops: Iterable[str], wrapper_factory: Callable[[str], Wrapper]) -> None:
        """Install ``wrapper_factory(op)`` for each op in ``ops``."""
        for op in ops:
            self.install(op, wrapper_factory(op))

    def uninstall(self, op: str, wrapper: Wrapper) -> bool:
        """Remove a previously-installed wrapper; returns success."""
        self.check_op(op)
        self._chains.pop(op, None)
        try:
            self._wrappers[op].remove(wrapper)
            return True
        except ValueError:
            return False

    def clear(self) -> None:
        """Remove every wrapper (unlink all profiling libraries)."""
        for stack in self._wrappers.values():
            stack.clear()
        self._chains.clear()

    def wrapper_count(self, op: str) -> int:
        self.check_op(op)
        return len(self._wrappers[op])

    # ------------------------------------------------------------------
    def call(self, op: str, comm: "Comm", *args: Any, **kwargs: Any) -> Any:
        """Invoke ``op`` on ``comm`` through the wrapper chain."""
        chain = self._chains.get(op)
        if chain is None:
            stack = self._wrappers.get(op)
            if stack is None:
                raise ValueError(f"unknown interposable operation {op!r}")
            name = f"pmpi_{op}"
            chain = lambda c, *a, **kw: getattr(c, name)(*a, **kw)  # noqa: E731
            # Build the chain inner-to-outer so the last-installed
            # wrapper runs first.
            for wrapper in stack:
                chain = _bind(wrapper, chain)
            self._chains[op] = chain
        return chain(comm, *args, **kwargs)


def _bind(wrapper: Wrapper, next_call: Callable[..., Any]) -> Callable[..., Any]:
    def bound(comm: "Comm", *args: Any, **kwargs: Any) -> Any:
        return wrapper(next_call, comm, *args, **kwargs)

    return bound
