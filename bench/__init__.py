"""End-to-end benchmark of the trace-driven debugging loop.

Run from the repository root: ``python3 -m bench.run --workload record``.
See ``bench/README.md`` for the workloads, metrics and bounds.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout root (the directory holding ``bench/`` and ``src/``)
ROOT = Path(__file__).resolve().parent.parent
#: the library sources the benchmark measures
SRC = ROOT / "src"
#: where runs leave their outputs (span files, temporary stores); ignored by git
OUT = ROOT / "bench" / "out"


def use_checkout_sources() -> bool:
    """Put the checkout's ``src`` first on ``sys.path``; False when the
    checkout holds no ``repro`` package to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
