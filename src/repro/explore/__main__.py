"""``python -m repro.explore`` -- schedule-insensitivity as one command.

Examples::

    # explore the safe demo app: a qualified clean verdict (exit 0)
    python -m repro.explore --app schedbug:safe --nprocs 5

    # hunt the seeded ordering bug (exit 1, prints the forcing log)
    python -m repro.explore --app schedbug --nprocs 5 --verbose

    # batched exploration over 4 forked workers, JSON report
    python -m repro.explore --app master_worker --nprocs 8 \\
        --batch mproc --workers 4 --json report.json

Exit status: 0 when every explored schedule is clean, 1 when any
schedule crashed, deadlocked, or diverged, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.apps import CONFORMANCE_PROGRAMS, SCHEDBUG_MODES, schedbug_program

from .driver import explore


def resolve_app(spec: str, nprocs: int, seed: int):
    """``name`` or ``name:option`` -> a launchable program target.

    ``schedbug`` takes its mode as the option (``schedbug:crash``);
    every other name comes from :data:`repro.apps.CONFORMANCE_PROGRAMS`.
    """
    name, _, option = spec.partition(":")
    if name == "schedbug":
        mode = option or "unsafe"
        if mode not in SCHEDBUG_MODES:
            raise SystemExit(
                f"unknown schedbug mode {mode!r}; expected one of "
                f"{', '.join(SCHEDBUG_MODES)}"
            )
        return schedbug_program(n_tasks=max(4, nprocs + 2), mode=mode), spec
    if option:
        raise SystemExit(f"app {name!r} takes no option (got {option!r})")
    factory = CONFORMANCE_PROGRAMS.get(name)
    if factory is None:
        raise SystemExit(
            f"unknown app {name!r}; available: "
            f"schedbug[:{'|'.join(SCHEDBUG_MODES)}], "
            + ", ".join(sorted(CONFORMANCE_PROGRAMS))
        )
    return factory(nprocs, seed), spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Systematic race-driven schedule-space exploration.",
    )
    parser.add_argument(
        "--app",
        default="schedbug",
        help="program to explore: schedbug[:mode] or a repro.apps name "
        "(default: schedbug)",
    )
    parser.add_argument("--nprocs", type=int, default=5)
    parser.add_argument("--depth", type=int, default=2,
                        help="steering depth bound (default: 2)")
    parser.add_argument("--max-schedules", type=int, default=64,
                        help="replay budget (default: 64)")
    parser.add_argument("--batch", choices=("serial", "mproc"),
                        default="serial")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for --batch mproc (default: 4)")
    parser.add_argument("--policy", default="run_to_block")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-tag-wildcards", action="store_true",
                        help="only steer ANY_SOURCE races")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the full report as JSON")
    parser.add_argument("--verbose", action="store_true",
                        help="describe every bad schedule, not just the worst")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    program, name = resolve_app(args.app, args.nprocs, args.seed)
    report = explore(
        program,
        args.nprocs,
        depth=args.depth,
        max_schedules=args.max_schedules,
        batch=args.batch,
        workers=args.workers,
        policy=args.policy,
        seed=args.seed,
        include_tag_wildcards=not args.no_tag_wildcards,
        program_name=name,
    )
    print(report.as_text(verbose=args.verbose))
    if args.json is not None:
        args.json.write_text(json.dumps(report.to_jsonable(), indent=1))
        print(f"report written to {args.json}")
    return 1 if report.schedule_sensitive else 0


if __name__ == "__main__":
    sys.exit(main())
