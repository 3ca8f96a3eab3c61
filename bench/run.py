"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 -m bench.run --workload record|analyze|zoom|debug|all
        [--seed N] [--seconds S] [--trace 0|1] [--quick]
        [--json OUT.json] [--spans SPANS.json]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from a run that records a span around every call into a layer
(spans are written to ``--spans``, by default under ``bench/out/``).
``--workload all`` runs each workload in a fresh subprocess, one at a
time.  ``REPRO_*`` environment variables are cleared first, so the
library's defaults are what gets measured.  The exit code is 0 only when
every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import OUT, ROOT, use_checkout_sources

WORKLOADS = ("record", "analyze", "zoom", "debug")
QUICK_SECONDS = 1.0


def load_catalog() -> dict:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(workload: str, seed: int, seconds: float, trace: int,
          quick: bool = False, json_path: Optional[Path] = None,
          ) -> subprocess.CompletedProcess:
    """Run one workload in a fresh process and wait for it; its output
    is captured."""
    cmd = [sys.executable, "-m", "bench.run", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if json_path is not None:
        cmd += ["--json", str(json_path)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def parse_args(argv: Optional[Sequence[str]],
               run_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench.run",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"how long the timed phase runs (default "
                        f"{run_seconds:g} as BENCHMARK.json says, or "
                        f"{QUICK_SECONDS:g} with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for smoke tests")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the full result here")
    parser.add_argument("--spans", type=Path, default=None,
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else run_seconds
    return args


def run_workload(args: argparse.Namespace, catalog: dict) -> dict:
    """Run one workload in this process; returns the full result."""
    from .analyze import analyze
    from .debug import debug
    from .harness import Run
    from .record import record
    from .spans import NullSpans, Spans, span_cost
    from .zoom import zoom

    workload = {"record": record, "analyze": analyze, "zoom": zoom,
                "debug": debug}[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = Spans() if args.trace else NullSpans()
    run = Run(seed=args.seed, seconds=args.seconds, quick=args.quick,
              workdir=workdir, spans=spans)
    start = time.perf_counter()
    try:
        workload(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - start

    if args.trace:
        layer_metrics(run, wall, span_cost())
        spans_path = args.spans or OUT / f"spans-{args.workload}-{args.seed}.json"
        spans.write(spans_path)
        run.notes.append(f"{len(spans.spans)} spans written to {spans_path}")
        wanted = catalog["per_layer"]
    else:
        wanted = catalog["end_to_end"]
    end_to_end = {m["name"] for m in catalog["end_to_end"]}
    unknown = sorted(
        set(run.metrics) - end_to_end - {m["name"] for m in catalog["per_layer"]}
    )
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for m in wanted:
        if m["name"] in end_to_end and m["name"] not in run.metrics:
            raise KeyError(f"{args.workload} did not measure {m['name']}")
        # a per-layer metric of a layer this workload does not use is 0
        metrics[m["name"]] = {"value": float(run.metrics.get(m["name"], 0.0)),
                              "unit": m["unit"]}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "notes": run.notes,
        "problems": run.problems,
        "sample_counts": run.sample_counts,
        "measured": run.measured,
        "wall_s": wall,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def layer_metrics(run, wall: float, per_span: float) -> None:
    """Per-layer self times and tracing bookkeeping of a traced run."""
    spans = run.spans
    own = spans.self_times(spans.main_thread)
    for layer in ("mp", "instrument", "trace", "analysis", "debugger",
                  "explore", "bench"):
        run.metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
    run.metrics.update({
        "bench.traced_wall_s": wall,
        "bench.coverage": spans.covered() / wall,
        "bench.spans": float(len(spans.spans)),
        "bench.trace_overhead_pct": 100.0 * len(spans.spans) * per_span / wall,
    })
    counts = spans.counts()
    run.notes.append("layer self time (main thread), spans:")
    for layer, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        run.notes.append(f"  {layer:<11s} {seconds:9.3f} s  {counts.get(layer, 0):7d}")
    run.notes.append(
        f"  spans cover {run.metrics['bench.coverage']:.1%} of {wall:.2f} s; "
        f"estimated tracing overhead "
        f"{run.metrics['bench.trace_overhead_pct']:.2f}%"
    )


def print_result(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['seconds']:g} s, trace {result['trace']})")
    for line in result["notes"]:
        print(line)
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    counts = result["sample_counts"]
    for name, m in result["metrics"].items():
        n = f"  n={counts[name]}" if name in counts else ""
        print(f"  {name:<36s} {m['value']:14.6g} {m['unit']}{n}")


def summary_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = spawn(workload, args.seed, args.seconds, args.trace, args.quick)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{workload} exited with {proc.returncode} and no result",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = m
    if args.json:
        args.json.write_text(json.dumps(combined, indent=1) + "\n")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if not use_checkout_sources():
        print(f"bench: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    catalog = load_catalog()
    args = parse_args(argv, catalog["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args, catalog)
    if args.json:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    print_result(result)
    print(summary_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
