"""Collect sets of benchmark runs, and compare two sets.

Collect a set (every workload, one run per seed, each in a fresh
process)::

    python3 -m bench.compare collect OUT.json [--seeds 1-10] [--trace 0|1]
        [--workloads record,zoom] [--seconds S]

Compare two sets, A the parent and B the change::

    python3 -m bench.compare A.json B.json

For each (metric, workload) row it prints each side's median and
quartiles, how many seed-paired runs B won, and a verdict under the
bounds of ``BENCHMARK.json``:

* ``improved`` -- B wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than A's quartile spread;
* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's quartile spread is wider than the
  bound, and not every run of B beats every run of A;
* ``unchanged`` -- otherwise.

The first rows, one per workload, are ``error_rate``: failed over
attempted operations across the set (the median columns show that
rate, the quartiles the per-run rates); any increase is ``regressed``.
Per-layer metrics have no bound; their rows show the numbers and the
pairs won, with no verdict.  The exit code is 1 when a row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from . import OUT
from .run import WORKLOADS, load_catalog, spawn


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,3,5"``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(out: Path, seeds: Sequence[int], workloads: Sequence[str],
            trace: int, seconds: float) -> dict:
    runs = []
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        result_path = Path(tmp) / "result.json"
        for seed in seeds:
            for workload in workloads:
                result_path.unlink(missing_ok=True)
                proc = spawn(workload, seed, seconds, trace, json_path=result_path)
                if not result_path.exists():
                    sys.stderr.write(proc.stderr)
                    raise RuntimeError(f"{workload} seed {seed} exited with "
                                       f"{proc.returncode} and no result")
                result = json.loads(result_path.read_text())
                runs.append({k: result[k] for k in (
                    "workload", "seed", "trace", "wall_s", "correct",
                    "attempted", "failed", "metrics", "measured",
                    "sample_counts")})
                print(f"{workload} seed {seed}: "
                      f"{'ok' if result['correct'] else 'FAILED'}", flush=True)
    data = {"seconds": seconds, "runs": runs}
    out.write_text(json.dumps(data, indent=1) + "\n")
    return data


def _by_seed(data: dict, workload: str, metric: str) -> dict[int, float]:
    return {
        r["seed"]: r["metrics"][metric]["value"]
        for r in data["runs"]
        if r["workload"] == workload and metric in r["metrics"]
    }


def verdict(a: list[float], b: list[float], wins: int, pairs: int,
            bound: Optional[float], higher_better: bool) -> str:
    """The row's verdict (see the module docstring)."""
    if bound is None:
        return "-"
    med_a, med_b = statistics.median(a), statistics.median(b)
    q_a, q_b = _quartiles(a), _quartiles(b)
    worse = (med_a - med_b if higher_better else med_b - med_a) / abs(med_a)
    if (worse < 0 and pairs and wins >= 0.9 * pairs
            and abs(med_b - med_a) > q_a[2] - q_a[0]):
        return "improved"
    if worse > bound:
        return "regressed"
    spread = max((q_a[2] - q_a[0]) / abs(med_a), (q_b[2] - q_b[0]) / abs(med_b))
    all_better = (min(b) > max(a)) if higher_better else (max(b) < min(a))
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _failures(data: dict, workload: str) -> dict[int, tuple[int, int]]:
    """Seed -> (failed, attempted); a run that says it is not correct
    counts at least one failure."""
    return {
        r["seed"]: (max(r["failed"], int(not r["correct"])), r["attempted"])
        for r in data["runs"] if r["workload"] == workload
    }


def error_rows(a: dict, b: dict) -> list[dict]:
    """One ``error_rate`` row per workload: failed over attempted
    operations across the set.  Any increase is a regression; no timing
    gain counts when more operations fail."""
    rows = []
    for workload in WORKLOADS:
        fa, fb = _failures(a, workload), _failures(b, workload)
        if not fa or not fb:
            continue
        rate_a, rate_b = (
            sum(f for f, _ in runs.values()) / sum(n for _, n in runs.values())
            for runs in (fa, fb)
        )
        paired = sorted(set(fa) & set(fb))
        rows.append({
            "metric": "error_rate", "workload": workload, "unit": "fraction",
            "a": _quartiles([f / n for f, n in fa.values()]),
            "b": _quartiles([f / n for f, n in fb.values()]),
            "a_median": rate_a, "b_median": rate_b,
            "wins": sum(fb[s][0] * fa[s][1] < fa[s][0] * fb[s][1] for s in paired),
            "pairs": len(paired),
            "verdict": "regressed" if rate_b > rate_a else "unchanged",
        })
    return rows


def compare(a: dict, b: dict, catalog: dict) -> list[dict]:
    rows = error_rows(a, b)
    for m in catalog["end_to_end"] + catalog["per_layer"]:
        for workload in WORKLOADS:
            sa = _by_seed(a, workload, m["name"])
            sb = _by_seed(b, workload, m["name"])
            if not sa or not sb:
                continue
            higher = m["better"] == "higher"
            paired = sorted(set(sa) & set(sb))
            wins = sum(
                (sb[s] > sa[s]) if higher else (sb[s] < sa[s]) for s in paired
            )
            va, vb = list(sa.values()), list(sb.values())
            if statistics.median(va) == 0:
                continue  # a layer this workload does not use
            rows.append({
                "metric": m["name"], "workload": workload, "unit": m["unit"],
                "a": _quartiles(va), "b": _quartiles(vb),
                "a_median": statistics.median(va),
                "b_median": statistics.median(vb),
                "wins": wins, "pairs": len(paired),
                "verdict": verdict(va, vb, wins, len(paired), m.get("bound"),
                                   higher),
            })
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'metric':<34s} {'workload':<8s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'won':>6s}  verdict")
    for r in rows:
        a = f"{r['a_median']:.4g} [{r['a'][0]:.4g}, {r['a'][2]:.4g}]"
        b = f"{r['b_median']:.4g} [{r['b'][0]:.4g}, {r['b'][2]:.4g}]"
        print(f"{r['metric']:<34s} {r['workload']:<8s} {a:>30s} {b:>30s} "
              f"{r['wins']:>3d}/{r['pairs']:<2d}  {r['verdict']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    catalog = load_catalog()
    if argv and argv[0] == "collect":
        parser = argparse.ArgumentParser(prog="python3 -m bench.compare collect")
        parser.add_argument("out", type=Path)
        parser.add_argument("--seeds", default="1-10")
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--workloads", default=",".join(WORKLOADS))
        parser.add_argument("--seconds", type=float,
                            default=catalog["run_seconds"])
        args = parser.parse_args(argv[1:])
        collect(args.out, parse_seeds(args.seeds), args.workloads.split(","),
                args.trace, args.seconds)
        return 0
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare")
    parser.add_argument("a", type=Path, help="the parent's set")
    parser.add_argument("b", type=Path, help="the change's set")
    args = parser.parse_args(argv)
    rows = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()),
                   catalog)
    print_rows(rows)
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
