"""The benchmark end to end at ``--quick`` size: every workload runs,
checks its outputs, and prints exactly the metrics BENCHMARK.json names."""

import json
import re
import subprocess
import sys
import time

import pytest

from bench import ROOT
from bench.run import WORKLOADS, load_catalog

CATALOG = load_catalog()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run_all(trace: int):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "all", "--quick",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    # one line per workload, then the combined line
    assert len(lines) == len(WORKLOADS) + 1
    return dict(zip(WORKLOADS, lines)), time.perf_counter() - start


@pytest.fixture(scope="module")
def untraced():
    return _run_all(0)


@pytest.fixture(scope="module")
def traced():
    return _run_all(1)[0]


def test_quick_smoke_of_all_workloads(untraced):
    results, elapsed = untraced
    assert elapsed < 60
    for workload, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1


def _declared(section):
    return {m["name"]: m["unit"] for m in CATALOG[section]}


def test_printed_metrics_and_units_match_the_catalog(untraced, traced):
    for section, results in (("end_to_end", untraced[0]), ("per_layer", traced)):
        for workload, result in results.items():
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == _declared(section), (section, workload)
    for workload, result in untraced[0].items():
        for name, m in result["metrics"].items():
            assert m["value"] > 0, (workload, name)


def test_every_per_layer_metric_is_measured_somewhere(traced):
    measured = {
        name for result in traced.values()
        for name, m in result["metrics"].items() if m["value"] != 0
    }
    assert measured == set(_declared("per_layer"))


def test_catalog_follows_the_benchmark_format():
    assert set(CATALOG) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert CATALOG["paths"] == ["bench"]
    assert 1 <= CATALOG["run_seconds"] <= 60
    assert [w["name"] for w in CATALOG["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in CATALOG["end_to_end"] + CATALOG["per_layer"]]
    names += [w["name"] for w in CATALOG["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in CATALOG["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in CATALOG["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in CATALOG["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in CATALOG["end_to_end"] + CATALOG["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in CATALOG["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert len(CATALOG["per_layer"]) <= 128
