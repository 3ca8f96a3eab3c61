import time

import pytest

from bench.harness import NOMINAL_PROBE_S, SETUP_SAMPLES, Run


def test_setups_are_spread_over_the_run(tmp_path):
    built, disposed, rounds = [], [], []
    run = Run(seed=1, seconds=0.2, quick=True, workdir=tmp_path)
    kept = run.setup(lambda k: built.append(k) or k, disposed.append)
    assert kept == 0 and built == [0]
    for k in run.rounds():
        rounds.append(len(built))
        run.timed("op", "bench", time.sleep, 0.02)
    # set-ups ran between rounds, not all up front or all at the end
    assert rounds[0] == 1 and 1 < rounds[-1] < SETUP_SAMPLES
    assert built == list(range(SETUP_SAMPLES))
    assert disposed == built[1:]
    assert len(run.samples["setup"]) == SETUP_SAMPLES
    # set-up time is not time spent on the workload's calls
    assert run.busy == sum(run.samples["op"])


def test_times_are_scaled_by_the_probe_and_the_probe_is_not_timed(tmp_path):
    # a machine running at half the nominal speed
    run = Run(seed=1, seconds=0.3, quick=True, workdir=tmp_path,
              probe=lambda: time.sleep(0.05) or 2 * NOMINAL_PROBE_S)
    run.setup(lambda k: run.timed("inner", "bench", time.sleep, 0.001, count=False))
    for _ in run.rounds():
        run.timed("op", "bench", time.sleep, 0.02)
    run.finish("op", 50, 100.0, 2.0)
    # probes ran between calls, never inside one: neither an op nor the
    # set-up around a nested timed call took the probe's 50 ms
    assert len(run.samples["probe"]) > 1
    assert max(run.samples["op"] + run.samples["setup"]) < 0.05
    assert run.busy == pytest.approx(sum(run.samples["op"]))
    assert run.metrics["op_p50_ms"] == pytest.approx(run.measured["op_p50_ms"] / 2)
    assert run.metrics["setup_s"] == pytest.approx(run.measured["setup_s"] / 2)
    assert run.measured["events_per_s"] == pytest.approx(50.0)
    assert run.metrics["events_per_s"] == pytest.approx(100.0)
