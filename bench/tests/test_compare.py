from bench.compare import compare, verdict
from bench.run import load_catalog


def _set(values, failed=0):
    return {"runs": [
        {"workload": "zoom", "seed": seed, "correct": failed == 0,
         "attempted": 100, "failed": failed,
         "metrics": {"op_p50_ms": {"value": v, "unit": "ms"}}}
        for seed, v in enumerate(values, 1)
    ]}


def _rows(a, b):
    return {(r["metric"], r["workload"]): r for r in compare(a, b, load_catalog())}


def test_more_failures_regress_even_when_faster():
    rows = _rows(_set([10.0] * 10), _set([5.0] * 10, failed=1))
    assert rows["op_p50_ms", "zoom"]["verdict"] == "improved"
    assert rows["error_rate", "zoom"]["b_median"] == 0.01
    assert rows["error_rate", "zoom"]["verdict"] == "regressed"


def test_same_failures_do_not_regress():
    rows = _rows(_set([10.0] * 10), _set([10.0] * 10))
    assert rows["error_rate", "zoom"]["verdict"] == "unchanged"
    assert rows["op_p50_ms", "zoom"]["verdict"] == "unchanged"


def test_verdicts_under_a_bound():
    a = [10.0 + 0.1 * i for i in range(10)]
    worse = [13.0 + 0.1 * i for i in range(10)]
    assert verdict(a, worse, 0, 10, 0.25, higher_better=False) == "regressed"
    noisy = [6.0, 14.0] * 5
    assert verdict(a, noisy, 5, 10, 0.25, higher_better=False) == "unresolved"
    assert verdict(a, a, 0, 10, None, higher_better=False) == "-"
