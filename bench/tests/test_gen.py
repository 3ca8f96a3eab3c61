import numpy as np
import pytest

from bench.gen import HaloStore, store_files
from repro.analysis import HistoryIndex, detect_races
from repro.trace import TraceFileReader

ROUNDS = 40


def _write(tmp_path, name, seed):
    path = tmp_path / name / "halo.trace"
    path.parent.mkdir()
    HaloStore(seed, ROUNDS).write(path)
    return [p.read_bytes() for p in store_files(path)]


def test_same_seed_gives_byte_identical_stores(tmp_path):
    first = _write(tmp_path, "a", seed=7)
    assert len(first) == 9  # the manifest and 8 shards
    assert _write(tmp_path, "b", seed=7) == first
    assert _write(tmp_path, "c", seed=8) != first


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    store = HaloStore(3, ROUNDS)
    path = tmp_path_factory.mktemp("store") / "halo.trace"
    store.write(path)
    return store, path


def test_oracle_counts_match_the_analyses(written):
    store, path = written
    idx = HistoryIndex.from_file(TraceFileReader(path))
    assert len(idx) == store.n_events
    assert len(idx.message_pairs()) == store.n_sends
    assert not idx.unmatched_sends() and not idx.unmatched_recvs()
    assert len(detect_races(idx.trace, index=idx)) == store.n_races > 0


def test_oracle_windows_equal_a_scan(written):
    store, path = written
    block = TraceFileReader(path).read_columns()
    cols = block.columns
    lo_t, hi_t = store.span
    rng = np.random.default_rng(0)
    cases = [(lo_t, hi_t, None), (hi_t + 1, hi_t + 2, None), (3.0, 3.0, None)]
    for _ in range(50):
        lo = rng.uniform(lo_t - 1, hi_t)
        procs = set(rng.choice(64, 4, replace=False).tolist()) if _ % 3 else None
        cases.append((lo, lo + rng.uniform(0, 6), procs))
    # windows whose edges sit exactly on record start and end times
    for i in rng.integers(0, len(block), 10).tolist():
        cases.append((float(cols["t1"][i]), float(cols["t0"][i]) + 2.0, None))
    for lo, hi, procs in cases:
        mask = block.window_mask(lo, hi, procs)
        expected = np.sort(cols["index"][mask])
        assert store.window_indexes(lo, hi, procs).tolist() == expected.tolist()
