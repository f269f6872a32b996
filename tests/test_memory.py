"""Exemplar store and herding contracts, with a brute-force greedy oracle."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import greedy_sq_oracle

from tinycil.errors import ConfigError
from tinycil.memory import (ExemplarStore, PerClass, Total, herding_select,
                            load_store, per_class_budget, save_store)


def _unit_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(n, d))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def greedy_oracle(features, budget):
    """Independent re-derivation: naive loops, no vectorization shortcuts."""
    n, d = features.shape
    mu = features.mean(axis=0)
    chosen = []
    for k in range(1, min(budget, n) + 1):
        best_idx, best_dist = None, None
        for i in range(n):
            if i in chosen:
                continue
            trial = (sum(features[j] for j in chosen) + features[i]) / k
            dist = float(np.linalg.norm(mu - trial))
            if best_dist is None or dist < best_dist:
                best_idx, best_dist = i, dist
        chosen.append(best_idx)
    return chosen


# --- budgets -------------------------------------------------------------------

def test_per_class_budget_values():
    assert per_class_budget(Total(2000), 20) == 100
    assert per_class_budget(PerClass(20), 3) == 20
    assert per_class_budget(PerClass(20), 57) == 20
    assert per_class_budget(Total(2000), 30) == 66


def test_per_class_budget_rejects_zero_seen():
    with pytest.raises(ConfigError):
        per_class_budget(Total(100), 0)


# --- herding -------------------------------------------------------------------

def test_herding_single_candidate():
    assert herding_select(_unit_rows(1, 4, 0), 3) == [0]


def test_herding_budget_covers_all():
    f = _unit_rows(5, 8, 1)
    order = herding_select(f, 99)
    assert sorted(order) == list(range(5))
    assert order == greedy_oracle(f, 5)


def test_herding_matches_oracle():
    for seed in range(25):
        n = 3 + seed % 6
        f = _unit_rows(n, 6, seed)
        assert herding_select(f, 3) == greedy_oracle(f, 3)[:3]


def test_herding_prefix_stability():
    f = _unit_rows(8, 5, 42)
    full = herding_select(f, 8)
    for k in range(1, 8):
        assert herding_select(f, k) == full[:k]


def test_herding_deterministic_with_ties():
    f = np.tile(np.array([[1.0, 0.0]]), (4, 1))   # identical features
    assert herding_select(f, 4) == [0, 1, 2, 3]   # lowest index wins ties


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_herding_property_with_duplicated_rows(data):
    """Few distinct rows, each repeated (forced ties); budgets 1 to n + 2."""
    d = data.draw(st.integers(1, 4), label="d")
    distinct = np.array(data.draw(st.lists(
        st.lists(st.floats(-2, 2, width=16), min_size=d, max_size=d),
        min_size=1, max_size=5), label="distinct"))
    rows = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1,
                              max_size=12), label="rows")
    f = distinct[rows]
    full = herding_select(f, len(f) + 2)
    assert sorted(full) == list(range(len(f)))
    for budget in range(1, len(f) + 3):
        picks = herding_select(f, budget)
        assert picks == greedy_sq_oracle(f, budget), budget
        assert picks == full[:budget], budget


def test_herding_rejects_empty():
    with pytest.raises(ConfigError):
        herding_select(np.empty((0, 3)), 2)
    with pytest.raises(ConfigError):
        herding_select(_unit_rows(3, 3, 0), 0)


# --- store ---------------------------------------------------------------------

def _imgs(n, value, shape=(3, 4, 4)):
    return np.full((n,) + shape, value, dtype=np.uint8)


def test_per_class_counts_never_change():
    store = ExemplarStore(PerClass(5))
    store.add_and_trim({0: _imgs(8, 0), 1: _imgs(5, 1)}, n_seen=2)
    assert store.counts() == {0: 5, 1: 5}
    store.add_and_trim({2: _imgs(9, 2)}, n_seen=3)
    assert store.counts() == {0: 5, 1: 5, 2: 5}


def test_total_policy_trims_old_classes():
    store = ExemplarStore(Total(2000))
    store.add_and_trim({c: _imgs(250, c) for c in range(10)}, n_seen=10)
    assert store.counts() == {c: 200 for c in range(10)}
    store.add_and_trim({c: _imgs(250, c) for c in range(10, 20)}, n_seen=20)
    assert store.counts() == {c: 100 for c in range(20)}
    assert store.total_count() <= 2000


def test_trim_preserves_prefix():
    store = ExemplarStore(Total(8))
    imgs = np.arange(6 * 3 * 2 * 2, dtype=np.uint8).reshape(6, 3, 2, 2)
    store.add_and_trim({0: imgs}, n_seen=1)
    np.testing.assert_array_equal(store.images(0), imgs[:6])
    store.add_and_trim({1: _imgs(6, 7, (3, 2, 2))}, n_seen=2)
    np.testing.assert_array_equal(store.images(0), imgs[:4])


def test_duplicate_class_rejected():
    store = ExemplarStore(PerClass(3))
    store.add_and_trim({0: _imgs(3, 0)}, n_seen=1)
    with pytest.raises(ConfigError):
        store.add_and_trim({0: _imgs(3, 0)}, n_seen=1)


def test_total_budget_never_exceeded_over_20_steps():
    store = ExemplarStore(Total(100))
    for step in range(1, 21):
        n_seen = step * 5
        store.add_and_trim({c: _imgs(30, c % 251, (1, 2, 2))
                            for c in range((step - 1) * 5, step * 5)},
                           n_seen=n_seen)
        assert store.total_count() <= 100
        expected = 100 // n_seen
        assert all(c == min(expected, 30) for c in store.counts().values())


def test_store_roundtrip(tmp_path):
    store = ExemplarStore(Total(50))
    rng = np.random.default_rng(0)
    store.add_and_trim(
        {c: rng.integers(0, 256, (4, 3, 4, 4)).astype(np.uint8) for c in range(3)},
        n_seen=3)
    path = tmp_path / "store.cilx"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded.policy == Total(50)
    assert loaded.counts() == store.counts()
    for cid in store.class_ids():
        np.testing.assert_array_equal(loaded.images(cid), store.images(cid))


def test_empty_store_header_bytes(tmp_path):
    # a round trip alone would not see other header dims for an empty store
    path = tmp_path / "empty.cilx"
    save_store(ExemplarStore(Total(100)), path)
    assert path.read_bytes() == (b"CILX" + struct.pack("<H", 1)
                                 + struct.pack("<BI", 1, 100)
                                 + struct.pack("<HHH", 0, 0, 0)
                                 + struct.pack("<I", 0))
    loaded = load_store(path)
    assert loaded.class_ids() == [] and loaded.policy == Total(100)


def test_store_as_arrays():
    store = ExemplarStore(PerClass(2))
    store.add_and_trim({3: _imgs(2, 3), 5: _imgs(2, 5)}, n_seen=2)
    images, labels = store.as_arrays()
    assert images.shape == (4, 3, 4, 4)
    np.testing.assert_array_equal(labels, [3, 3, 5, 5])
