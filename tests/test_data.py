"""Dataset generation, class shuffling, protocols, and the CILD format."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from tinycil.data import (LabeledDataset, ProtocolConfig, build_protocol,
                          generate_synthetic, load_dataset, save_dataset,
                          shuffle_classes)
from tinycil.errors import ConfigError, DataFormatError
from tinycil.memory import PerClass, Total

# Frozen from an independent SplitMix64 + Fisher-Yates implementation.
GOLDEN_SHUFFLE_10_SEED_1993 = [7, 5, 4, 3, 8, 0, 1, 9, 2, 6]


# --- shuffling -------------------------------------------------------------------

def test_shuffle_deterministic():
    np.testing.assert_array_equal(shuffle_classes(25, 4), shuffle_classes(25, 4))


def test_shuffle_is_bijection():
    perm = shuffle_classes(40, 11)
    assert sorted(perm.tolist()) == list(range(40))


def test_shuffle_golden_vector():
    assert shuffle_classes(10, 1993).tolist() == GOLDEN_SHUFFLE_10_SEED_1993


# --- protocols -------------------------------------------------------------------

def _proto(total, n1, inc, budget=PerClass(20)):
    return ProtocolConfig(total_classes=total, initial_classes=n1,
                          increment=inc, budget=budget)


def test_protocol_one_layout():
    plan = build_protocol(_proto(100, 50, 10))
    assert plan.sizes == [50, 10, 10, 10, 10, 10]
    assert len(plan.steps) == 6


def test_protocol_two_and_three_layout():
    assert len(build_protocol(_proto(100, 10, 10)).steps) == 10
    assert len(build_protocol(_proto(100, 10, 10, Total(2000))).steps) == 10


def test_increment_five_layouts():
    assert len(build_protocol(_proto(100, 5, 5)).steps) == 20
    assert len(build_protocol(_proto(100, 5, 5, Total(2000))).steps) == 20
    assert len(build_protocol(_proto(100, 50, 5)).steps) == 11


def test_plan_partitions_class_list():
    plan = build_protocol(_proto(60, 20, 8))
    flat = [c for step in plan.steps for c in step]
    assert sorted(flat) == list(range(60))
    assert flat == plan.class_order.tolist()


def test_protocol_divisibility_error():
    with pytest.raises(ConfigError):
        _proto(100, 50, 7)


def test_protocol_seen_counts():
    plan = build_protocol(_proto(30, 10, 5))
    assert plan.seen_counts == [10, 15, 20, 25, 30]


# --- synthetic dataset --------------------------------------------------------------

def test_difficulty_zero_is_degenerate():
    ds = generate_synthetic(3, 5, 2, image_size=8, difficulty=0.0, seed=1)
    for cid in range(3):
        idx = np.concatenate([ds.class_indices("train", cid),
                              ds.class_indices("test", cid)])
        first = ds.images[idx[0]]
        assert all(np.array_equal(ds.images[i], first) for i in idx)


@pytest.mark.parametrize("difficulty", [float("nan"), float("inf"), -5.0])
def test_difficulty_out_of_range_rejected(difficulty):
    with pytest.raises(ConfigError, match="difficulty"):
        generate_synthetic(3, 4, 2, image_size=8, difficulty=difficulty)


@pytest.mark.parametrize("key,sizes", [
    ("classes", dict(num_classes=65536)),
    ("image_size", dict(image_size=70000)),
    ("channels", dict(channels=70000)),
])
def test_sizes_above_u16_rejected(key, sizes):
    args = dict(num_classes=1, per_class_train=1, per_class_test=1,
                image_size=1, channels=1) | sizes
    with pytest.raises(ConfigError, match=key):
        generate_synthetic(**args)


def test_same_seed_bit_identical():
    a = generate_synthetic(4, 6, 3, seed=9)
    b = generate_synthetic(4, 6, 3, seed=9)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


# images of generate_synthetic(20, 64, 40, seed=11): computing the draws in
# blocks and in place must not move a bit
SYNTHETIC_20_64_40_SHA256 = \
    "9375a80b3b047bc9697ceba1e0f01f80a12db9879f51f8dab6c5614c3c27ca43"


def test_synthetic_images_keep_their_bits():
    ds = generate_synthetic(20, 64, 40, seed=11)
    assert hashlib.sha256(ds.images.tobytes()).hexdigest() == SYNTHETIC_20_64_40_SHA256


def test_synthetic_generation_peaks_below_three_times_its_images():
    # the draws run in place, in fixed blocks: the scratch beside the
    # images is one class's samples plus one block of draws
    tracemalloc.start()
    try:
        ds = generate_synthetic(20, 64, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * ds.images.nbytes, peak / ds.images.nbytes


def test_split_shapes_and_counts():
    ds = generate_synthetic(5, 8, 4, image_size=12, channels=2, seed=2)
    assert ds.images.shape == (60, 2, 12, 12)
    assert len(ds.train_indices) == 40 and len(ds.test_indices) == 20
    for cid in range(5):
        assert len(ds.class_indices("train", cid)) == 8
        assert len(ds.class_indices("test", cid)) == 4


def _nearest_mean_accuracy(ds: LabeledDataset) -> float:
    X = ds.images.astype(float) / 255.0
    means = np.stack([X[ds.class_indices("train", c)].mean(axis=0)
                      for c in range(ds.num_classes)])
    test = ds.test_indices
    d2 = ((X[test][:, None] - means[None]) ** 2).sum(axis=(2, 3, 4))
    return float((d2.argmin(axis=1) == ds.labels[test]).mean())


def test_nearest_mean_regression_floor():
    # default toy dataset: separable at difficulty 0.5, frozen floor at 4.0
    easy = generate_synthetic(10, 64, 20, image_size=16, difficulty=0.5, seed=7)
    assert _nearest_mean_accuracy(easy) == 1.0
    hard = generate_synthetic(10, 64, 20, image_size=16, difficulty=4.0, seed=7)
    assert _nearest_mean_accuracy(hard) == pytest.approx(0.71)


# --- CILD format ------------------------------------------------------------------

def test_roundtrip_bit_exact(tmp_path):
    ds = generate_synthetic(4, 5, 3, image_size=8, seed=5)
    path = tmp_path / "toy.cild"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.images, ds.images)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    np.testing.assert_array_equal(loaded.train_indices, ds.train_indices)
    np.testing.assert_array_equal(loaded.test_indices, ds.test_indices)
    assert loaded.num_classes == 4
    # byte-stable: saving the loaded dataset reproduces the file
    path2 = tmp_path / "again.cild"
    save_dataset(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.cild"
    path.write_bytes(b"XILD" + bytes(100))
    with pytest.raises(DataFormatError, match="bad magic"):
        load_dataset(path)


def test_truncation_names_record(tmp_path):
    ds = generate_synthetic(3, 4, 2, image_size=8, seed=6)
    path = tmp_path / "toy.cild"
    save_dataset(ds, path)
    blob = path.read_bytes()
    header = 4 + 2 + 12
    record = 2 + 3 * 8 * 8
    path.write_bytes(blob[:header + 5 * record + 10])  # dies inside record 5
    with pytest.raises(DataFormatError, match="record 5"):
        load_dataset(path)


def test_label_out_of_range(tmp_path):
    ds = generate_synthetic(3, 2, 1, image_size=4, seed=8)
    path = tmp_path / "toy.cild"
    save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    header = 4 + 2 + 12
    blob[header:header + 2] = (999).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="label 999"):
        load_dataset(path)


def test_overlapping_split_rejected(tmp_path):
    ds = generate_synthetic(2, 3, 2, image_size=4, seed=9)
    ds.test_indices = ds.test_indices.copy()
    ds.test_indices[0] = ds.train_indices[0]
    path = tmp_path / "toy.cild"
    save_dataset(ds, path)
    with pytest.raises(DataFormatError, match="overlap"):
        load_dataset(path)
