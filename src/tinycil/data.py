"""Datasets, deterministic class ordering, and protocol expansion.

Synthetic classes are low-frequency cosine patterns (one prototype per class,
per channel) with per-sample Gaussian noise scaled by `difficulty`; at
difficulty 0 every sample of a class is the prototype itself. The on-disk
format ("CILD") round-trips bit-exactly and all parse failures carry byte
offsets.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .binio import Reader, pack_records, write_file
from .errors import ConfigError, DataFormatError
from .memory import BudgetPolicy, per_class_budget
from .rng import SplitMix64

DATASET_MAGIC = b"CILD"
DATASET_VERSION = 1
NOISE_BASE_STD = 0.25
# CILD (and CILX) store image sizes, channel counts and labels as u16
U16_MAX = 0xFFFF
_PROTO_MODES = 4          # cosine modes per axis in a prototype


@dataclass(frozen=True)
class ProtocolConfig:
    """A CIL protocol: N1 initial classes, fixed-size increments, one budget."""

    total_classes: int
    initial_classes: int
    increment: int
    budget: BudgetPolicy
    epochs_initial: int = 20
    epochs_step: int = 5
    shuffle_seed: int = 1993

    def __post_init__(self):
        if self.initial_classes < 1 or self.increment < 1:
            raise ConfigError("initial_classes and increment must be >= 1")
        if self.initial_classes > self.total_classes:
            raise ConfigError(
                f"initial_classes {self.initial_classes} exceeds total "
                f"{self.total_classes}")
        if (self.total_classes - self.initial_classes) % self.increment != 0:
            raise ConfigError(
                f"(total_classes - initial_classes) = "
                f"{self.total_classes - self.initial_classes} not divisible by "
                f"increment {self.increment}")
        if min(self.epochs_initial, self.epochs_step) < 1:
            raise ConfigError("epochs_initial and epochs_step must be >= 1")
        if per_class_budget(self.budget, self.total_classes) < 1:
            raise ConfigError(f"budget {self.budget} leaves no exemplar per "
                              "class once every class is seen")


@dataclass
class StepPlan:
    """Protocol expanded over the shuffled class order."""

    class_order: np.ndarray            # permutation of range(total_classes)
    steps: list[list[int]]             # original class ids per step

    @property
    def sizes(self) -> list[int]:
        return [len(s) for s in self.steps]

    @property
    def seen_counts(self) -> list[int]:
        return np.cumsum(self.sizes).tolist()


def shuffle_classes(total_classes: int, seed: int) -> np.ndarray:
    """Fisher-Yates permutation driven by SplitMix64(seed)."""
    if total_classes < 1:
        raise ConfigError("total_classes must be >= 1")
    return SplitMix64(seed).permutation(total_classes)


def build_protocol(cfg: ProtocolConfig) -> StepPlan:
    order = shuffle_classes(cfg.total_classes, cfg.shuffle_seed)
    steps = [order[:cfg.initial_classes].tolist()]
    pos = cfg.initial_classes
    while pos < cfg.total_classes:
        steps.append(order[pos:pos + cfg.increment].tolist())
        pos += cfg.increment
    return StepPlan(class_order=order, steps=steps)


@dataclass
class LabeledDataset:
    images: np.ndarray                 # [n, c, h, w] uint8
    labels: np.ndarray                 # [n] int64
    train_indices: np.ndarray
    test_indices: np.ndarray
    num_classes: int

    def class_indices(self, split: str, class_id: int) -> np.ndarray:
        pool = self.train_indices if split == "train" else self.test_indices
        return pool[self.labels[pool] == class_id]

    def subset(self, split: str, class_ids) -> tuple[np.ndarray, np.ndarray]:
        """Images and labels of the given classes in one split."""
        idx = np.concatenate([self.class_indices(split, c) for c in class_ids])
        return self.images[idx], self.labels[idx]


def _prototype(stream: SplitMix64, channels: int, size: int) -> np.ndarray:
    """Smooth per-channel pattern from random low-order cosine coefficients."""
    coords = (np.arange(size) + 0.5) / size
    basis = np.stack([np.cos(np.pi * k * coords) for k in range(_PROTO_MODES)])
    coeff = stream.normals((channels, _PROTO_MODES, _PROTO_MODES))
    pattern = np.einsum("ckl,ki,lj->cij", coeff, basis, basis)
    lo = pattern.min(axis=(1, 2), keepdims=True)
    hi = pattern.max(axis=(1, 2), keepdims=True)
    return 0.2 + 0.6 * (pattern - lo) / np.maximum(hi - lo, 1e-9)


def check_synthetic(classes: int, per_class_train: int, per_class_test: int,
                    image_size: int, channels: int, difficulty: float) -> None:
    """Raise ConfigError, naming the first bad value by its config key, unless
    these describe a synthetic dataset that CILD can store."""
    for key, value in (("classes", classes), ("per_class_train", per_class_train),
                       ("per_class_test", per_class_test), ("image_size", image_size),
                       ("channels", channels)):
        if value < 1:
            raise ConfigError(f"{key}: expected at least 1, got {value}")
        if value > U16_MAX and not key.startswith("per_class"):
            raise ConfigError(f"{key}: expected at most {U16_MAX} (a u16 on disk), got {value}")
    if not (math.isfinite(difficulty) and difficulty >= 0):
        raise ConfigError(f"difficulty: expected a finite number >= 0, got {difficulty!r}")


def generate_synthetic(num_classes: int, per_class_train: int,
                       per_class_test: int, *, image_size: int,
                       channels: int = 3, difficulty: float,
                       seed: int) -> LabeledDataset:
    """Deterministic toy dataset: class prototypes plus scaled noise."""
    check_synthetic(num_classes, per_class_train, per_class_test, image_size,
                    channels, difficulty)
    root = SplitMix64(seed)
    proto_stream = root.child("prototypes")
    noise_stream = root.child("noise")
    per_class = per_class_train + per_class_test
    n = num_classes * per_class
    images = np.empty((n, channels, image_size, image_size), dtype=np.uint8)
    for cid in range(num_classes):
        proto = _prototype(proto_stream, channels, image_size)
        samples = noise_stream.normals((per_class, channels, image_size, image_size),
                                       std=NOISE_BASE_STD * difficulty)
        np.add(proto, samples, out=samples)
        np.clip(samples, 0.0, 1.0, out=samples)
        samples *= 255.0
        images[cid * per_class:(cid + 1) * per_class] = np.round(samples, out=samples)
    in_class = np.arange(n) % per_class     # each class: train rows, then test
    return LabeledDataset(images=images, labels=np.arange(n) // per_class,
                          train_indices=np.flatnonzero(in_class < per_class_train),
                          test_indices=np.flatnonzero(in_class >= per_class_train),
                          num_classes=num_classes)


# ---------------------------------------------------------------------------
# CILD on-disk format: header, (label u16, pixels) records, index block

def save_dataset(ds: LabeledDataset, path) -> None:
    n, c, h, w = ds.images.shape
    chunks = [struct.pack("<IHHHH", n, h, w, c, ds.num_classes),
              pack_records(ds.labels, ds.images)]
    for idx in (ds.train_indices, ds.test_indices):
        chunks.append(struct.pack("<I", len(idx)))
        chunks.append(idx.astype("<u4").tobytes())
    write_file(path, DATASET_MAGIC, DATASET_VERSION, chunks)


def load_dataset(path) -> LabeledDataset:
    r = Reader(path, DATASET_MAGIC, DATASET_VERSION, "dataset")
    n, h, w, c, num_classes = r.unpack("<IHHHH")
    labels, images = r.records(n, (c, h, w), lambda y: y < num_classes)
    splits = []
    for name in ("train", "test"):
        where = f" (in {name} index block)"
        (count,) = r.unpack("<I", where)
        idx = r.array("<u4", count, where)
        if count and idx.max() >= n:
            raise DataFormatError(
                f"{name} index {int(idx.max())} out of range [0, {n})")
        splits.append(idx.astype(np.int64))
    r.finish()
    uses = np.bincount(np.concatenate(splits), minlength=n)
    if (uses != 1).any():
        i = int(np.argmax(uses != 1))
        raise DataFormatError(f"train/test split overlaps or misses records: "
                              f"image index {i} is listed {uses[i]} times")
    return LabeledDataset(images=images.copy(), labels=labels.astype(np.int64),
                          train_indices=splits[0], test_indices=splits[1],
                          num_classes=num_classes)
