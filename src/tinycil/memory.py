"""Exemplar storage under replay budgets, with greedy mean-matching herding.

Herding keeps the running mean of the selected features as close as possible
to the class mean, one greedy pick at a time; the resulting order is what the
store keeps, so trimming to a smaller budget always removes a suffix and the
selection for budget k is a prefix of the selection for budget k' > k.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .binio import Reader, pack_records, write_file
from .errors import ConfigError, DataFormatError

STORE_MAGIC = b"CILX"
STORE_VERSION = 1


@dataclass(frozen=True)
class PerClass:
    """Fixed number of exemplars per old class (R_per)."""

    per_class: int


@dataclass(frozen=True)
class Total:
    """Fixed total replay budget shared by all seen classes (R_total)."""

    total: int


BudgetPolicy = PerClass | Total


def per_class_budget(policy: BudgetPolicy, n_seen: int) -> int:
    """Exemplars each class may keep once n_seen classes have arrived."""
    if n_seen < 1:
        raise ConfigError(f"n_seen must be >= 1, got {n_seen}")
    if isinstance(policy, PerClass):
        return policy.per_class
    return policy.total // n_seen      # remainder is discarded, never spread


def herding_select(features: np.ndarray, budget: int) -> list[int]:
    """Greedy mean-matching order over L2-normalized feature rows.

    At pick k the index minimizing ||mu - (sum_selected + f_i) / k|| is taken,
    ties broken by lowest index. Returns the first `budget` picks (all, in
    herding order, when budget >= the candidate count).
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] == 0:
        raise ConfigError(f"herding_select needs a non-empty [n, d] matrix, got {f.shape}")
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    mu = f.mean(axis=0)
    chosen: list[int] = []
    running, taken = np.zeros(f.shape[1]), np.zeros(len(f), dtype=bool)
    cand, d2 = np.empty(f.shape), np.empty(len(f))
    for k in range(1, min(budget, len(f)) + 1):
        # d2 = |(running + f_i) / k - mu|^2 for every row, in place
        np.subtract(np.divide(np.add(running, f, out=cand), k, out=cand), mu, out=cand)
        np.sum(np.square(cand, out=cand), axis=1, out=d2)
        d2[taken] = np.inf
        idx = int(np.argmin(d2))      # first minimum -> lowest index on ties
        chosen.append(idx)
        taken[idx] = True
        running += f[idx]
    return chosen


class ExemplarStore:
    """Per-class exemplar image lists in herding order, under one budget policy."""

    def __init__(self, policy: BudgetPolicy):
        self.policy = policy
        self._images: dict[int, np.ndarray] = {}

    def class_ids(self) -> list[int]:
        return list(self._images)

    def counts(self) -> dict[int, int]:
        return {cid: len(imgs) for cid, imgs in self._images.items()}

    def total_count(self) -> int:
        return sum(len(imgs) for imgs in self._images.values())

    def images(self, class_id: int) -> np.ndarray:
        return self._images[class_id]

    def add_and_trim(self, new_class_exemplars: dict[int, np.ndarray],
                     n_seen: int) -> None:
        """Insert herded lists for new classes, then trim every class's tail."""
        for cid in new_class_exemplars:
            if cid in self._images:
                raise ConfigError(f"class {cid} already stored")
        for cid, imgs in new_class_exemplars.items():
            self._images[cid] = np.asarray(imgs)
        budget = per_class_budget(self.policy, n_seen)
        for cid, imgs in self._images.items():
            if len(imgs) > budget:
                self._images[cid] = imgs[:budget]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored exemplars as (images, labels) in class insertion order."""
        if not self._images:
            raise ConfigError("exemplar store is empty")
        images = np.concatenate(list(self._images.values()), axis=0)
        labels = np.concatenate([np.full(len(imgs), cid, dtype=np.int64)
                                 for cid, imgs in self._images.items()])
        return images, labels


def save_store(store: ExemplarStore, path) -> None:
    """Serialize with the dataset record layout: (label u16, raw u8 pixels)."""
    ids = store.class_ids()
    c, h, w = store.images(ids[0]).shape[1:] if ids else (0, 0, 0)
    policy_kind, amount = ((0, store.policy.per_class)
                           if isinstance(store.policy, PerClass)
                           else (1, store.policy.total))
    chunks = [struct.pack("<BI", policy_kind, amount),
              struct.pack("<HHH", h, w, c),
              struct.pack("<I", len(ids))]
    for cid in ids:
        imgs = store.images(cid)
        chunks.append(struct.pack("<HI", cid, len(imgs)))
        chunks.append(pack_records(np.full(len(imgs), cid), imgs))
    write_file(path, STORE_MAGIC, STORE_VERSION, chunks)


def load_store(path) -> ExemplarStore:
    r = Reader(path, STORE_MAGIC, STORE_VERSION, "store file")
    policy_kind, amount = r.unpack("<BI")
    if policy_kind not in (0, 1):
        raise DataFormatError(f"unknown budget policy kind {policy_kind}")
    policy: BudgetPolicy = PerClass(amount) if policy_kind == 0 else Total(amount)
    h, w, c = r.unpack("<HHH")
    (n_classes,) = r.unpack("<I")
    store = ExemplarStore(policy)
    for _ in range(n_classes):
        cid, count = r.unpack("<HI")
        _, imgs = r.records(count, (c, h, w), lambda y: y == cid)
        if cid in store._images:
            raise DataFormatError(f"class {cid} stored twice")
        store._images[cid] = imgs.copy()
    r.finish()
    return store
