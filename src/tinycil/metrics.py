"""Evaluation and forgetting diagnostics.

StepReports collect what the engine measures after each incremental step:
top-1 accuracy over all seen classes, the confusion matrix, the fraction of
old-class test samples predicted into new classes (the upper-right confusion
block), the learned temperature, and the loss traces. Reports serialize to
JSON-lines plus a summary CSV whose bytes are reproducible from the seeds.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .binio import atomic_open
from .errors import ConfigError, DataFormatError
from .model import ModelState, cosine_logits, embed
from .tensor import Tensor

SUMMARY_COLUMNS = ["step", "n_classes", "top1", "bias_rate", "eta",
                   "avg_inc_acc_so_far"]


@dataclass
class StepReport:
    step: int
    n_classes: int
    top1: float
    confusion: np.ndarray
    bias_rate: float
    eta: float
    loss_trace: list[float] = field(default_factory=list)
    eta_trace: list[float] = field(default_factory=list)
    finetune_loss_trace: list[float] = field(default_factory=list)
    first_distill: float | None = None
    wall_clock: float = 0.0

    def to_json_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["confusion"] = self.confusion.tolist()
        return d

    @classmethod
    def from_json_dict(cls, d) -> "StepReport":
        """The report whose `to_json_dict` is d. DataFormatError names the first
        field, in declaration order, whose value is not of the JSON type
        `_REPORT_TYPES` gives its annotation."""
        types = {f.name: _REPORT_TYPES[f.type] for f in fields(cls)}
        if not isinstance(d, dict) or set(d) != set(types):
            raise DataFormatError("a step report must be a JSON object with the "
                                  f"fields {', '.join(types)}")
        for name, t in types.items():
            if not _is_json(d[name], t, d["n_classes"]):
                raise DataFormatError(f"field {name!r} must be {t}")
        return cls(**{**d, "confusion": np.asarray(d["confusion"], dtype=np.int64)})


# The JSON type of each annotation of a `StepReport` field: "[t]" is a list of
# t, and "n x n" a list of n lists of n, n being the report's n_classes.
_REPORT_TYPES = {"int": "int", "float": "number", "np.ndarray": "n x n [[int]]",
                 "list[float]": "[number]", "float | None": "number or null"}


def _is_json(v, t: str, n) -> bool:
    """Whether the JSON value v is of the type t of `_REPORT_TYPES` in a report
    of n classes. A bool is no number."""
    if t.startswith("n x n "):
        return _is_json(v, t[6:], n) and len(v) == n and all(len(row) == n for row in v)
    if t.startswith("["):
        return isinstance(v, list) and all(_is_json(x, t[1:-1], n) for x in v)
    if v is None:
        return t == "number or null"
    return not isinstance(v, bool) and isinstance(v, int if t == "int" else (int, float))


def confusion_matrix(true_labels, predicted_labels, n_classes: int) -> np.ndarray:
    """counts[i, j] = #{true == i, predicted == j}."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape:
        raise ConfigError(f"label arrays differ in shape: {t.shape} vs {p.shape}")
    for name, arr in (("true", t), ("predicted", p)):
        if len(arr) and (arr.min() < 0 or arr.max() >= n_classes):
            raise ConfigError(
                f"{name} label out of range [0, {n_classes}): "
                f"{int(arr.min())}..{int(arr.max())}")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def old_to_new_bias_rate(cm: np.ndarray, n_old: int) -> float:
    """Fraction of old-class test samples predicted as any new class."""
    if not 0 <= n_old <= cm.shape[0]:
        raise ConfigError(f"n_old {n_old} outside [0, {cm.shape[0]}]")
    if n_old == 0:
        return 0.0
    old_total = cm[:n_old].sum()
    if old_total == 0:
        return 0.0
    return float(cm[:n_old, n_old:].sum() / old_total)


def average_incremental_accuracy(step_accuracies) -> float:
    accs = list(step_accuracies)
    if not accs:
        raise ConfigError("no step accuracies to average")
    return float(np.mean(accs))


def evaluate(state: ModelState, images: np.ndarray, labels: np.ndarray,
             n_classes: int) -> tuple[float, np.ndarray]:
    """Deterministic eval-mode top-1 and confusion of uint8 images over the
    first n_classes."""
    if state.spec.num_classes < n_classes:
        raise ConfigError(
            f"model has {state.spec.num_classes} classes, asked for {n_classes}")
    probs = cosine_logits(state, Tensor(embed(state, images, np.arange(len(images))))).data
    cm = confusion_matrix(labels, probs[:, :n_classes].argmax(axis=1), n_classes)
    top1 = float(np.trace(cm) / cm.sum()) if cm.sum() else 0.0
    return top1, cm


# ---------------------------------------------------------------------------
# report files

def write_reports_jsonl(reports: list[StepReport], path) -> None:
    with atomic_open(path) as f:
        for r in reports:
            f.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")


def read_reports_jsonl(path) -> list[StepReport]:
    """Every report of a steps.jsonl file; DataFormatError names a bad line."""
    out = []
    with open(path, "rb") as f:             # json.loads decodes inside the try
        for i, line in enumerate(f, 1):
            if line.strip():
                try:
                    out.append(StepReport.from_json_dict(json.loads(line)))
                except ValueError as exc:       # not JSON, or not a report
                    raise DataFormatError(f"{path}, line {i}: {exc}") from None
    return out


def write_csv(path, rows) -> None:
    """Rows as CSV, a float as its repr; a cell with a comma or quote is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    with atomic_open(path) as f:
        f.write(buf.getvalue())


def write_summary_csv(reports: list[StepReport], path) -> None:
    """One row per step; the running average includes the initial step."""
    rows = [SUMMARY_COLUMNS]
    accs: list[float] = []
    for r in reports:
        accs.append(r.top1)
        avg = average_incremental_accuracy(accs)
        rows.append([r.step, r.n_classes, r.top1, r.bias_rate, r.eta, avg])
    write_csv(path, rows)
