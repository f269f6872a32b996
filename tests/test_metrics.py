"""Metrics oracles: confusion, bias rate, averages, evaluation."""

from __future__ import annotations

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from tinycil.errors import ConfigError, DataFormatError
from tinycil.metrics import (StepReport, average_incremental_accuracy,
                             confusion_matrix, evaluate, old_to_new_bias_rate,
                             read_reports_jsonl, write_reports_jsonl,
                             write_summary_csv)
from tinycil.model import ModelSpec, init_model
from tinycil.rng import SplitMix64


# --- confusion matrix ------------------------------------------------------------

def test_confusion_perfect_is_diagonal():
    y = np.array([0, 1, 2, 1, 0])
    cm = confusion_matrix(y, y, 3)
    np.testing.assert_array_equal(cm, np.diag([2, 2, 1]))


def test_confusion_counts_sum_to_samples():
    rng = np.random.default_rng(0)
    t = rng.integers(0, 4, 50)
    p = rng.integers(0, 4, 50)
    assert confusion_matrix(t, p, 4).sum() == 50


def test_confusion_hand_built():
    true_l = [0, 0, 1, 1, 2, 2, 2]
    pred_l = [0, 1, 1, 1, 0, 2, 1]
    cm = confusion_matrix(true_l, pred_l, 3)
    np.testing.assert_array_equal(cm, [[1, 1, 0], [0, 2, 0], [1, 1, 1]])


def test_confusion_rejects_out_of_range():
    with pytest.raises(ConfigError, match="out of range"):
        confusion_matrix([0, 3], [0, 1], 3)


# --- bias rate ---------------------------------------------------------------------

def test_bias_rate_no_old_classes():
    cm = np.array([[5, 0], [0, 5]])
    assert old_to_new_bias_rate(cm, 0) == 0.0


def test_bias_rate_all_old_predicted_old():
    cm = np.array([[4, 1, 0], [2, 3, 0], [0, 0, 5]])
    assert old_to_new_bias_rate(cm, 2) == 0.0


def test_bias_rate_twenty_percent():
    # 100 old samples, 20 land in new columns
    cm = np.zeros((4, 4), dtype=int)
    cm[0, 0] = 40
    cm[1, 1] = 40
    cm[0, 2] = 12
    cm[1, 3] = 8
    cm[2, 2] = cm[3, 3] = 30
    assert old_to_new_bias_rate(cm, 2) == pytest.approx(0.20)


def test_bias_rate_with_one_old_class():
    cm = np.array([[2, 1, 1], [0, 3, 0], [0, 0, 3]])
    assert old_to_new_bias_rate(cm, 1) == 0.5


def test_bias_rate_old_classes_without_test_samples_is_zero():
    cm = np.array([[0, 0, 0], [0, 0, 0], [0, 0, 3]])
    assert old_to_new_bias_rate(cm, 2) == 0.0


def test_bias_rate_zero_iff_upper_right_block_empty():
    rng = np.random.default_rng(1)
    for _ in range(20):
        cm = rng.integers(0, 9, (5, 5))
        rate = old_to_new_bias_rate(cm, 3)
        assert 0.0 <= rate <= 1.0
        assert (rate == 0.0) == (cm[:3, 3:].sum() == 0 or cm[:3].sum() == 0)


# --- averages ----------------------------------------------------------------------

def test_average_single_step():
    assert average_incremental_accuracy([0.83]) == pytest.approx(0.83)


def test_average_simple():
    assert average_incremental_accuracy([0.8, 0.7, 0.6]) == pytest.approx(0.7)


def test_average_excluding_initial():
    assert average_incremental_accuracy([0.9, 0.7, 0.5][1:]) == pytest.approx(0.6)


def test_average_empty_rejected():
    with pytest.raises(ConfigError):
        average_incremental_accuracy([])
    with pytest.raises(ConfigError):
        average_incremental_accuracy([0.5][1:])


def test_average_is_order_insensitive():
    a = average_incremental_accuracy([0.1, 0.5, 0.9])
    b = average_incremental_accuracy([0.9, 0.1, 0.5])
    assert a == b


# --- evaluate ----------------------------------------------------------------------

def _random_model(num_classes=6, seed=3):
    spec = ModelSpec(image_size=8, patch_size=4, embed_dim=16, num_blocks=1,
                     num_heads=2, mlp_ratio=2.0, num_classes=num_classes)
    return init_model(spec, SplitMix64(seed)), spec


def test_evaluate_deterministic():
    state, spec = _random_model()
    rng = np.random.default_rng(4)
    images = rng.integers(0, 256, (30, 3, 8, 8)).astype(np.uint8)
    labels = rng.integers(0, 6, 30)
    a = evaluate(state, images, labels, 6)
    b = evaluate(state, images, labels, 6)
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])


def test_evaluate_accuracy_equals_diagonal_fraction():
    state, spec = _random_model()
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, (40, 3, 8, 8)).astype(np.uint8)
    labels = rng.integers(0, 6, 40)
    top1, cm = evaluate(state, images, labels, 6)
    assert top1 == pytest.approx(np.trace(cm) / cm.sum())


def test_evaluate_random_model_near_chance():
    # K balanced classes, random weights: accuracy within 3 sigma of 1/K
    state, spec = _random_model(num_classes=4, seed=6)
    rng = np.random.default_rng(7)
    n_per = 75
    images = rng.integers(0, 256, (4 * n_per, 3, 8, 8)).astype(np.uint8)
    labels = np.repeat(np.arange(4), n_per)
    top1, _ = evaluate(state, images, labels, 4)
    p = 1 / 4
    sigma = np.sqrt(p * (1 - p) / (4 * n_per))
    assert abs(top1 - p) <= 3 * sigma


def test_evaluate_takes_only_uint8_images():
    # float pixels would be scaled by 1/255 a second time without a word
    state, spec = _random_model()
    images = np.random.default_rng(4).uniform(0, 1, (4, 3, 8, 8))
    with pytest.raises(TypeError, match="uint8"):
        evaluate(state, images, np.zeros(4, dtype=np.int64), 6)


def test_evaluate_restricts_argmax_to_seen_classes():
    state, spec = _random_model(num_classes=6, seed=8)
    rng = np.random.default_rng(9)
    images = rng.integers(0, 256, (20, 3, 8, 8)).astype(np.uint8)
    labels = rng.integers(0, 3, 20)
    top1, cm = evaluate(state, images, labels, 3)
    assert cm.shape == (3, 3)          # predictions never leave the range


def test_evaluate_on_an_empty_test_set():
    state, spec = _random_model()
    top1, cm = evaluate(state, np.zeros((0, 3, 8, 8), dtype=np.uint8),
                        np.zeros(0, dtype=np.int64), 6)
    assert top1 == 0.0
    np.testing.assert_array_equal(cm, np.zeros((6, 6)))


# --- report files ---------------------------------------------------------------------

def _reports():
    return [
        StepReport(step=1, n_classes=2, top1=0.9, confusion=np.eye(2, dtype=np.int64),
                   bias_rate=0.0, eta=10.0, loss_trace=[1.0, 0.5],
                   eta_trace=[10.0, 10.1], wall_clock=1.25),
        StepReport(step=2, n_classes=4, top1=0.7,
                   confusion=np.ones((4, 4), dtype=np.int64), bias_rate=0.25,
                   eta=10.5, loss_trace=[0.9], eta_trace=[10.5],
                   finetune_loss_trace=[0.4], first_distill=1e-12,
                   wall_clock=2.5),
    ]


def test_jsonl_roundtrip(tmp_path):
    path = tmp_path / "steps.jsonl"
    write_reports_jsonl(_reports(), path)
    loaded = read_reports_jsonl(path)
    assert len(loaded) == 2
    assert loaded[1].bias_rate == 0.25
    np.testing.assert_array_equal(loaded[0].confusion, np.eye(2, dtype=np.int64))


_LINE = _reports()[1].to_json_dict()


@pytest.mark.parametrize("field,value", [
    ("top1", "abc"),
    ("step", True),
    ("step", 1.0),
    ("n_classes", "4"),
    ("bias_rate", None),
    pytest.param("eta", [10.5], id="eta-list"),
    ("wall_clock", False),
    ("first_distill", "1e-12"),
    ("loss_trace", 0.9),
    pytest.param("eta_trace", [10.5, "x"], id="eta_trace-str-item"),
    pytest.param("finetune_loss_trace", [True], id="finetune_loss_trace-bool-item"),
    pytest.param("confusion", np.ones((4, 4)).tolist(), id="confusion-floats"),
    pytest.param("confusion", np.ones((4, 3), dtype=int).tolist(), id="confusion-4x3"),
    pytest.param("confusion", np.ones((3, 4), dtype=int).tolist(), id="confusion-3x4"),
    pytest.param("confusion", [[1, 1, 1, 1]] * 3 + [[1, 1, 1]], id="confusion-ragged"),
    pytest.param("confusion", [1, 1, 1, 1], id="confusion-vector"),
])
def test_jsonl_reader_names_the_file_line_and_field_of_a_bad_value(tmp_path, field,
                                                                    value):
    path = tmp_path / "steps.jsonl"
    write_reports_jsonl(_reports(), path)
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**_LINE, field: value})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as exc:
        read_reports_jsonl(path)
    assert str(exc.value).startswith(f"{path}, line 2: field {field!r} must be")


@pytest.mark.parametrize("text,message", [
    ("{not json", "line 2: Expecting property name"),
    (b"\xff\xfe\xfd", "line 2: "),
    ("[1, 2]", "line 2: a step report must be a JSON object"),
    (json.dumps({**_LINE, "extra": 1}), "line 2: a step report must be a JSON object "
     "with the fields step, n_classes, top1, confusion, "),
    (json.dumps({k: v for k, v in _LINE.items() if k != "step"}),
     "line 2: a step report must be a JSON object with the fields step, "),
], ids=["not-json", "not-utf8", "not-an-object", "unknown-field", "missing-field"])
def test_jsonl_reader_rejects_a_line_that_is_no_report(tmp_path, text, message):
    path = tmp_path / "steps.jsonl"
    path.write_bytes(json.dumps(_reports()[0].to_json_dict()).encode() + b"\n"
                     + (text if isinstance(text, bytes) else text.encode()) + b"\n")
    with pytest.raises(DataFormatError, match=message):
        read_reports_jsonl(path)


def test_jsonl_reader_accepts_ints_as_numbers_and_null_first_distill(tmp_path):
    path = tmp_path / "steps.jsonl"
    path.write_text(json.dumps({**_LINE, "top1": 1, "eta": 10, "loss_trace": [1, 0.5],
                                "first_distill": None}) + "\n\n")
    (report,) = read_reports_jsonl(path)
    assert (report.top1, report.eta, report.first_distill) == (1, 10, None)
    assert report.confusion.dtype == np.int64


def test_summary_csv_running_average(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(_reports(), path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert float(rows[0]["avg_inc_acc_so_far"]) == pytest.approx(0.9)
    assert float(rows[1]["avg_inc_acc_so_far"]) == pytest.approx(0.8)
    assert rows[1]["n_classes"] == "4"


def test_summary_csv_writes_each_float_as_its_repr(tmp_path):
    write_summary_csv(_reports(), tmp_path / "a.csv")
    with open(tmp_path / "a.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[2][:5] == ["2", "4", "0.7", "0.25", "10.5"]
    # numpy scalars write the same cells as Python floats
    as_numpy = [replace(r, top1=np.float64(r.top1), eta=np.float64(r.eta))
                for r in _reports()]
    write_summary_csv(as_numpy, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_summary_csv_bytes_deterministic(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_summary_csv(_reports(), p1)
    write_summary_csv(_reports(), p2)
    assert p1.read_bytes() == p2.read_bytes()
