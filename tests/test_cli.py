"""CLI contracts: config validation, run artifacts, compare, ablate, gen-data."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import xml.dom.minidom
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tinycil.cli import _build_dataset, main
from tinycil.config import (DEFAULTS, build_model_spec, build_protocol_config,
                            build_train_settings, load_config, materialize,
                            resolve_epochs_step)
from tinycil.data import (LabeledDataset, generate_synthetic, load_dataset,
                          save_dataset)
from tinycil.engine import TrainSettings, check_protocol_fits_data, run_step
from tinycil.errors import ConfigError
from tinycil.memory import ExemplarStore, load_store, save_store
from tinycil.metrics import StepReport, write_summary_csv
from tinycil.model import init_model, load_checkpoint, save_checkpoint
from tinycil.rng import SplitMix64

ROOT = Path(__file__).resolve().parents[1]

TINY_CONFIG = """
[protocol]
total_classes = 4
initial_classes = 2
increment = 2
budget = per_class:4
epochs_initial = 2
epochs_step = 1

[data]
classes = 4
per_class_train = 8
per_class_test = 4
image_size = 8
seed = 3

[model]
stem = patchify
patch_size = 4
stem_depth = 2
stem_channels = 8,16
embed_dim = 16
num_blocks = 1
num_heads = 2
mlp_ratio = 2.0

[train]
batch_size = 8
epochs_finetune = 1
warmup_epochs = 0

[run]
seed = 5
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG)
    return path


# --- config parsing -----------------------------------------------------------

def test_materialize_fills_all_defaults(config_path):
    resolved = materialize(load_config(config_path))
    for section, keys in DEFAULTS.items():
        assert section in resolved
        assert set(resolved[section]) == set(keys)
    assert resolved["train"]["weight_decay"] == 0.24
    assert resolved["run"]["seed"] == 5


def test_defaults_are_the_dataclass_defaults():
    assert build_train_settings(materialize({})) == TrainSettings()


# keys of fixed recipe values that are now module constants
RETIRED_KEYS = [("train", "min_lr"), ("train", "lambda_base"),
                ("train", "finetune_lr_scale"), ("train", "grad_clip"),
                ("augment", "margin"), ("augment", "margin_top_k"),
                ("augment", "mix_prob"), ("augment", "mixup_alpha"),
                ("augment", "cutmix_alpha")]


@pytest.mark.parametrize("section,key", [("train", "learning_rate"),
                                         *RETIRED_KEYS])
def test_unknown_key_rejected_with_path(tmp_path, capsys, section, key):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = 1\n")
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        materialize(load_config(path))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": {section: {key: 1}}}))
    out = tmp_path / "o"
    for config in (path, manifest):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"unknown config key {section}.{key}" in err
        assert not out.exists()


def test_example_config_names_only_default_keys():
    raw = load_config(ROOT / "configs" / "example.ini")
    for section, keys in raw.items():
        assert section in DEFAULTS
        assert set(keys) <= set(DEFAULTS[section]), section
    materialize(raw)


def test_margin_mixup_conflict_names_keys(tmp_path):
    path = tmp_path / "conflict.ini"
    path.write_text("[augment]\nmargin_ranking = on\nmixup = on\n")
    with pytest.raises(ConfigError, match="margin_ranking"):
        materialize(load_config(path))


def test_protocol_divisibility_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[protocol]\ntotal_classes = 10\ninitial_classes = 5\n"
                    "increment = 4\n")
    with pytest.raises(ConfigError, match="divisible"):
        materialize(load_config(path))


def test_epoch_preset_rule():
    half = {"protocol": {"total_classes": 10, "initial_classes": 5,
                         "increment": 5}}
    resolved = materialize(half)
    assert resolve_epochs_step(resolved) == 5       # half_start preset
    cold = {"protocol": {"total_classes": 20, "initial_classes": 5,
                         "increment": 5}}
    assert resolve_epochs_step(materialize(cold)) == 20
    wrong = {"protocol": {"total_classes": 20, "initial_classes": 5,
                          "increment": 5, "epoch_preset": "half_start"}}
    with pytest.raises(ConfigError, match="half_start"):
        materialize(wrong)


def test_cli_rejects_invalid_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[augment]\nmargin_ranking = on\ncutmix = on\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "margin_ranking" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("model", "stem_channels", "16,a"),
    ("protocol", "epochs_step", "x"),
])
def test_unparsable_value_exit_2_names_key(tmp_path, capsys, section, key,
                                           value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name,text", [
    ("no_section.ini", "total_classes = 3\n"),
    ("broken.json", '{"config": \n'),
    ("no_config.json", '{"config": [1, 2]}\n'),
    ("missing.ini", None),
    ("data.cild", b"CILD\x01\x00\x80\xff\xfe\x00"),
])
def test_malformed_config_file_exit_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("run_section", ["", "[run]\nout = {out}\n"])
def test_default_section_exit_2(tmp_path, monkeypatch, capsys, run_section):
    # configparser used to copy [DEFAULT] keys into every section: alone, the
    # seed was dropped; beside [run], it set run.seed
    monkeypatch.setenv("TINYCIL_OUT_ROOT", str(tmp_path / "default"))
    cfg = tmp_path / "default.ini"
    cfg.write_text("[DEFAULT]\nseed = 3\n\n"
                   + run_section.format(out=tmp_path / "o"))
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        materialize(load_config(cfg))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown config section [DEFAULT]\n"
    assert [p.name for p in tmp_path.iterdir()] == ["default.ini"]


@pytest.mark.parametrize("section,key,value", [
    ("train", "batch_size", 1.5),
    ("train", "batch_size", True),
    ("protocol", "budget", 5),
    ("train", "weight_decay", None),
    ("augment", "hflip", 2),
])
def test_manifest_value_of_wrong_type_exit_2(tmp_path, capsys, section, key,
                                              value):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config": {section: {key: value}}}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_section_not_a_table_rejected():
    with pytest.raises(ConfigError, match=r"\[train\]"):
        materialize({"train": 5})


def test_manifest_int_for_float_key_is_a_float():
    value = materialize({"train": {"weight_decay": 0}})["train"]["weight_decay"]
    assert value == 0.0 and type(value) is float


def test_missing_data_file_exit_2(tmp_path, capsys):
    path = tmp_path / "file.ini"
    path.write_text(f"[data]\nsource = file\npath = {tmp_path / 'gone.cild'}\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "gone.cild" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section,key,value,match", [
    ("protocol", "epochs_initial", "0", "epochs_initial"),
    ("protocol", "epochs_step", "0", "epochs_step"),
    ("train", "epochs_finetune", "0", "epochs_finetune"),
    ("protocol", "budget", "per_class:0", "budget"),
    ("protocol", "budget", "total:5", "budget"),
    ("protocol", "budget", "total:-1", "budget"),
    ("model", "num_blocks", "-1", "num_blocks"),
    ("augment", "label_smoothing", "2", "label_smoothing"),
    ("train", "backbone_lr", "nan", "backbone_lr"),
    ("train", "classifier_lr_multiplier", "nan", "classifier_lr_multiplier"),
    ("train", "eta_init", "nan", "eta_init"),
    ("train", "eta_init", "0", "eta_init"),
    ("train", "backbone_lr", "-1", "backbone_lr"),
    ("train", "classifier_lr_multiplier", "-1", "classifier_lr_multiplier"),
    ("train", "weight_decay", "-1", "weight_decay"),
    ("train", "warmup_epochs", "-1", "warmup_epochs"),
    ("model", "mlp_ratio", "0.01", "mlp_ratio"),
    ("data", "difficulty", "nan", "data.difficulty"),
    ("data", "difficulty", "-5", "data.difficulty"),
    ("data", "classes", "70000", "data.classes"),
    ("data", "image_size", "65536", "data.image_size"),
    ("data", "channels", "70000", "data.channels"),
    ("train", "batch_size", "abc", "train.batch_size"),
    ("protocol", "budget", "total", "protocol.budget"),
    ("protocol", "budget", "ring:5", "protocol.budget"),
    ("protocol", "epoch_preset", "fast", "protocol.epoch_preset"),
    ("protocol", "epoch_preset", "cold_start", "protocol.epoch_preset"),
    ("data", "source", "web", "data.source"),
    ("data", "source", "file", "data.path"),
    ("model", "stem", "resnet", "model.stem"),
])
def test_out_of_range_values_rejected(section, key, value, match):
    raw = {"protocol": {"total_classes": "10", "initial_classes": "5",
                        "increment": "5"},
           "train": {"balanced_finetune": "on"}}
    raw.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=match):
        materialize(raw)


@pytest.mark.parametrize("key,value", [
    ("classes", 70000), ("image_size", 65536), ("channels", 70000),
    ("classes", 0), ("per_class_train", 0), ("per_class_test", 0),
    ("difficulty", float("nan")), ("difficulty", -5.0)])
def test_config_and_generator_reject_synthetic_data_in_the_same_words(key, value):
    d = dict(DEFAULTS["data"], **{key: value})
    with pytest.raises(ConfigError) as from_config:
        materialize({"data": {key: str(value)}})
    with pytest.raises(ConfigError) as from_data:
        generate_synthetic(d["classes"], d["per_class_train"], d["per_class_test"],
                           image_size=d["image_size"], channels=d["channels"],
                           difficulty=d["difficulty"], seed=7)
    assert str(from_data.value).startswith(f"{key}: ")
    assert str(from_config.value) == f"data.{from_data.value}"


def test_nan_difficulty_exit_2_before_training(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text("[data]\ndifficulty = nan\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "data.difficulty" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_classes_above_u16_exit_2_before_training(tmp_path, capsys):
    # labels are stored as u16: 70000 classes used to train step 1 and then
    # fail writing the exemplar store
    path = tmp_path / "wide.ini"
    path.write_text("[data]\nclasses = 70000\nper_class_train = 1\n"
                    "per_class_test = 1\nimage_size = 4\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "data.classes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section,key,value", [
    # used to create the run directory, then fail in stage 1: a negative
    # warmup with a message about total_epochs, a zero-width MLP with a raw
    # traceback from the first backward
    ("train", "warmup_epochs", "-1"),
    ("model", "mlp_ratio", "0.01"),
])
def test_value_that_failed_in_training_exit_2_before_it(tmp_path, capsys,
                                                        section, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_finetune_epochs_unchecked_when_finetune_off():
    materialize({"train": {"balanced_finetune": "off", "epochs_finetune": "0"}})


# --- run ------------------------------------------------------------------------

def test_run_writes_all_artifacts(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"]["run"] == 5
    assert manifest["config"]["train"]["weight_decay"] == 0.24
    assert "finished" in manifest
    assert (out / "summary.csv").exists()
    jsonl = (out / "steps.jsonl").read_text().strip().splitlines()
    assert len(jsonl) == 2                      # 2-step protocol
    ckpts = sorted((out / "checkpoints").iterdir())
    assert [p.name for p in ckpts] == ["step_01.cilm", "step_02.cilm"]
    state = load_checkpoint(ckpts[-1])
    assert state.spec.num_classes == 4
    store = load_store(out / "exemplars_02.cilx")
    assert store.total_count() == 4 * 4


def test_run_seed_override(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--seed", "9"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"]["run"] == 9


def test_rerun_from_manifest_is_byte_identical(config_path, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert (out1 / "steps.jsonl").exists()


@pytest.mark.parametrize("command,artifact", [
    (["run"], "summary.csv"),
    (["ablate", "--axis", "bias_correction"], "ablation.csv"),
])
def test_run_out_in_config_is_the_output_directory(tmp_path, monkeypatch,
                                                   command, artifact):
    monkeypatch.setenv("TINYCIL_OUT_ROOT", str(tmp_path / "default"))
    out = tmp_path / "from_config"
    cfg = tmp_path / "out.ini"
    cfg.write_text(TINY_CONFIG.replace("[run]\n", f"[run]\nout = {out}\n"))
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 0
    assert (out / artifact).exists()
    assert not (tmp_path / "default").exists()
    if command[0] == "ablate":
        # a rerun from an arm's manifest must not write into the ablation root
        arm = json.loads((out / "on" / "manifest.json").read_text())
        assert arm["config"]["run"]["out"] == ""


@pytest.mark.parametrize("command,artifact", [
    (["run"], "summary.csv"),
    (["ablate", "--axis", "bias_correction"], "ablate-bias_correction/ablation.csv"),
])
def test_without_out_a_run_writes_under_the_out_root(tmp_path, monkeypatch,
                                                     config_path, command, artifact):
    root = tmp_path / "root"
    monkeypatch.setenv("TINYCIL_OUT_ROOT", str(root))
    assert main([command[0], "--config", str(config_path), *command[1:]]) == 0
    (run_dir,) = root.iterdir()
    assert re.fullmatch(r"tiny-s5-\d{8}-\d{6}", run_dir.name)
    assert (run_dir / artifact).exists()


def test_rerun_from_manifest_writes_to_run_out_unless_out_given(tmp_path,
                                                                monkeypatch):
    monkeypatch.setenv("TINYCIL_OUT_ROOT", str(tmp_path / "default"))
    out = tmp_path / "from_config"
    cfg = tmp_path / "out.ini"
    cfg.write_text(TINY_CONFIG.replace("[run]\n", f"[run]\nout = {out}\n"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    manifest = tmp_path / "a" / "manifest.json"
    assert json.loads(manifest.read_text())["config"]["run"]["out"] == str(out)
    assert not out.exists()
    assert main(["run", "--config", str(manifest)]) == 0
    assert ((out / "summary.csv").read_bytes()
            == (tmp_path / "a" / "summary.csv").read_bytes())
    assert not (tmp_path / "default").exists()


def test_percent_in_an_ini_value_is_literal(tmp_path, monkeypatch):
    # a `%` used to be read as an interpolation and died with a traceback
    monkeypatch.setenv("TINYCIL_OUT_ROOT", str(tmp_path / "default"))
    out = tmp_path / "100%done"
    cfg = tmp_path / "percent.ini"
    cfg.write_text(TINY_CONFIG.replace("[run]\n", f"[run]\nout = {out}\n"))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (out / "summary.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["config"]["run"][
        "out"] == str(out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["100%done",
                                                          "percent.ini"]
    cfg.write_text("[run]\nout = a%%b\n")
    assert load_config(cfg)["run"]["out"] == "a%%b"


def _python_m_tinycil(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "tinycil", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_python_m_tinycil_runs_the_cli(tmp_path):
    done = _python_m_tinycil("--help")
    assert done.returncode == 0 and "gen-data" in done.stdout
    missing = tmp_path / "missing.ini"
    done = _python_m_tinycil("run", "--config", str(missing), "--out",
                             str(tmp_path / "o"))
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "missing.ini" in done.stderr
    assert not (tmp_path / "o").exists()


def test_run_divergence_preserves_partial_reports(config_path, tmp_path,
                                                  monkeypatch, capsys):
    import tinycil.engine as engine
    # poison the distillation weight: step 1 is clean (lambda unused), the
    # first batch of step 2 produces a non-finite loss
    monkeypatch.setattr(engine, "adaptive_lambda",
                        lambda base, n_old, n_new: float("inf") if n_old else 0.0)
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == 1
    assert "diverged" in capsys.readouterr().err
    lines = (out / "steps.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1                      # step 1 report survived
    assert (out / "summary.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "finished" in manifest


def test_manifest_outputs_name_every_file_a_run_writes(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    named = {name.replace("XX", f"{t:02d}") for name in outputs.values()
             for t in (1, 2)}
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == named | {"manifest.json"}


@pytest.mark.parametrize("writer", ["save_checkpoint", "save_store",
                                    "write_summary_csv", "write_reports_jsonl"])
def test_a_writer_failing_at_step_2_leaves_only_whole_steps(
        config_path, tmp_path, monkeypatch, capsys, writer):
    import tinycil.cli as cli
    real, calls = getattr(cli, writer), []

    def fail_on_second_call(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError(f"{writer} failed")
        real(*args)

    monkeypatch.setattr(cli, writer, fail_on_second_call)
    out = tmp_path / "out"
    # step 1 trained and was committed: exit 1, like a divergence
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{writer} failed" in err and "steps.jsonl commits step 1" in err
    committed = [json.loads(line) for line in
                 (out / "steps.jsonl").read_text().splitlines()]
    assert [r["step"] for r in committed] == [1]
    with open(out / "summary.csv", newline="") as f:
        summary = list(csv.DictReader(f))
    for r in committed + summary:
        step, n_classes = int(r["step"]), int(r["n_classes"])
        state = load_checkpoint(out / "checkpoints" / f"step_{step:02d}.cilm")
        store = load_store(out / f"exemplars_{step:02d}.cilx")
        assert state.spec.num_classes == n_classes
        assert len(store.class_ids()) == n_classes
    # summary.csv is written before steps.jsonl, so it can hold one
    # uncommitted step more; compare lists the committed steps alone
    assert len(summary) == (2 if writer == "write_reports_jsonl" else 1)
    assert main(["compare", str(out), "--out", str(tmp_path / "cmp")]) == 0
    with open(tmp_path / "cmp" / "compare.csv", newline="") as f:
        assert [row[0] for row in list(csv.reader(f))[1:]] == ["1"]


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def test_a_run_into_a_non_empty_directory_exits_2_and_writes_nothing(
        config_path, tmp_path, capsys):
    # a 3-step run, then a 2-step run into the same directory: the second
    # would leave step_03's files beside a 2-line steps.jsonl
    cfg = tmp_path / "three_steps.ini"
    cfg.write_text(TINY_CONFIG.replace("total_classes = 4", "total_classes = 6")
                   .replace("[data]\nclasses = 4", "[data]\nclasses = 6"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = _files(out)
    assert "exemplars_03.cilx" in first
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not empty" in err
    assert _files(out) == first
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["run", "--config", str(config_path), "--out", str(empty)]) == 0
    assert (empty / "steps.jsonl").exists()


def test_steps_run_from_the_previous_steps_files_reproduce_the_run(tmp_path):
    # what a step hands to the next is its checkpoint and its exemplar store;
    # three steps, so step 3 starts from a step that itself started from
    # files, and the conv stem, so the checkpoints carry batch-norm buffers
    cfg = tmp_path / "three_steps.ini"
    cfg.write_text(TINY_CONFIG.replace("total_classes = 4", "total_classes = 6")
                   .replace("[data]\nclasses = 4", "[data]\nclasses = 6")
                   .replace("stem = patchify", "stem = conv"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    resolved = materialize(load_config(cfg))
    assert resolved["protocol"]["total_classes"] == resolved["data"]["classes"] == 6
    assert resolved["model"]["stem"] == "conv"
    protocol = build_protocol_config(resolved)
    settings = build_train_settings(resolved)
    dataset = _build_dataset(resolved)
    spec = build_model_spec(resolved, image_size=8, channels=3)
    plan = check_protocol_fits_data(protocol, dataset, settings)
    label_map = np.full(dataset.num_classes, -1, dtype=np.int64)
    label_map[plan.class_order] = np.arange(len(plan.class_order))
    root = SplitMix64(resolved["run"]["seed"])
    state = init_model(replace(spec, num_classes=protocol.initial_classes),
                       root.child("model"), eta_init=settings.eta_init)
    store = ExemplarStore(protocol.budget)
    reports = []
    for t in range(1, len(plan.steps) + 1):
        if t > 1:
            state = load_checkpoint(out / "checkpoints" / f"step_{t - 1:02d}.cilm")
            store = load_store(out / f"exemplars_{t - 1:02d}.cilx")
        state, report = run_step(t, plan, protocol, dataset, settings, label_map,
                                 root, state, store)
        reports.append(report)
        save_checkpoint(state, tmp_path / "step.cilm")
        save_store(store, tmp_path / "step.cilx")
        assert ((tmp_path / "step.cilm").read_bytes() ==
                (out / "checkpoints" / f"step_{t:02d}.cilm").read_bytes())
        assert ((tmp_path / "step.cilx").read_bytes() ==
                (out / f"exemplars_{t:02d}.cilx").read_bytes())
    write_summary_csv(reports, tmp_path / "summary.csv")
    assert ((tmp_path / "summary.csv").read_bytes() ==
            (out / "summary.csv").read_bytes())


def test_run_on_file_dataset(tmp_path):
    data_path = tmp_path / "toy.cild"
    assert main(["gen-data", "--classes", "4", "--per-class", "8",
                 "--per-class-test", "4", "--image-size", "8",
                 "--seed", "3", "--out", str(data_path)]) == 0
    cfg = tmp_path / "file.ini"
    cfg.write_text(TINY_CONFIG.replace(
        "[data]\nclasses = 4\nper_class_train = 8\nper_class_test = 4\n"
        "image_size = 8\nseed = 3",
        f"[data]\nsource = file\npath = {data_path}"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0


def _file_config(tmp_path, ds):
    """TINY_CONFIG reading `ds` from a CILD file."""
    save_dataset(ds, tmp_path / "toy.cild")
    cfg = tmp_path / "file.ini"
    cfg.write_text(TINY_CONFIG.replace(
        "[data]\nclasses = 4\nper_class_train = 8\nper_class_test = 4\n"
        "image_size = 8\nseed = 3",
        f"[data]\nsource = file\npath = {tmp_path / 'toy.cild'}"))
    return cfg


def _file_config_keeping(tmp_path, keep):
    """TINY_CONFIG on a CILD file where class c keeps keep[c] training images;
    the rest of its training images move to the test split."""
    ds = generate_synthetic(4, 8, 4, image_size=8, difficulty=0.5, seed=3)
    moved = np.concatenate([ds.class_indices("train", c)[n:] for c, n in keep.items()])
    return _file_config(tmp_path, LabeledDataset(
        images=ds.images, labels=ds.labels, num_classes=4,
        train_indices=np.setdiff1d(ds.train_indices, moved),
        test_indices=np.union1d(ds.test_indices, moved)))


@pytest.mark.parametrize("ds,match", [
    pytest.param(replace(generate_synthetic(4, 8, 4, image_size=8, difficulty=0.5,
                                            seed=3),
                         images=np.zeros((48, 3, 8, 6), dtype=np.uint8)),
                 "dataset images must be square, got 8x6", id="non-square"),
    pytest.param(generate_synthetic(3, 8, 4, image_size=8, difficulty=0.5, seed=3),
                 "protocol needs 4 classes, dataset has 3", id="too-few-classes"),
])
def test_a_file_dataset_the_run_cannot_use_exit_2_before_writing(tmp_path, capsys,
                                                                 ds, match):
    out = tmp_path / "out"
    assert main(["run", "--config", str(_file_config(tmp_path, ds)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {match}\n"
    assert not out.exists()


@pytest.mark.parametrize("keep,match", [
    # herding used to die in np.concatenate after step 1 had trained
    ({1: 0}, "class 1 has no training image"),
    # the finetune used to refuse unequal counts after step_01.cilm was written
    ({2: 2}, "class 2 has 2 training images under a per-class budget of 4"),
])
def test_data_that_cannot_fill_a_step_exit_2_before_training(tmp_path, capsys,
                                                             keep, match):
    out = tmp_path / "out"
    code = main(["run", "--config", str(_file_config_keeping(tmp_path, keep)),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and match in err
    assert not out.exists()


def test_ablate_on_data_that_cannot_fill_a_step_leaves_no_directory(tmp_path):
    out = tmp_path / "ab"
    assert main(["ablate", "--config", str(_file_config_keeping(tmp_path, {1: 0})),
                 "--axis", "bias_correction", "--out", str(out)]) == 2
    assert not out.exists()


def test_unequal_train_counts_pass_without_balanced_finetune(tmp_path):
    cfg = _file_config_keeping(tmp_path, {2: 2})
    cfg.write_text(cfg.read_text().replace("[train]\n",
                                           "[train]\nbalanced_finetune = off\n"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


# --- gen-data --------------------------------------------------------------------

def test_gen_data_roundtrip(tmp_path):
    out = tmp_path / "d.cild"
    assert main(["gen-data", "--classes", "3", "--per-class", "5",
                 "--per-class-test", "2", "--image-size", "8",
                 "--difficulty", "0.7", "--seed", "11", "--out", str(out)]) == 0
    ds = load_dataset(out)
    assert ds.num_classes == 3
    assert len(ds.labels) == 21


def test_gen_data_defaults_are_the_config_defaults(tmp_path):
    out = tmp_path / "d.cild"
    assert main(["gen-data", "--classes", "10", "--per-class", "64",
                 "--out", str(out)]) == 0
    save_dataset(_build_dataset(materialize({})), tmp_path / "config.cild")
    assert out.read_bytes() == (tmp_path / "config.cild").read_bytes()


def test_gen_data_classes_above_u16_exit_2(tmp_path, capsys):
    out = tmp_path / "x.cild"
    assert main(["gen-data", "--classes", "70000", "--per-class", "1",
                 "--per-class-test", "1", "--image-size", "1", "--channels", "1",
                 "--out", str(out)]) == 2
    assert "classes" in capsys.readouterr().err
    assert not out.exists()


# --- compare ---------------------------------------------------------------------

def test_compare_run_with_itself(config_path, tmp_path):
    out = tmp_path / "run"
    main(["run", "--config", str(config_path), "--out", str(out)])
    cmp_dir = tmp_path / "cmp"
    assert main(["compare", str(out), str(out), "--out", str(cmp_dir)]) == 0
    table = (cmp_dir / "compare.csv").read_text().splitlines()
    header = table[0].split(",")
    assert header[:2] == ["step", "n_classes"]
    assert len(header) == 4
    first = table[1].split(",")
    assert first[2] == first[3]                  # identical curves
    svg = (cmp_dir / "compare.svg").read_text()
    assert "<polyline" in svg and "[" in svg
    avgs = (cmp_dir / "compare_averages.csv").read_text().splitlines()
    assert avgs[0] == "run,avg_inc_acc,avg_inc_acc_excl_initial"


def test_compare_runs_of_different_lengths(config_path, tmp_path):
    full = tmp_path / "full"
    main(["run", "--config", str(config_path), "--out", str(full)])
    partial = tmp_path / "partial"               # as a diverged run leaves it
    partial.mkdir()
    (partial / "manifest.json").write_bytes((full / "manifest.json").read_bytes())
    steps = (full / "steps.jsonl").read_text().splitlines()
    (partial / "steps.jsonl").write_text(steps[0] + "\n")
    for order in ([full, partial], [partial, full]):
        cmp_dir = tmp_path / f"cmp_{order[0].name}"
        assert main(["compare", *map(str, order), "--out", str(cmp_dir)]) == 0
        table = [line.split(",") for line in
                 (cmp_dir / "compare.csv").read_text().splitlines()]
        assert [row[0] for row in table[1:]] == ["1", "2"]
        assert table[1][2] == table[1][3]
        cells = dict(zip([run.name for run in order], table[2][2:]))
        assert cells["partial"] == "" and cells["full"] != ""


def test_compare_escapes_run_names(config_path, tmp_path):
    base = tmp_path / "run"
    main(["run", "--config", str(config_path), "--out", str(base)])
    names = ["a&b<1>", 'x,y "z"', "plain"]
    for name in names:
        shutil.copytree(base, tmp_path / name)
    cmp_dir = tmp_path / "cmp"
    assert main(["compare", *(str(tmp_path / n) for n in names),
                 "--out", str(cmp_dir)]) == 0
    svg = xml.dom.minidom.parse(str(cmp_dir / "compare.svg"))
    texts = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert [t.rsplit(" [", 1)[0] for t in texts if t.endswith("]")] == names
    with open(cmp_dir / "compare.csv", newline="") as f:
        table = list(csv.reader(f))
    assert table[0] == ["step", "n_classes"] + [f"top1_{n}" for n in names]
    assert all(len(row) == 5 for row in table)
    with open(cmp_dir / "compare_averages.csv", newline="") as f:
        avgs = list(csv.reader(f))
    assert [row[0] for row in avgs[1:]] == names
    assert all(len(row) == 3 for row in avgs)


def test_compare_plain_names_unquoted(config_path, tmp_path):
    out = tmp_path / "run"
    main(["run", "--config", str(config_path), "--out", str(out)])
    cmp_dir = tmp_path / "cmp"
    assert main(["compare", str(out), str(out), "--out", str(cmp_dir)]) == 0
    for name in ("compare.csv", "compare_averages.csv"):
        text = (cmp_dir / name).read_text()
        assert '"' not in text and "\r" not in text
        assert text == "".join(",".join(row) + "\n"
                               for row in csv.reader(io.StringIO(text)))


def test_compare_protocol_mismatch(config_path, tmp_path):
    out1 = tmp_path / "r1"
    main(["run", "--config", str(config_path), "--out", str(out1)])
    other = tmp_path / "other.ini"
    other.write_text(TINY_CONFIG.replace("increment = 2", "increment = 1"))
    out2 = tmp_path / "r2"
    main(["run", "--config", str(other), "--out", str(out2)])
    assert main(["compare", str(out1), str(out2),
                 "--out", str(tmp_path / "c")]) == 2


_STEP_LINE = json.dumps(StepReport(step=1, n_classes=2, top1=0.5,
                                   confusion=np.eye(2, dtype=np.int64),
                                   bias_rate=0.0, eta=10.0).to_json_dict())


@pytest.mark.parametrize("name,text", [
    pytest.param("steps.jsonl", _STEP_LINE.replace('"top1": 0.5', '"top1": "abc"'),
                 id="steps.jsonl-top1-abc"),
    pytest.param("steps.jsonl", _STEP_LINE.replace('"step": 1, ', ""),
                 id="steps.jsonl-no-step"),
    pytest.param("steps.jsonl", "{not json", id="steps.jsonl-not-json"),
    pytest.param("steps.jsonl", "", id="steps.jsonl-empty"),
    ("manifest.json", "{not json"),
    ("manifest.json", '{"seeds": {"run": 1}}'),
])
def test_compare_malformed_run_dir_exit_2(tmp_path, capsys, name, text):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text('{"config": {"protocol": {}}}')
    (run / "steps.jsonl").write_text(_STEP_LINE + "\n")
    assert main(["compare", str(run), "--out", str(tmp_path / "ok")]) == 0
    (run / name).write_text(text)
    assert main(["compare", str(run), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert name in err and err.count("\n") == 1


def test_compare_empty_dir_fails(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["compare", str(empty), "--out", str(tmp_path / "c")]) == 2


# --- ablate ----------------------------------------------------------------------

def test_ablate_stem_two_arms(config_path, tmp_path):
    out = tmp_path / "ab"
    assert main(["ablate", "--config", str(config_path), "--axis", "stem",
                 "--out", str(out)]) == 0
    grid = (out / "ablation.csv").read_text().splitlines()
    assert grid[0] == "arm,avg_inc_acc,final_top1,final_eta"
    assert len(grid) == 3
    assert {g.split(",")[0] for g in grid[1:]} == {"patchify", "conv"}
    assert (out / "patchify" / "summary.csv").exists()
    assert (out / "conv" / "summary.csv").exists()


def test_ablate_classifier_lr_three_arms(config_path, tmp_path):
    out = tmp_path / "ab"
    assert main(["ablate", "--config", str(config_path),
                 "--axis", "classifier_lr", "--out", str(out)]) == 0
    grid = (out / "ablation.csv").read_text().splitlines()
    assert len(grid) == 4
    assert {g.split(",")[0] for g in grid[1:]} == {"x1", "x2", "x10"}


def test_ablate_unknown_axis_rejected(config_path, tmp_path):
    with pytest.raises(SystemExit):
        main(["ablate", "--config", str(config_path), "--axis", "optimizer",
              "--out", str(tmp_path / "x")])


def test_ablate_stem_requires_token_parity(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(TINY_CONFIG.replace("patch_size = 4", "patch_size = 8")
                   .replace("image_size = 8", "image_size = 16"))
    assert main(["ablate", "--config", str(cfg), "--axis", "stem",
                 "--out", str(tmp_path / "x")]) == 2
