"""The benchmark's tracer patches tensor ops by name; keep what it relies on.

`perfbench/tracing.py` gives every name in `TENSOR_OPS` its own row. Both
training workloads require a `tensor.matmul.bwd` span; `conv_ft` also requires
`tensor.conv2d.bwd` and `tensor.batch_norm.bwd`, and `patch_steps` must never
enter `tensor.conv2d.fwd`. A change that renames an op, or fuses away the last
taped node of one, fails here instead of in the benchmark.

`tracing.install` also patches the engine, model, metrics and optimizer
functions it times, and raises for a name no tinycil module holds any more;
a traced evaluation and two traced training runs (conv stem with the
finetune, patchify with margin ranking) must complete.
`perfbench/child.py` starts a training workload's run clock at the first call
of `cli.run_protocol`, and `tracing.py` times the step callback that
`execute_run` passes it by keyword; `child.py` builds the eval workload's
`StepReport`s from six keywords.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from tinycil import cli
from tinycil import model as M
from tinycil import tensor as T
from tinycil.config import materialize
from tinycil.metrics import StepReport
from tinycil.rng import SplitMix64

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_ops_are_public_tensor_functions():
    for name in _tracing().TENSOR_OPS:
        fn = getattr(T, name, None)
        assert callable(fn) and not isinstance(fn, type), name
        assert fn.__module__ == T.__name__, name


def _spy_on(monkeypatch, name, recorded):
    """Replace T.<name> by a wrapper that logs whether each output was taped."""
    op = getattr(T, name)

    def spy(*args, **kwargs):
        out = op(*args, **kwargs)
        recorded.append((name, out.tape_id is not None))
        return out

    monkeypatch.setattr(T, name, spy)


def _taped_batch(stem):
    spec = M.ModelSpec(image_size=8, stem_kind=stem, patch_size=4,
                       stem_channels=(8, 16), embed_dim=16, num_blocks=1,
                       num_classes=3)
    state = M.init_model(spec, SplitMix64(1))
    images = np.random.default_rng(0).uniform(0, 1, (4, 3, 8, 8))
    with T.Tape():
        M.cosine_logits(state, M.forward_features(state, images, mode="train"))


def test_conv_stem_batch_records_conv2d_and_batch_norm_nodes(monkeypatch):
    recorded = []
    for name in ("conv2d", "batch_norm"):
        _spy_on(monkeypatch, name, recorded)
    _taped_batch("conv")
    assert ("conv2d", True) in recorded
    assert ("batch_norm", True) in recorded


def test_patchify_batch_never_calls_conv2d(monkeypatch):
    recorded = []
    _spy_on(monkeypatch, "conv2d", recorded)
    _taped_batch("patchify")
    assert recorded == []


def test_taped_batch_records_a_matmul_node(monkeypatch):
    recorded = []
    _spy_on(monkeypatch, "matmul", recorded)
    for stem in ("patchify", "conv"):
        recorded.clear()
        _taped_batch(stem)
        assert ("matmul", True) in recorded, stem


_INSTALL_AND_EVALUATE = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from tinycil import metrics, model
from tinycil.rng import SplitMix64
state = model.init_model(model.ModelSpec(image_size=8, patch_size=4, embed_dim=16,
                                         num_blocks=1, num_classes=3), SplitMix64(1))
metrics.evaluate(state, np.zeros((4, 3, 8, 8), np.uint8), np.zeros(4, int), 3)
print(json.dumps(sorted({span[0] for span in tracer.spans})))
"""


def _traced_span_names(script, *args):
    # in a subprocess: install rebinds functions in every tinycil module
    src = str(TRACING.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script, str(TRACING), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_tracer_installs_and_times_evaluate():
    names = _traced_span_names(_INSTALL_AND_EVALUATE)
    for name in ("metrics.evaluate", "model.forward_eval", "model.stem",
                 "model.head"):
        assert name in names, name


_INSTALL_AND_TRAIN = """
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from tinycil import cli, config
names = []
for i, (section, overrides) in enumerate(json.loads(sys.argv[3])):
    raw = json.loads(sys.argv[2])
    raw[section].update(overrides)
    tracer.spans.clear()
    cli.execute_run(config.materialize(raw), Path(sys.argv[4]) / str(i), quiet=True)
    names.append(sorted({span[0] for span in tracer.spans}))
print(json.dumps(names))
"""


def test_tracer_times_both_training_workloads_through_execute_run(tmp_path):
    # the two training paths of the benchmark: conv stem with the balanced
    # finetune on, and patchify with margin ranking on
    arms = [("model", {"stem": "conv", "stem_channels": "4,8"}),
            ("augment", {"margin_ranking": True, "mixup": False,
                         "cutmix": False})]
    raw = json.loads(json.dumps(TINY_RUN))
    raw["augment"] = {}
    per_run = _traced_span_names(_INSTALL_AND_TRAIN, json.dumps(raw),
                                 json.dumps(arms), str(tmp_path))
    assert len(per_run) == 2
    for names in per_run:
        for name in ("engine.loss", "engine.finetune", "model.head",
                     "tensor.backward", "cli.step_artifacts"):
            assert name in names, name
    assert "tensor.conv2d.bwd" in per_run[0]
    assert "tensor.conv2d.fwd" not in per_run[1]


TINY_RUN = {
    "protocol": {"total_classes": 4, "initial_classes": 2, "increment": 2,
                 "budget": "per_class:2", "epochs_initial": 1, "epochs_step": "1"},
    "data": {"classes": 4, "per_class_train": 4, "per_class_test": 2,
             "image_size": 8},
    "model": {"stem": "patchify", "embed_dim": 8, "num_blocks": 1},
    "train": {"batch_size": 8, "epochs_finetune": 1, "warmup_epochs": 0},
}


def test_execute_run_enters_run_protocol_once_with_a_keyword_callback(
        tmp_path, monkeypatch):
    calls = []
    run_protocol = cli.run_protocol

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return run_protocol(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", spy)
    reports = cli.execute_run(materialize(TINY_RUN), tmp_path / "run", quiet=True)
    assert len(calls) == 1
    assert callable(calls[0].get("step_callback"))
    assert [r.step for r in reports] == [1, 2]


def test_step_report_builds_from_the_six_fields_child_py_passes():
    report = StepReport(step=1, n_classes=2, top1=0.5, confusion=np.eye(2),
                        bias_rate=0.0, eta=10.0)
    assert report.loss_trace == [] and report.first_distill is None
