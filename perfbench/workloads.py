"""The benchmark's workloads: configs, quality floors and expected spans.

The workloads split the taped training path from the untaped inference
path, so that each of the tensor, model and memory layers does most of its
work in one workload and little in another:

- `conv_ft` is the paper recipe (conv stem, 10x classifier LR, herding,
  Mixup/CutMix, balanced finetune) in the shape of acceptance criterion 8.
  It is the only workload that runs conv2d/batch-norm backward, augment
  mixing and the finetune stage.
- `patch_steps` uses the patchify stem (8x8 patches) over five steps with the
  margin-ranking loss and no finetune. It bypasses conv2d, batch norm,
  mixing and finetune, and stresses attention/MLP matmuls, GELU, layer norm,
  the take/take_along_axis backward and old-model forwards on four steps
  while the classifier grows.
- `eval_ckpt` is inference only: evaluate trained checkpoints on a large
  test split, herd exemplars for every class and round-trip the exemplar
  store. No tape, no backward and no optimizer.

Every input comes from the workload seed: it is the data seed, the run seed
and the class-shuffle seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Paper recipe: conv stem (16,32), 10 classes as 5+5, shared replay pool,
# hflip + Mixup + CutMix + smoothing, balanced finetune. 48 training images
# per class keep a run at 5-7 s, so that an invocation holds five runs.
CONV_FT = {
    "protocol": {"total_classes": "10", "initial_classes": "5",
                 "increment": "5", "budget": "total:50",
                 "epochs_initial": "12", "epochs_step": "8"},
    "data": {"classes": "10", "per_class_train": "48", "per_class_test": "40",
             "difficulty": "0.5"},
    "model": {"stem": "conv", "stem_channels": "16,32"},
    "train": {"batch_size": "64", "epochs_finetune": "10",
              "balanced_finetune": "on"},
    "augment": {"hflip": "on", "mixup": "on", "cutmix": "on",
                "label_smoothing": "0.1"},
}

# Patchify stem, 20 classes as 4 + 4x4. 8x8 patches (4 tokens of a 16x16
# image) keep a run at 5-7 s and learn on every seed tried; with 4x4 patches
# a run takes twice as long. Batch 32 and no flips: at batch 64 or with
# flips the 4x4 patchify model failed to leave chance on some seeds.
PATCH_STEPS = {
    "protocol": {"total_classes": "20", "initial_classes": "4",
                 "increment": "4", "budget": "per_class:20",
                 "epoch_preset": "cold_start",
                 "epochs_initial": "12", "epochs_step": "6"},
    "data": {"classes": "20", "per_class_train": "64", "per_class_test": "40",
             "difficulty": "0.5"},
    "model": {"stem": "patchify", "patch_size": "8"},
    "train": {"batch_size": "32", "balanced_finetune": "off"},
    "augment": {"hflip": "off", "mixup": "off", "cutmix": "off",
                "margin_ranking": "on"},
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                     # raw INI-style sections, string values
    # quality floors: half the lowest value seen on baseline seeds 1-10,
    # rounded down to 0.05; a run below one of them fails
    floors: dict
    # spans the workload must enter at least once, and spans it must never
    # enter; a traced run that breaks either is a benchmark error
    required: tuple[str, ...]
    absent: tuple[str, ...] = ()
    # eval_ckpt only: the large CILD split and the herding budget per class
    eval_data: dict = field(default_factory=dict)
    herd_budget: int = 0

    def resolved_raw(self, seed: int) -> dict:
        raw = {section: dict(keys) for section, keys in self.config.items()}
        raw["data"]["seed"] = str(seed)
        raw["protocol"]["shuffle_seed"] = str(seed)
        raw["run"] = {"seed": str(seed)}
        return raw


_TRAINING_SPANS = ("engine.run_protocol", "engine.stage1", "engine.loss",
                   "engine.exemplars", "memory.herding", "memory.store_save",
                   "metrics.evaluate", "metrics.reports_write", "optim.step",
                   "augment.batch", "tensor.backward", "tensor.matmul.bwd",
                   "model.forward_train", "model.forward_eval",
                   "model.checkpoint_save", "cli.step_artifacts",
                   "data.build", "config.materialize")

WORKLOADS = {
    "conv_ft": Workload(
        name="conv_ft",
        config=CONV_FT,
        floors={"top1": 0.3, "avg_inc_acc": 0.2},
        required=_TRAINING_SPANS + ("engine.finetune", "tensor.conv2d.bwd",
                                    "tensor.batch_norm.bwd"),
    ),
    "patch_steps": Workload(
        name="patch_steps",
        config=PATCH_STEPS,
        floors={"top1": 0.45, "avg_inc_acc": 0.3},
        required=_TRAINING_SPANS + ("tensor.take.bwd",
                                    "tensor.take_along_axis.bwd"),
        absent=("tensor.conv2d.fwd", "tensor.batch_norm.fwd",
                "engine.finetune"),
    ),
    "eval_ckpt": Workload(
        name="eval_ckpt",
        config=CONV_FT,
        floors={"top1": 0.25, "avg_inc_acc": 0.15},
        required=("metrics.evaluate", "engine.exemplars", "memory.herding",
                  "memory.store_save", "memory.store_load",
                  "model.checkpoint_load", "model.forward_eval", "data.build",
                  "metrics.reports_write", "tensor.conv2d.fwd"),
        absent=("tensor.backward", "optim.step", "engine.stage1",
                "engine.finetune", "model.forward_train"),
        eval_data={"per_class_train": 400, "per_class_test": 400},
        herd_budget=100,
    ),
}
