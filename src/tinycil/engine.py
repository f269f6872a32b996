"""Two-stage incremental training with feature distillation and replay.

Each incremental step starts from the previous model, trains everything on
new data plus stored exemplars (cross entropy + adaptively weighted feature
distillation against the frozen old model), herds exemplars for the new
classes with the stage-1 model, then finetunes the classifier alone on the
class-balanced exemplar set. The first step is plain supervised training.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .augment import AugmentConfig, augment_batch, one_hot
from .data import LabeledDataset, ProtocolConfig, StepPlan, build_protocol
from .errors import ConfigError, TrainingDiverged
from .memory import ExemplarStore, herding_select, per_class_budget
from .metrics import StepReport, evaluate, old_to_new_bias_rate
from .model import (ModelSpec, ModelState, clamp_temperature, clone_state,
                    cosine_logits, cosine_scores, embed, expand_classifier,
                    forward_features, head_probs, init_model)
from .optim import AdamW, ParamGroup, lr_at_epoch, scaled_base_lr
from .rng import SplitMix64
from .tensor import Tensor

LOG_EPS = 1e-12
# fixed values of the recipe: the LR floor of the cosine schedule (DeiT), the
# base of the adaptive distillation weight, the finetune's backbone LR scale,
# and the margin m and top-K negatives of the margin-ranking loss (LUCIR)
MIN_LR = 1e-5
LAMBDA_BASE = 3.0
FINETUNE_LR_SCALE = 0.1
MARGIN = 0.5
MARGIN_TOP_K = 2


@dataclass
class TrainSettings:
    """Everything about optimization that is not part of the protocol."""

    batch_size: int = 64
    backbone_lr: float = 8e-3             # at the 512 reference batch
    classifier_lr_multiplier: float = 10.0
    weight_decay: float = 0.24
    warmup_epochs: int = 2
    epochs_finetune: int = 20
    balanced_finetune: bool = True        # the bias-correction stage switch
    eta_init: float = 10.0
    margin_ranking: bool = False
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.margin_ranking and (self.augment.mixup or self.augment.cutmix):
            raise ConfigError(
                "augment.margin_ranking conflicts with augment.mixup / "
                "augment.cutmix: margin ranking needs hard labels")
        for name in ("backbone_lr", "classifier_lr_multiplier", "weight_decay",
                     "eta_init"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        for name in ("backbone_lr", "classifier_lr_multiplier", "weight_decay",
                     "warmup_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.eta_init <= 0:
            raise ConfigError("eta_init must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.balanced_finetune and self.epochs_finetune < 1:
            raise ConfigError(
                "epochs_finetune must be >= 1 when balanced_finetune is on")


@dataclass
class StepContext:
    """One incremental step's inputs; the old snapshot never mutates."""

    step: int
    old_class_ids: list[int]
    new_class_ids: list[int]
    old_state: ModelState | None
    state: ModelState
    store: ExemplarStore
    new_images: np.ndarray
    new_labels: np.ndarray
    label_map: np.ndarray              # original class id -> model index
    settings: TrainSettings
    epochs_stage1: int
    stream: SplitMix64

    def __post_init__(self):
        if set(self.old_class_ids) & set(self.new_class_ids):
            raise ConfigError("old and new class sets overlap")


@dataclass
class StageTrace:
    loss_trace: list[float]
    eta_trace: list[float]
    first_distill: float | None = None


# ---------------------------------------------------------------------------
# losses

def adaptive_lambda(n_old: int, n_new: int) -> float:
    """LAMBDA_BASE * sqrt(n_old / n_new); zero before any old classes exist."""
    if n_new < 1:
        raise ConfigError("n_new must be >= 1")
    if n_old == 0:
        return 0.0
    return LAMBDA_BASE * math.sqrt(n_old / n_new)


def distill_loss(f_old: Tensor, f_new: Tensor) -> Tensor:
    """Mean over the batch of 1 - cos(old feature, new feature).

    Gradient reaches f_new only; pass the old features as a constant tensor.
    """
    cos = T.sum_(T.mul(T.l2_normalize(f_old, axis=-1),
                       T.l2_normalize(f_new, axis=-1)), axis=1)
    return T.mean(1.0 - cos)


def cross_entropy(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean soft-label cross entropy; log is guarded against underflow."""
    return T.mean(T.neg(T.sum_(T.mul(Tensor(targets), T.log(probs + LOG_EPS)),
                               axis=1)))


def margin_ranking_loss(scores: Tensor, hard_labels: np.ndarray,
                        n_old: int) -> Tensor:
    """Hinge at MARGIN on the MARGIN_TOP_K highest new-class cosine scores
    for old-class samples; `scores` is the head's `[b, classes]` matrix."""
    labels = np.asarray(hard_labels, dtype=np.int64)
    rows = np.nonzero(labels < n_old)[0]
    n_new = scores.shape[1] - n_old
    if len(rows) == 0 or n_new < 1:
        return Tensor(0.0)
    k = min(MARGIN_TOP_K, n_new)
    sel = T.take(scores, rows, axis=0)
    y_score = T.take_along_axis(sel, labels[rows][:, None], axis=1)
    new_block = sel[:, n_old:]
    topk = np.argsort(-new_block.data, axis=1)[:, :k]
    negatives = T.take_along_axis(new_block, topk, axis=1)
    hinge = T.relu(MARGIN - y_score + negatives)
    return T.mean(T.sum_(hinge, axis=1))


def total_loss(ctx: StepContext, images: Tensor, targets: np.ndarray,
               hard_labels: np.ndarray, f_old: Tensor | None,
               lam: float) -> tuple[Tensor, float | None]:
    """Stage-1 objective; returns (loss, distill value or None). The CE head
    and the margin hinge read one cosine-score matrix; distillation runs when
    `f_old` is given."""
    feats = forward_features(ctx.state, images, mode="train")
    scores = cosine_scores(ctx.state, feats)
    loss = cross_entropy(head_probs(ctx.state, scores), targets)
    if ctx.settings.margin_ranking:
        loss = loss + margin_ranking_loss(scores, hard_labels,
                                          len(ctx.old_class_ids))
    dis_value = None
    if f_old is not None:
        dis = distill_loss(f_old, feats)
        dis_value = dis.item()
        loss = loss + lam * dis
    return loss, dis_value


# ---------------------------------------------------------------------------
# parameter groups

def _is_nodecay(name: str) -> bool:
    # normalization gains and the temperature are exempt from weight decay
    return name.endswith("gain") or name.endswith("temperature")


def build_param_groups(state: ModelState,
                       settings: TrainSettings) -> list[ParamGroup]:
    params = state.named_parameters()

    def pick(prefix, nodecay):
        return {n: t for n, t in params.items()
                if n.startswith(prefix) and _is_nodecay(n) == nodecay}

    clf_lr = settings.backbone_lr * settings.classifier_lr_multiplier
    return [
        ParamGroup("backbone", pick("backbone.", False),
                   base_lr=settings.backbone_lr,
                   weight_decay=settings.weight_decay),
        ParamGroup("backbone_nodecay", pick("backbone.", True),
                   base_lr=settings.backbone_lr, weight_decay=0.0),
        ParamGroup("classifier", pick("classifier.", False),
                   base_lr=clf_lr, weight_decay=settings.weight_decay),
        ParamGroup("classifier_nodecay", pick("classifier.", True),
                   base_lr=clf_lr, weight_decay=0.0),
    ]


def _lr_schedule(groups: list[ParamGroup], settings: TrainSettings,
                 epochs: int, warmup: int) -> list[dict[str, float]]:
    """One `{group name: LR}` per epoch. Each group peaks at its batch-scaled
    base LR; all share one floor, MIN_LR lowered to the smallest peak.
    Warmup is clamped to `epochs - 1` epochs, so every group reaches its peak."""
    peaks = {g.name: scaled_base_lr(g.base_lr, settings.batch_size)
             for g in groups}
    floor = min(MIN_LR, *peaks.values())
    warmup = min(warmup, epochs - 1)
    return [{name: lr_at_epoch(peak, floor, epoch, epochs, warmup)
             for name, peak in peaks.items()} for epoch in range(epochs)]


# ---------------------------------------------------------------------------
# training stages

def _training_arrays(ctx: StepContext) -> tuple[np.ndarray, np.ndarray]:
    """Replay exemplars concatenated with the new classes' training data."""
    if ctx.store.class_ids():
        ex_images, ex_labels = ctx.store.as_arrays()
        images = np.concatenate([ex_images, ctx.new_images], axis=0)
        labels = np.concatenate([ex_labels, ctx.new_labels], axis=0)
    else:
        images, labels = ctx.new_images, ctx.new_labels
    return images, ctx.label_map[labels]


def _epoch_batches(n: int, batch_size: int, order_stream: SplitMix64):
    perm = order_stream.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def _train_epochs(ctx: StepContext, groups: list[ParamGroup],
                  schedule: list[dict], n: int, order_stream: SplitMix64,
                  batch_loss, stage: str) -> StageTrace:
    """Train the `groups` parameters on `batch_loss(idx)`: on an active tape,
    the scalar loss of rows `idx` of the stage's n rows and its distillation
    value or None, which the trace keeps from epoch 0, batch 0. One epoch per
    entry of `schedule`, each mapping a group name to its LR."""
    opt = AdamW(groups)
    trace = StageTrace(loss_trace=[], eta_trace=[])
    for epoch, lrs in enumerate(schedule):
        epoch_losses = []
        for batch_no, idx in enumerate(_epoch_batches(n, ctx.settings.batch_size,
                                                      order_stream)):
            try:
                with T.Tape() as tape:
                    loss, dis_value = batch_loss(idx)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDiverged("non-finite loss")
                T.backward(tape, loss)
                opt.step(lrs)
            except TrainingDiverged as exc:
                exc.step, exc.epoch, exc.batch = ctx.step, epoch, batch_no
                exc.args = (f"{exc} during {stage} at step {ctx.step}, "
                            f"epoch {epoch}, batch {batch_no}",)
                raise
            opt.zero_grad()
            clamp_temperature(ctx.state)
            epoch_losses.append(value)
            if epoch == batch_no == 0:
                trace.first_distill = dis_value
        trace.loss_trace.append(float(np.mean(epoch_losses)))
        trace.eta_trace.append(ctx.state.temperature)
    return trace


def _frozen_views(state: ModelState, images_u8: np.ndarray,
                  hflip: bool) -> np.ndarray:
    """Eval-mode features of a `state` that does not train: row i holds
    image i's, and with `hflip` on, row n + i that of its mirror, the view
    `images_u8[..., ::-1]`. Each view is embedded once."""
    every = np.arange(len(images_u8))
    views = [images_u8, images_u8[..., ::-1]] if hflip else [images_u8]
    return np.concatenate([embed(state, v, every) for v in views])


def run_stage1(ctx: StepContext) -> StageTrace:
    """Train all parameters on replay + new data; returns per-epoch traces.

    With distillation on, a batch that Mixup and CutMix left alone gathers
    the old model's features from `_frozen_views`, at rows
    `idx + n * flipped`. A mixed batch's pixels blend two images, so it
    keeps a forward of its own.
    """
    settings = ctx.settings
    images_u8, labels = _training_arrays(ctx)
    num_classes = ctx.state.spec.num_classes
    lam = adaptive_lambda(len(ctx.old_class_ids), len(ctx.new_class_ids))
    groups = build_param_groups(ctx.state, settings)
    schedule = _lr_schedule(groups, settings, ctx.epochs_stage1,
                            settings.warmup_epochs)
    augment_stream = ctx.stream.child("augment")
    order_stream = ctx.stream.child("order")
    distill = ctx.old_state is not None and lam > 0.0
    if distill:
        old_feats = _frozen_views(ctx.old_state, images_u8,
                                  settings.augment.hflip)

    def old_features(idx, batch):
        # a constant: the old model's parameters are untracked, eval mode
        if batch.mixed:
            return forward_features(ctx.old_state, Tensor(batch.images),
                                    mode="eval").data
        return old_feats[idx + len(labels) * batch.flipped]

    def batch_loss(idx):
        raw = images_u8[idx].astype(np.float64) / 255.0
        batch = augment_batch(raw, labels[idx], num_classes, settings.augment,
                              augment_stream)
        f_old = Tensor(old_features(idx, batch)) if distill else None
        return total_loss(ctx, Tensor(batch.images), batch.targets,
                          hard_labels=labels[idx], f_old=f_old, lam=lam)

    return _train_epochs(ctx, groups, schedule, len(labels), order_stream,
                         batch_loss, stage="stage-1")


def run_balanced_finetune(ctx: StepContext) -> StageTrace:
    """Classifier-only training on the balanced exemplar set (CE only).

    The backbone does not train here, so batches gather the stage-1
    backbone's features from `_frozen_views`, at rows `idx + n * flipped`,
    and train the cosine head alone on them.
    """
    settings = ctx.settings
    counts = ctx.store.counts()
    if len(set(counts.values())) > 1:
        raise ConfigError(
            f"balanced finetune needs equal per-class exemplar counts, got {counts}")
    images_u8, orig_labels = ctx.store.as_arrays()
    labels = ctx.label_map[orig_labels]
    num_classes = ctx.state.spec.num_classes
    feats = _frozen_views(ctx.state, images_u8, settings.augment.hflip)

    groups = build_param_groups(ctx.state, replace(
        settings, backbone_lr=settings.backbone_lr * FINETUNE_LR_SCALE))
    # every group sets the floor (the scaled backbone peak may be the
    # lowest); only the head trains
    schedule = _lr_schedule(groups, settings, settings.epochs_finetune, 0)
    head = [g for g in groups if g.name.startswith("classifier")]
    flip_stream = ctx.stream.child("finetune_flip")
    order_stream = ctx.stream.child("finetune_order")

    def batch_loss(idx):
        flip = (flip_stream.uniforms(len(idx)) < 0.5 if settings.augment.hflip
                else np.zeros(len(idx), bool))
        targets = one_hot(labels[idx], num_classes,
                          smoothing=settings.augment.label_smoothing)
        rows = feats[idx + len(labels) * flip]
        return cross_entropy(cosine_logits(ctx.state, Tensor(rows)), targets), None

    return _train_epochs(ctx, head, schedule, len(labels), order_stream,
                         batch_loss, stage="finetune")


def construct_exemplars(state: ModelState, dataset: LabeledDataset,
                        class_ids, budget: int) -> dict[int, np.ndarray]:
    """Herd each class's training images with the current (stage-1) model.

    One pooled `embed` pass covers every class, its chunks crossing class
    boundaries; each class is then herded from its slice of the features.
    """
    idx = [dataset.class_indices("train", int(cid)) for cid in class_ids]
    feats = embed(state, dataset.images, np.concatenate([np.zeros(0, np.int64), *idx]))
    out: dict[int, np.ndarray] = {}
    end = 0
    for cid, rows in zip(class_ids, idx):
        f = T.l2_normalize(feats[end:end + len(rows)], axis=-1).data
        end += len(rows)
        out[int(cid)] = dataset.images[rows[herding_select(f, budget)]]
    return out


# ---------------------------------------------------------------------------
# protocol runner

def check_protocol_fits_data(protocol: ProtocolConfig, dataset: LabeledDataset,
                             settings: TrainSettings) -> StepPlan:
    """The protocol's step plan; ConfigError on data a step cannot use.

    Callers run it before anything trains or is written. The dataset must
    hold every protocol class, and every protocol class needs a training
    image: stage 1 trains on them and herding embeds them. With the balanced
    finetune on, each later step's seen classes must keep equal exemplar
    counts, and a class keeps min(its training images, the step's per-class
    budget).
    """
    if protocol.total_classes > dataset.num_classes:
        raise ConfigError(
            f"protocol needs {protocol.total_classes} classes, dataset has "
            f"{dataset.num_classes}")
    plan = build_protocol(protocol)
    counts = {c: len(dataset.class_indices("train", c))
              for c in plan.class_order.tolist()}
    for cid, n in counts.items():
        if n == 0:
            raise ConfigError(f"protocol class {cid} has no training image")
    if not settings.balanced_finetune:
        return plan
    for t, n_seen in enumerate(plan.seen_counts[1:], start=2):
        per_class = per_class_budget(protocol.budget, n_seen)
        kept = {c: min(counts[c], per_class)
                for c in plan.class_order[:n_seen].tolist()}
        if len(set(kept.values())) > 1:
            cid = min(kept, key=kept.get)
            raise ConfigError(
                f"balanced finetune at step {t} needs equal exemplar counts: class "
                f"{cid} has {counts[cid]} training images under a per-class budget "
                f"of {per_class}, other classes keep up to {max(kept.values())}")
    return plan


def run_step(t: int, plan: StepPlan, protocol: ProtocolConfig,
             dataset: LabeledDataset, settings: TrainSettings,
             label_map: np.ndarray, root: SplitMix64, state: ModelState,
             store: ExemplarStore) -> tuple[ModelState, StepReport]:
    """Step t of `plan` (stage 1, herding, the balanced finetune, evaluation)
    from the model and store step t - 1 left; returns the new model and the
    step's report. Updates `store` in place and draws only from
    `root.child(f"step{t}")`, so a checkpoint and a saved store carry all a
    step hands to the next."""
    started = time.perf_counter()
    step_stream = root.child(f"step{t}")
    class_ids = plan.steps[t - 1]
    new_images, new_labels = dataset.subset("train", class_ids)
    old_ids = [c for step in plan.steps[:t - 1] for c in step]
    n_seen = plan.seen_counts[t - 1]
    old_state = None
    if t > 1:
        old_state = clone_state(state, requires_grad=False)
        state = expand_classifier(state, protocol.increment, step_stream)
    ctx = StepContext(step=t, old_class_ids=old_ids, new_class_ids=list(class_ids),
                      old_state=old_state, state=state, store=store,
                      new_images=new_images, new_labels=new_labels,
                      label_map=label_map, settings=settings,
                      epochs_stage1=(protocol.epochs_initial if t == 1
                                     else protocol.epochs_step),
                      stream=step_stream)
    stage1 = run_stage1(ctx)
    budget = per_class_budget(protocol.budget, n_seen)
    store.add_and_trim(
        construct_exemplars(state, dataset, class_ids, budget), n_seen)
    finetune = StageTrace(loss_trace=[], eta_trace=[])
    if t > 1 and settings.balanced_finetune:
        finetune = run_balanced_finetune(ctx)

    test_images, test_labels = dataset.subset("test", plan.class_order[:n_seen])
    top1, cm = evaluate(state, test_images, label_map[test_labels], n_seen)
    return state, StepReport(
        step=t, n_classes=n_seen, top1=top1, confusion=cm,
        bias_rate=old_to_new_bias_rate(cm, len(old_ids)),
        eta=state.temperature, loss_trace=stage1.loss_trace,
        eta_trace=stage1.eta_trace, finetune_loss_trace=finetune.loss_trace,
        first_distill=stage1.first_distill,
        wall_clock=time.perf_counter() - started)


def run_protocol(protocol: ProtocolConfig, dataset: LabeledDataset,
                 settings: TrainSettings, model_spec: ModelSpec, seed: int,
                 step_callback=None) -> list[StepReport]:
    """Execute the full incremental protocol; one StepReport per step. After
    each step runs `step_callback(report, state, store)`, if given."""
    plan = check_protocol_fits_data(protocol, dataset, settings)
    label_map = np.full(dataset.num_classes, -1, dtype=np.int64)
    label_map[plan.class_order] = np.arange(len(plan.class_order))

    root = SplitMix64(seed)
    spec = replace(model_spec, num_classes=protocol.initial_classes)
    state = init_model(spec, root.child("model"), eta_init=settings.eta_init)
    store = ExemplarStore(protocol.budget)
    reports: list[StepReport] = []
    for t in range(1, len(plan.steps) + 1):
        state, report = run_step(t, plan, protocol, dataset, settings,
                                 label_map, root, state, store)
        reports.append(report)
        if step_callback is not None:
            step_callback(report, state, store)
    return reports
