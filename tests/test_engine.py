"""Incremental engine contracts: losses, stages, and the protocol runner."""

from __future__ import annotations

import hashlib
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import gc_disabled, greedy_sq_oracle, run_fresh_python

from tinycil import engine as E
from tinycil import model as M
from tinycil import tensor as T
from tinycil.augment import AugmentConfig, augment_batch
from tinycil.data import LabeledDataset, ProtocolConfig, generate_synthetic
from tinycil.engine import (StepContext, TrainSettings, _lr_schedule,
                            adaptive_lambda, construct_exemplars, cross_entropy,
                            distill_loss, margin_ranking_loss,
                            run_balanced_finetune, run_protocol, run_stage1,
                            total_loss)
from tinycil.errors import ConfigError, TrainingDiverged
from tinycil.memory import ExemplarStore, PerClass, Total, per_class_budget
from tinycil.model import (ModelSpec, clone_state, expand_classifier,
                           forward_features, init_model, state_hash)
from tinycil.optim import AdamW, ParamGroup, scaled_base_lr
from tinycil.rng import SplitMix64
from tinycil.tensor import NORM_EPS, Tensor

ROOT = Path(__file__).resolve().parents[1]

TINY_SPEC = ModelSpec(image_size=8, in_channels=3, stem_kind="patchify",
                      patch_size=4, embed_dim=16, num_blocks=1, num_heads=2,
                      mlp_ratio=2.0, num_classes=2)


def tiny_settings(**kw):
    base = dict(batch_size=16, backbone_lr=8e-3, warmup_epochs=1,
                epochs_finetune=3,
                augment=AugmentConfig(label_smoothing=0.0))
    base.update(kw)
    return TrainSettings(**base)


def make_ctx(n_classes=2, n_old=0, epochs=2, settings=None, seed=0,
             difficulty=0.5, per_class=16, spec=None):
    spec = spec or TINY_SPEC
    ds = generate_synthetic(n_classes, per_class, 4, image_size=spec.image_size,
                            difficulty=difficulty, seed=seed)
    settings = settings or tiny_settings()
    new_ids = list(range(n_old, n_classes))
    old_ids = list(range(n_old))
    images, labels = ds.subset("train", new_ids)
    state = init_model(
        ModelSpec(**{**spec.__dict__, "num_classes": n_classes}),
        SplitMix64(seed), eta_init=settings.eta_init)
    ctx = StepContext(step=1 if n_old == 0 else 2, old_class_ids=old_ids,
                      new_class_ids=new_ids, old_state=None, state=state,
                      store=ExemplarStore(PerClass(4)), new_images=images,
                      new_labels=labels,
                      label_map=np.arange(n_classes, dtype=np.int64),
                      settings=settings, epochs_stage1=epochs,
                      stream=SplitMix64(seed + 1))
    return ctx, ds


# --- adaptive lambda -------------------------------------------------------------

def test_adaptive_lambda_zero_without_old():
    assert adaptive_lambda(3.0, 0, 10) == 0.0


def test_adaptive_lambda_paper_base():
    assert adaptive_lambda(3.0, 50, 10) == pytest.approx(3 * math.sqrt(5))
    assert adaptive_lambda(3.0, 50, 10) == pytest.approx(6.7082, abs=1e-4)


def test_adaptive_lambda_ratio_one():
    assert adaptive_lambda(3.0, 7, 7) == 3.0


# --- distillation -----------------------------------------------------------------

def test_distill_identical_zero():
    f = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
    assert distill_loss(f, Tensor(f.data.copy())).item() == pytest.approx(0.0, abs=1e-12)


def test_distill_orthogonal_one():
    a = np.zeros((3, 4)); a[:, 0] = 1.0
    b = np.zeros((3, 4)); b[:, 1] = 1.0
    assert distill_loss(Tensor(a), Tensor(b)).item() == pytest.approx(1.0)


def test_distill_antiparallel_two():
    a = np.ones((2, 5))
    assert distill_loss(Tensor(a), Tensor(-a)).item() == pytest.approx(2.0)


def test_distill_zero_old_row_warns_and_stays_finite():
    f_old = np.random.default_rng(2).normal(size=(3, 6))
    f_old[1] = 0.0
    f_new = Tensor(np.random.default_rng(3).normal(size=(3, 6)))
    with pytest.warns(RuntimeWarning, match="1 zero-norm row"):
        loss = distill_loss(Tensor(f_old), f_new)
    assert math.isfinite(loss.item())


def test_distill_gradient_only_into_new():
    rng = np.random.default_rng(1)
    f_old = Tensor(rng.normal(size=(3, 6)))
    f_new = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    with T.Tape() as tape:
        loss = distill_loss(f_old, f_new)
    T.backward(tape, loss)
    assert f_new.grad is not None
    assert f_old.grad is None


# --- cross entropy ----------------------------------------------------------------

def test_cross_entropy_uniform_is_log_k():
    for k in (2, 5, 17):
        probs = Tensor(np.full((3, k), 1.0 / k))
        targets = np.zeros((3, k)); targets[:, 0] = 1.0
        assert cross_entropy(probs, targets).item() == pytest.approx(
            math.log(k), abs=1e-9)


# --- margin ranking ----------------------------------------------------------------

def _margin_state(scores_weight, eta=1.0):
    spec = ModelSpec(image_size=8, patch_size=4, embed_dim=scores_weight.shape[1],
                     num_blocks=1, num_heads=1, num_classes=scores_weight.shape[0])
    state = init_model(spec, SplitMix64(5))
    state.classifier["weight"] = Tensor(scores_weight, requires_grad=True)
    return state


def test_margin_satisfied_is_zero():
    w = np.eye(3)
    state = _margin_state(w)
    f = Tensor(np.array([[1.0, 0.0, 0.0]]))   # cos: [1, 0, 0]
    loss = margin_ranking_loss(M.cosine_scores(state, f), np.array([0]),
                               n_old=1, m=0.5, top_k=1)
    assert loss.item() == 0.0


def test_margin_hand_value():
    # cos(true)=0.6, top new negative 0.4, margin 0.5 -> hinge 0.3
    d = 2
    w = np.array([[0.6, 0.8], [0.4, math.sqrt(1 - 0.16)]])
    state = _margin_state(w)
    f = Tensor(np.array([[1.0, 0.0]]))
    loss = margin_ranking_loss(M.cosine_scores(state, f), np.array([0]),
                               n_old=1, m=0.5, top_k=1)
    assert loss.item() == pytest.approx(0.3, abs=1e-9)


def test_margin_no_eligible_rows_is_zero():
    state = _margin_state(np.eye(3))
    f = Tensor(np.ones((2, 3)))
    loss = margin_ranking_loss(M.cosine_scores(state, f), np.array([2, 2]),
                               n_old=2, m=0.5, top_k=1)
    assert loss.item() == 0.0


def test_margin_with_mixup_rejected():
    with pytest.raises(ConfigError, match="margin_ranking"):
        TrainSettings(margin_ranking=True,
                      augment=AugmentConfig(mixup=True, cutmix=False))
    # allowed once mixing is off
    TrainSettings(margin_ranking=True,
                  augment=AugmentConfig(mixup=False, cutmix=False,
                                        label_smoothing=0.0))


# --- total loss --------------------------------------------------------------------

def test_total_loss_first_step_is_pure_ce():
    ctx, _ = make_ctx()
    imgs = Tensor(ctx.new_images[:4].astype(float) / 255.0)
    targets = np.zeros((4, 2)); targets[:, 0] = 1.0
    loss, dis = total_loss(ctx, imgs, targets, hard_labels=np.zeros(4, int),
                           f_old=None, lam=0.0)
    assert dis is None
    assert math.isfinite(loss.item())


def test_total_loss_distill_zero_at_step_start():
    ctx, _ = make_ctx()
    from tinycil.model import forward_features
    imgs = Tensor(ctx.new_images[:4].astype(float) / 255.0)
    targets = np.zeros((4, 2)); targets[:, 0] = 1.0
    old = clone_state(ctx.state, requires_grad=False)
    f_old = Tensor(forward_features(old, imgs, mode="eval").data)
    loss, dis = total_loss(ctx, imgs, targets, hard_labels=np.zeros(4, int),
                           f_old=f_old, lam=3.0)
    assert abs(dis) <= 1e-9


# --- stage 1 ------------------------------------------------------------------------

def test_stage1_loss_decreases_on_separable_data():
    settings = tiny_settings(
        backbone_lr=6.4e-2, warmup_epochs=0,
        augment=AugmentConfig(hflip=False, mixup=False, cutmix=False,
                              label_smoothing=0.0))
    ctx, _ = make_ctx(epochs=4, difficulty=0.0, seed=3, settings=settings)
    trace = run_stage1(ctx)
    assert trace.loss_trace[-1] < trace.loss_trace[0]


def test_stage1_zero_lr_is_bit_exact(monkeypatch):
    import tinycil.engine as engine
    monkeypatch.setattr(engine, "MIN_LR", 0.0)
    settings = tiny_settings(backbone_lr=0.0, warmup_epochs=0)
    ctx, _ = make_ctx(epochs=2, settings=settings, seed=4)
    before = {n: t.data.copy() for n, t in ctx.state.named_parameters().items()}
    run_stage1(ctx)
    for name, t in ctx.state.named_parameters().items():
        np.testing.assert_array_equal(t.data, before[name], err_msg=name)


def test_stage1_eta_trace_length():
    ctx, _ = make_ctx(epochs=4, seed=5)
    trace = run_stage1(ctx)
    assert len(trace.eta_trace) == 4
    assert len(trace.loss_trace) == 4


def _stage1_peak_bytes(epochs):
    ctx, _ = make_ctx(epochs=epochs)
    tracemalloc.start()
    try:
        run_stage1(ctx)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stage1_memory_does_not_grow_with_batches():
    # each batch's tape must die by refcount, not wait for the cyclic GC
    with gc_disabled():
        short, long = _stage1_peak_bytes(2), _stage1_peak_bytes(6)
    assert long <= 1.25 * short, (short, long)


def test_stage1_with_margin_ranking_trains():
    settings = tiny_settings(
        margin_ranking=True,
        augment=AugmentConfig(mixup=False, cutmix=False, label_smoothing=0.0))
    ctx, ds = make_ctx(epochs=1, settings=settings, seed=12)
    run_stage1(ctx)
    ctx.store.add_and_trim(construct_exemplars(ctx.state, ds, [0, 1], 4), 2)

    old = clone_state(ctx.state, requires_grad=False)
    grown = expand_classifier(ctx.state, 2, SplitMix64(13))
    ds2 = generate_synthetic(4, 8, 4, image_size=8, difficulty=0.5, seed=14)
    images, labels = ds2.subset("train", [2, 3])
    ctx2 = StepContext(step=2, old_class_ids=[0, 1], new_class_ids=[2, 3],
                       old_state=old, state=grown, store=ctx.store,
                       new_images=images, new_labels=labels,
                       label_map=np.arange(4, dtype=np.int64),
                       settings=settings, epochs_stage1=2,
                       stream=SplitMix64(15))
    trace = run_stage1(ctx2)
    assert all(math.isfinite(v) for v in trace.loss_trace)


CONV_SPEC = replace(TINY_SPEC, stem_kind="conv", stem_depth=2,
                    stem_channels=(8, 16))


def _distill_ctx(settings, spec=TINY_SPEC):
    """A step-2 context: 4 exemplars each of classes 0-1, new classes 2-3."""
    ctx, ds = make_ctx(epochs=1, settings=settings, seed=16, spec=spec)
    ctx.store.add_and_trim(construct_exemplars(ctx.state, ds, [0, 1], 4), 2)
    images, labels = generate_synthetic(
        4, 8, 4, image_size=spec.image_size, difficulty=0.5,
        seed=17).subset("train", [2, 3])
    return StepContext(step=2, old_class_ids=[0, 1], new_class_ids=[2, 3],
                       old_state=clone_state(ctx.state, requires_grad=False),
                       state=expand_classifier(ctx.state, 2, SplitMix64(18)),
                       store=ctx.store, new_images=images, new_labels=labels,
                       label_map=np.arange(4, dtype=np.int64),
                       settings=settings, epochs_stage1=3, stream=SplitMix64(19))


@pytest.mark.parametrize("hflip", [True, False])
@pytest.mark.parametrize("spec", [TINY_SPEC, CONV_SPEC], ids=["patchify", "conv"])
def test_stage1_cached_old_features_match_a_batch_forward(monkeypatch, spec,
                                                          hflip):
    import tinycil.engine as engine
    ctx = _distill_ctx(tiny_settings(augment=AugmentConfig(
        hflip=hflip, mixup=False, cutmix=False, label_smoothing=0.0)), spec)
    seen, flipped = [], []

    def spying_loss(ctx, images, targets, f_old=None, **kw):
        seen.append((images.data.copy(), f_old.data.copy()))
        return total_loss(ctx, images, targets, f_old=f_old, **kw)

    def spying_augment(*args):
        batch = augment_batch(*args)
        flipped.append(batch.flipped.any())
        return batch

    monkeypatch.setattr(engine, "total_loss", spying_loss)
    monkeypatch.setattr(engine, "augment_batch", spying_augment)
    run_stage1(ctx)
    assert len(seen) == 6 and any(flipped) == hflip
    for images, f_old in seen:
        expected = forward_features(ctx.old_state, Tensor(images), mode="eval")
        np.testing.assert_allclose(f_old, expected.data, rtol=0, atol=1e-12)


def test_a_margin_batch_computes_the_cosine_scores_once(monkeypatch):
    # the CE head and the margin hinge share one score matrix; the spy sits
    # on both names a head pass can be reached by
    import tinycil.engine as engine
    import tinycil.model as model
    ctx = _distill_ctx(tiny_settings(margin_ranking=True, augment=AugmentConfig(
        mixup=False, cutmix=False, label_smoothing=0.0)))
    scores, loss = model.cosine_scores, engine.total_loss
    calls, per_batch, old_rows = [], [], []

    def counting_scores(*args):
        calls.append(args)
        return scores(*args)

    def counting_loss(ctx, images, targets, hard_labels, **kw):
        calls.clear()
        old_rows.append(int((hard_labels < 2).sum()))
        out = loss(ctx, images, targets, hard_labels=hard_labels, **kw)
        per_batch.append(len(calls))
        return out

    monkeypatch.setattr(model, "cosine_scores", counting_scores)
    monkeypatch.setattr(engine, "cosine_scores", counting_scores)
    monkeypatch.setattr(engine, "total_loss", counting_loss)
    run_stage1(ctx)
    assert len(per_batch) == 6 and all(old_rows)
    assert per_batch == [1] * 6


@pytest.mark.parametrize("hflip,views", [(True, 2), (False, 1)])
def test_stage1_forwards_each_image_through_the_old_model_once_per_view(
        monkeypatch, hflip, views):
    import tinycil.engine as engine
    import tinycil.model as model
    ctx = _distill_ctx(tiny_settings(augment=AugmentConfig(
        hflip=hflip, label_smoothing=0.0)))
    old_rows, mixed_rows = [], []

    def counting(state, images, mode="eval"):
        if state is ctx.old_state:
            old_rows.append(images.shape[0])
        return forward_features(state, images, mode=mode)

    def spying_augment(*args):
        batch = augment_batch(*args)
        if batch.mixed:
            mixed_rows.append(len(batch.images))
        return batch

    monkeypatch.setattr(model, "forward_features", counting)
    monkeypatch.setattr(engine, "forward_features", counting)
    monkeypatch.setattr(engine, "augment_batch", spying_augment)
    run_stage1(ctx)
    n = ctx.store.total_count() + len(ctx.new_labels)
    assert mixed_rows and sum(mixed_rows) < 3 * n
    assert sum(old_rows) == views * n + sum(mixed_rows)


# --- LR schedule --------------------------------------------------------------------

def test_lr_schedule_values_floor_and_clamped_warmup(monkeypatch):
    import tinycil.engine as engine
    groups = [ParamGroup("backbone", {}, base_lr=8e-3),
              ParamGroup("classifier", {}, base_lr=8e-2)]
    settings = TrainSettings()                  # batch 64; MIN_LR is 1e-5
    # pinned: earlier runs reproduce bit for bit only while these values hold
    assert _lr_schedule(groups, settings, 5, 2) == [
        {"backbone": 1e-05, "classifier": 1e-05},
        {"backbone": 0.000505, "classifier": 0.005005},
        {"backbone": 0.001, "classifier": 0.01},
        {"backbone": 0.000505, "classifier": 0.005005},
        {"backbone": 1e-05, "classifier": 1e-05}]
    # warmup 9 over 4 epochs is clamped to 3: the last epoch is the peak
    assert _lr_schedule(groups, settings, 4, 9) == [
        {"backbone": 1e-05, "classifier": 1e-05},
        {"backbone": 0.00034, "classifier": 0.00334},
        {"backbone": 0.00067, "classifier": 0.00667},
        {"backbone": 0.001, "classifier": 0.01}]
    # a MIN_LR above a group's scaled peak is lowered to the lowest peak, and
    # every group starts and ends at that one floor
    monkeypatch.setattr(engine, "MIN_LR", 0.005)
    peaks = [scaled_base_lr(g.base_lr, settings.batch_size) for g in groups]
    schedule = _lr_schedule(groups, settings, 6, 2)
    floor = schedule[-1]["classifier"]
    assert schedule[0] == schedule[-1] == {"backbone": floor, "classifier": floor}
    assert all(floor <= peak for peak in peaks) and floor < engine.MIN_LR


def test_finetune_floor_is_the_scaled_backbone_peak(monkeypatch):
    # only the head trains, yet its cosine ends at the finetune backbone's
    # scaled peak when that lies below MIN_LR
    import tinycil.engine as engine
    monkeypatch.setattr(engine, "MIN_LR", 1e-4)
    settings = tiny_settings(epochs_finetune=3)
    ctx = _finetuned_ctx(settings)
    backbone_peak = scaled_base_lr(
        settings.backbone_lr * engine.FINETUNE_LR_SCALE, settings.batch_size)
    assert backbone_peak < engine.MIN_LR
    step = AdamW.step
    seen = []

    def recording(self, lrs):
        seen.append(lrs)
        step(self, lrs)

    monkeypatch.setattr(AdamW, "step", recording)
    run_balanced_finetune(ctx)
    assert seen[0]["classifier"] > engine.MIN_LR
    assert seen[-1]["classifier"] == backbone_peak


# --- balanced finetune ---------------------------------------------------------------

def _finetuned_ctx(settings=None):
    settings = settings or tiny_settings()
    ctx, ds = make_ctx(epochs=1, settings=settings, seed=6)
    run_stage1(ctx)
    budget = per_class_budget(ctx.store.policy, 2)
    ctx.store.add_and_trim(
        construct_exemplars(ctx.state, ds, [0, 1], budget), 2)
    return ctx


def test_finetune_backbone_bit_identical():
    ctx = _finetuned_ctx()
    backbone_before = state_hash(ctx.state, include_classifier=False)
    classifier_before = ctx.state.classifier["weight"].data.copy()
    run_balanced_finetune(ctx)
    assert state_hash(ctx.state, include_classifier=False) == backbone_before
    assert not np.array_equal(ctx.state.classifier["weight"].data,
                              classifier_before)


@pytest.mark.parametrize("hflip,views", [(True, 2), (False, 1)])
def test_finetune_embeds_each_exemplar_once_per_view(monkeypatch, hflip, views):
    import tinycil.model as model
    ctx = _finetuned_ctx(tiny_settings(
        augment=AugmentConfig(hflip=hflip, label_smoothing=0.0)))
    embedded = []

    def counting(state, images, mode="eval"):
        embedded.append(images.shape[0])
        return forward_features(state, images, mode=mode)

    monkeypatch.setattr(model, "forward_features", counting)
    run_balanced_finetune(ctx)
    assert sum(embedded) == views * ctx.store.total_count()


@pytest.mark.parametrize("hflip", [True, False])
def test_finetune_cached_features_match_a_batch_forward(monkeypatch, hflip):
    # each batch's head input is the eval-mode backbone feature of its
    # exemplars, mirrored where the finetune's flip draw says so
    import tinycil.engine as engine
    ctx = _finetuned_ctx(tiny_settings(
        augment=AugmentConfig(hflip=hflip, label_smoothing=0.0)))
    images = ctx.store.as_arrays()[0].astype(np.float64) / 255.0
    batches, head_inputs = [], []
    epoch_batches, logits = engine._epoch_batches, engine.cosine_logits

    def recording_batches(*args):
        for idx in epoch_batches(*args):
            batches.append(idx)
            yield idx

    def recording_logits(state, features):
        head_inputs.append(features.data.copy())
        return logits(state, features)

    monkeypatch.setattr(engine, "_epoch_batches", recording_batches)
    monkeypatch.setattr(engine, "cosine_logits", recording_logits)
    run_balanced_finetune(ctx)
    assert len(head_inputs) == len(batches) > 1
    flip_stream = ctx.stream.child("finetune_flip")
    flipped = 0
    for idx, features in zip(batches, head_inputs):
        flip = (flip_stream.uniforms(len(idx)) < 0.5 if hflip
                else np.zeros(len(idx), bool))
        batch = images[idx]
        batch[flip] = batch[flip][..., ::-1]
        expected = forward_features(ctx.state, Tensor(batch), mode="eval")
        np.testing.assert_allclose(features, expected.data, rtol=0, atol=1e-12)
        flipped += flip.sum()
    assert (flipped > 0) == hflip


def test_finetune_leaves_backbone_grads_unset(monkeypatch):
    ctx = _finetuned_ctx()
    step = AdamW.step
    grads_at_step = []

    def checked(self, lrs):
        grads_at_step.append([t.grad for t in ctx.state.backbone.values()])
        step(self, lrs)

    monkeypatch.setattr(AdamW, "step", checked)
    run_balanced_finetune(ctx)
    assert grads_at_step
    assert all(g is None for grads in grads_at_step for g in grads)
    assert all(t.grad is None for t in ctx.state.backbone.values())


def test_finetune_rejects_unbalanced_store():
    ctx = _finetuned_ctx()
    ctx.store._images[0] = ctx.store._images[0][:1]   # break the balance
    with pytest.raises(ConfigError, match="balanced"):
        run_balanced_finetune(ctx)


def test_finetune_trace_lengths():
    ctx = _finetuned_ctx(tiny_settings(epochs_finetune=2))
    trace = run_balanced_finetune(ctx)
    assert len(trace.loss_trace) == 2
    assert trace.first_distill is None


# --- protocol runner ------------------------------------------------------------------

def test_single_step_protocol_degenerates_to_supervised():
    ds = generate_synthetic(3, 12, 4, image_size=8, difficulty=0.5, seed=7)
    protocol = ProtocolConfig(total_classes=3, initial_classes=3, increment=1,
                              budget=PerClass(4), epochs_initial=2, epochs_step=1)
    reports = run_protocol(protocol, ds, tiny_settings(), TINY_SPEC, seed=1)
    assert len(reports) == 1
    assert reports[0].n_classes == 3
    assert reports[0].bias_rate == 0.0
    assert reports[0].first_distill is None


def test_protocol_report_counts_and_coverage():
    ds = generate_synthetic(6, 10, 4, image_size=8, difficulty=0.5, seed=8)
    protocol = ProtocolConfig(total_classes=6, initial_classes=2, increment=2,
                              budget=Total(24), epochs_initial=1, epochs_step=1)
    reports = run_protocol(protocol, ds, tiny_settings(epochs_finetune=1),
                           TINY_SPEC, seed=2)
    assert [r.n_classes for r in reports] == [2, 4, 6]
    for r in reports:
        assert r.confusion.shape == (r.n_classes, r.n_classes)
        # every seen class's test samples are evaluated
        assert r.confusion.sum() == r.n_classes * 4


def test_protocol_first_iteration_distill_near_zero():
    ds = generate_synthetic(4, 10, 4, image_size=8, difficulty=0.5, seed=9)
    protocol = ProtocolConfig(total_classes=4, initial_classes=2, increment=2,
                              budget=PerClass(4), epochs_initial=1, epochs_step=1)
    reports = run_protocol(protocol, ds, tiny_settings(epochs_finetune=1),
                           TINY_SPEC, seed=3)
    assert reports[0].first_distill is None
    assert abs(reports[1].first_distill) <= 1e-9


def test_protocol_old_snapshot_never_mutates():
    settings = tiny_settings()
    ctx, ds = make_ctx(epochs=1, seed=10)
    run_stage1(ctx)
    ctx.store.add_and_trim(construct_exemplars(ctx.state, ds, [0, 1], 4), 2)

    old = clone_state(ctx.state, requires_grad=False)
    old_hash = state_hash(old)
    grown = expand_classifier(ctx.state, 1, SplitMix64(77))
    ds2 = generate_synthetic(3, 8, 4, image_size=8, difficulty=0.5, seed=11)
    images, labels = ds2.subset("train", [2])
    ctx2 = StepContext(step=2, old_class_ids=[0, 1], new_class_ids=[2],
                       old_state=old, state=grown, store=ctx.store,
                       new_images=images, new_labels=labels,
                       label_map=np.arange(3, dtype=np.int64),
                       settings=settings, epochs_stage1=2,
                       stream=SplitMix64(12))
    run_stage1(ctx2)
    assert state_hash(old) == old_hash
    ctx2.store.add_and_trim(construct_exemplars(grown, ds2, [2], 4), 3)
    run_balanced_finetune(ctx2)
    assert state_hash(old) == old_hash


def test_context_rejects_overlapping_classes():
    with pytest.raises(ConfigError, match="overlap"):
        ctx, _ = make_ctx()
        StepContext(step=2, old_class_ids=[0], new_class_ids=[0, 1],
                    old_state=None, state=ctx.state, store=ctx.store,
                    new_images=ctx.new_images, new_labels=ctx.new_labels,
                    label_map=ctx.label_map, settings=ctx.settings,
                    epochs_stage1=1, stream=SplitMix64(0))


def test_non_finite_gradient_names_its_step_epoch_and_batch(monkeypatch):
    # step 2's stage 1 trains on 8 exemplars + 24 new images in batches of 8:
    # four optimizer steps per epoch, so its sixth is epoch 1, batch 1
    ds = generate_synthetic(4, 12, 4, image_size=8, difficulty=0.5, seed=9)
    protocol = ProtocolConfig(total_classes=4, initial_classes=2, increment=2,
                              budget=PerClass(4), epochs_initial=1, epochs_step=2)
    stage1_steps, step2_updates = [], []
    stage1, adam_step = E.run_stage1, AdamW.step

    def recording_stage1(ctx):
        stage1_steps.append(ctx.step)
        return stage1(ctx)

    def poisoning_step(self, lrs):
        if stage1_steps[-1] == 2:
            if len(step2_updates) == 5:
                p = next(iter(self.groups[0].params.values()))
                p.grad = np.full_like(p.data, np.nan)
            step2_updates.append(lrs)
        adam_step(self, lrs)

    monkeypatch.setattr(E, "run_stage1", recording_stage1)
    monkeypatch.setattr(AdamW, "step", poisoning_step)
    with pytest.raises(TrainingDiverged) as info:
        run_protocol(protocol, ds, tiny_settings(batch_size=8, epochs_finetune=1),
                     TINY_SPEC, seed=3)
    exc = info.value
    assert (exc.step, exc.epoch, exc.batch) == (2, 1, 1)
    assert str(exc).startswith("non-finite gradient in ")
    assert str(exc).endswith("during stage-1 at step 2, epoch 1, batch 1")


# --- herding: one pooled pass over every requested class ---------------------

# training images per class, in the order the tests request the classes: with
# C = EMBED_CHUNK, the cumulative ends 1, C + 1, 2C, 5C + 1, 5C + 1 + C // 2
# and 6C + 4 + C // 2 fall inside, just past and on the chunk boundaries
CHUNK = M.EMBED_CHUNK
HERD_SIZES = {0: 1, 3: CHUNK, 2: CHUNK - 1, 5: 3 * CHUNK + 1, 1: CHUNK // 2,
              4: CHUNK + 3}
HERD_BUDGET = 20


def _herding_dataset():
    """Random images whose classes interleave, plus three test rows each."""
    rng = np.random.default_rng(21)
    sizes = [HERD_SIZES[c] for c in range(len(HERD_SIZES))]
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), np.add(sizes, 3)))
    train = np.sort(np.concatenate([np.flatnonzero(labels == c)[:n]
                                    for c, n in enumerate(sizes)]))
    return LabeledDataset(
        images=rng.integers(0, 256, (len(labels), 3, 8, 8), dtype=np.uint8),
        labels=labels, train_indices=train,
        test_indices=np.setdiff1d(np.arange(len(labels)), train),
        num_classes=len(sizes))


def _herding_state(spec):
    state = init_model(replace(spec, num_classes=len(HERD_SIZES)), SplitMix64(22))
    rng = np.random.default_rng(23)
    for name, buf in state.buffers.items():       # running stats off 0 and 1
        buf[:] = rng.uniform(0.5, 1.5, buf.shape) if "var" in name else \
            rng.normal(0, 0.1, buf.shape)
    return state


def _herd_class_alone(state, ds, cid, budget):
    """One forward of the class's images on this thread, then greedy herding."""
    idx = ds.class_indices("train", cid)
    f = forward_features(state, Tensor(ds.images[idx].astype(np.float64) / 255.0),
                         "eval").data
    f = f / np.maximum(np.linalg.norm(f, axis=1, keepdims=True), NORM_EPS)
    return ds.images[idx[greedy_sq_oracle(f, budget)]]


@pytest.mark.parametrize("spec", [TINY_SPEC, CONV_SPEC], ids=["patchify", "conv"])
def test_construct_exemplars_is_bitwise_per_class_herding(spec, monkeypatch):
    ds, state = _herding_dataset(), _herding_state(spec)
    expected = {c: _herd_class_alone(state, ds, c, HERD_BUDGET) for c in HERD_SIZES}
    assert [len(v) for v in expected.values()] == [min(n, HERD_BUDGET)
                                                   for n in HERD_SIZES.values()]
    interval = sys.getswitchinterval()
    # one worker, and more workers than cores switching as often as they can
    for workers in (1, 4):
        with ThreadPoolExecutor(workers) as pool, monkeypatch.context() as m:
            m.setattr(M, "_EMBED_POOL", pool)
            sys.setswitchinterval(1e-6)
            try:
                got = construct_exemplars(state, ds, list(HERD_SIZES), HERD_BUDGET)
            finally:
                sys.setswitchinterval(interval)
        assert list(got) == list(HERD_SIZES), workers
        for c in HERD_SIZES:
            assert got[c].dtype == np.uint8 and np.array_equal(got[c], expected[c]), \
                (workers, c)


def test_construct_exemplars_chunks_run_across_classes(monkeypatch):
    seen = []
    forward = M.forward_features

    def spy(st, images, mode="eval"):
        seen.append(images.shape[0])
        return forward(st, images, mode)

    monkeypatch.setattr(M, "forward_features", spy)
    construct_exemplars(_herding_state(TINY_SPEC), _herding_dataset(),
                        list(HERD_SIZES), HERD_BUDGET)
    total = sum(HERD_SIZES.values())
    # chunks finish in any order; all but the pass's last are full
    assert sorted(seen, reverse=True) == \
        [M.EMBED_CHUNK] * (total // M.EMBED_CHUNK) + [total % M.EMBED_CHUNK]


def test_construct_exemplars_raises_a_chunk_error_and_keeps_working(monkeypatch):
    ds, state = _herding_dataset(), _herding_state(CONV_SPEC)
    forward = M.forward_features

    def fail_short_chunk(st, images, mode="eval"):
        if images.shape[0] < M.EMBED_CHUNK:
            raise RuntimeError("chunk failed")
        return forward(st, images, mode)

    with monkeypatch.context() as m:
        m.setattr(M, "forward_features", fail_short_chunk)
        with pytest.raises(RuntimeError, match="chunk failed"):
            construct_exemplars(state, ds, list(HERD_SIZES), HERD_BUDGET)
    got = construct_exemplars(state, ds, [5, 0], HERD_BUDGET)
    for c in (5, 0):
        assert np.array_equal(got[c], _herd_class_alone(state, ds, c, HERD_BUDGET))


def test_construct_exemplars_of_no_class_is_empty():
    assert construct_exemplars(_herding_state(TINY_SPEC), _herding_dataset(),
                               [], HERD_BUDGET) == {}


# the SHA-256 of the exemplar store that `configs/example.ini` writes, recorded
# before herding became one pooled pass; a herding change that moves a single
# pick changes it. A threaded GEMM's bits depend on its thread count, which
# importing tinycil pins to one: the same bytes at any OPENBLAS_NUM_THREADS.
EXAMPLE_STORE_SHA256 = "bf8f9ff846685b3a3b83e072eeae63c6cb42d9b9ffc7ae56b27895d20c38df1a"
# the same run's summary and checkpoints: a byte moved by the binary framing,
# the CSV writer or the training that feeds them fails here
EXAMPLE_ARTIFACT_SHA256 = {
    "summary.csv": "ec889d20b87d158083bb2daf8b522b21c0dbffd0642db0e158a68275af53103d",
    "checkpoints/step_01.cilm":
        "913875e7b01dc051d78aa7b4dd32644a00fdbd88b0fbd4c4f7a3207b43ef25a9",
    "checkpoints/step_02.cilm":
        "8892e511f2c42798e712fa341a950a7c40599ddb9fd2b3409f72f1d8f78f1cd6",
}


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_example_config_writes_the_recorded_exemplar_store(tmp_path, blas_threads):
    run_fresh_python("-m", "tinycil", "run", "--config", str(ROOT / "configs" / "example.ini"),
                     "--out", str(tmp_path / "run"), OPENBLAS_NUM_THREADS=blas_threads)
    store = (tmp_path / "run" / "exemplars_02.cilx").read_bytes()
    assert hashlib.sha256(store).hexdigest() == EXAMPLE_STORE_SHA256
    for name, digest in EXAMPLE_ARTIFACT_SHA256.items():
        data = (tmp_path / "run" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


# a patchify-stem run with the margin-ranking loss on two incremental steps:
# the taped attention/MLP path, the hinge and the optimizer that the conv-stem
# pin above leaves out. Its summary, final checkpoint and final exemplar store
# were recorded before the optimizer updated one flat parameter vector.
PATCHIFY_MARGIN_INI = """
[protocol]
total_classes = 6
initial_classes = 2
increment = 2
budget = per_class:10
epochs_initial = 10
epochs_step = 5

[data]
classes = 6
per_class_train = 32
per_class_test = 10
image_size = 16
seed = 5

[model]
stem = patchify
patch_size = 4
embed_dim = 32
num_blocks = 2

[train]
batch_size = 16
balanced_finetune = off

[augment]
hflip = off
mixup = off
cutmix = off
margin_ranking = on

[run]
seed = 3
"""
PATCHIFY_MARGIN_SHA256 = {
    "summary.csv": "cafb991d2e021e4a3ea1ec2138a21771cd5d881f0225b42c9661e34a924fed42",
    "checkpoints/step_03.cilm":
        "f47fee786a42d1d6ec8b3c369d9f9486a748f387d42b0e2f699a1f055cd87405",
    "exemplars_03.cilx": "ab64ecef93851a44136d43e7379a84d498b667a88f3ad5e21c73a4c5a37ab5fc",
}


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_patchify_margin_run_writes_the_recorded_bytes(tmp_path, blas_threads):
    config = tmp_path / "patchify_margin.ini"
    config.write_text(PATCHIFY_MARGIN_INI)
    run_fresh_python("-m", "tinycil", "run", "--config", str(config),
                     "--out", str(tmp_path / "run"), OPENBLAS_NUM_THREADS=blas_threads)
    for name, digest in PATCHIFY_MARGIN_SHA256.items():
        data = (tmp_path / "run" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
