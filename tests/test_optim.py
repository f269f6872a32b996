"""Optimizer and schedule contracts."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from tinycil import optim
from tinycil.engine import FINETUNE_LR_SCALE, TrainSettings, build_param_groups
from tinycil.errors import ConfigError, TapeError, TrainingDiverged
from tinycil.model import ModelSpec, init_model
from tinycil.optim import AdamW, ParamGroup, lr_at_epoch, scaled_base_lr
from tinycil.rng import SplitMix64
from tinycil.tensor import Tensor

from helpers import ReferenceAdamW


def _single(p, lr=1e-2, wd=0.0):
    params = {"w": p}
    groups = [ParamGroup("g", params, base_lr=lr, weight_decay=wd)]
    return params, AdamW(groups)


# --- LR scaling / schedule ----------------------------------------------------

def test_scaled_base_lr_values():
    assert scaled_base_lr(2.5e-4, 1024) == pytest.approx(5e-4)
    assert scaled_base_lr(2.5e-3, 512) == pytest.approx(2.5e-3)
    assert scaled_base_lr(2.5e-4, 64) == pytest.approx(3.125e-5)


def test_schedule_boundaries():
    # lr_at_epoch(peak, floor, epoch, total_epochs, warmup_epochs)
    assert lr_at_epoch(1e-2, 1e-5, 5, 20, 5) == pytest.approx(1e-2)
    assert lr_at_epoch(1e-2, 1e-5, 19, 20, 5) == pytest.approx(1e-5, abs=1e-12)
    mid = 5 + (19 - 5) // 2
    assert lr_at_epoch(1e-2, 1e-5, mid, 20, 5) == pytest.approx(
        (1e-2 + 1e-5) / 2, abs=1e-9)
    # one epoch after warmup: it is the peak, with no cosine span to decay
    assert lr_at_epoch(1.0, 0.1, 2, 3, 2) == 1.0
    assert lr_at_epoch(1.0, 0.1, 1, 3, 2) == pytest.approx(0.55)


def test_schedule_warmup_is_linear_from_min():
    lrs = [lr_at_epoch(1e-2, 1e-4, e, 10, 4) for e in range(4)]
    assert lrs[0] == pytest.approx(1e-4)
    diffs = np.diff(lrs)
    np.testing.assert_allclose(diffs, diffs[0])


def test_schedule_is_deterministic_and_range_checked():
    assert [lr_at_epoch(3e-3, 1e-5, e, 8, 2) for e in range(8)] == \
           [lr_at_epoch(3e-3, 1e-5, e, 8, 2) for e in range(8)]
    for epoch in (8, -1):
        with pytest.raises(ConfigError):
            lr_at_epoch(3e-3, 1e-5, epoch, 8, 2)


# --- AdamW ---------------------------------------------------------------------

def test_zero_grad_no_decay_leaves_params():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    before = p.data.copy()
    params, opt = _single(p, wd=0.0)
    p.grad = np.zeros(3)
    opt.step({"g": 1e-2})
    np.testing.assert_array_equal(p.data, before)


def test_zero_grad_decay_multiplies():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    before = p.data.copy()
    params, opt = _single(p, wd=0.24)
    p.grad = np.zeros(3)
    opt.step({"g": 0.01})
    np.testing.assert_allclose(p.data, before * (1 - 0.0024))


def test_first_step_is_signed_lr(monkeypatch):
    monkeypatch.setattr(optim, "ADAM_EPS", 1e-12)
    p = Tensor(np.zeros(4), requires_grad=True)
    params, opt = _single(p)
    p.grad = np.array([0.5, -0.3, 2.0, -1e-3])
    opt.step({"g": 1e-2})
    np.testing.assert_allclose(p.data, -1e-2 * np.sign(p.grad), rtol=1e-6)


def test_zero_lr_bit_identical():
    p = Tensor(np.array([1.0, -0.5, 3.1415]), requires_grad=True)
    params, opt = _single(p, wd=0.24)
    before = p.data.copy()
    for _ in range(3):
        p.grad = np.array([0.3, -0.7, 1.1])
        opt.step({"g": 0.0})
    np.testing.assert_array_equal(p.data, before)


def test_ten_x_group_ratio():
    a = Tensor(np.full(3, 0.5), requires_grad=True)
    b = Tensor(np.full(3, 0.5), requires_grad=True)
    groups = [ParamGroup("lo", {"a": a}, base_lr=1e-3),
              ParamGroup("hi", {"b": b}, base_lr=1e-2)]
    opt = AdamW(groups)
    a.grad = np.array([0.2, -0.4, 0.9])
    b.grad = a.grad.copy()
    opt.step({"lo": 1e-3, "hi": 1e-2})
    da = 0.5 - a.data
    db = 0.5 - b.data
    np.testing.assert_allclose(db / da, 10.0, rtol=1e-9)


def test_nan_grad_aborts_before_update():
    # a NaN or a None gradient raises, naming its tensor, and the step moves
    # no parameter, moment or step count: the next step is bit for bit a
    # fresh optimizer's first
    for bad, error in ((np.array([np.nan]), TrainingDiverged), (None, TapeError)):
        p, q, p_ref, q_ref = (Tensor(np.array(v), requires_grad=True)
                              for v in ([1.0, 2.0], [0.5], [1.0, 2.0], [0.5]))
        opt, fresh = (AdamW([ParamGroup("g", params, base_lr=1e-2, weight_decay=0.24)])
                      for params in ({"p": p, "q": q}, {"p": p_ref, "q": q_ref}))
        before = p.data.copy(), q.data.copy()
        p.grad, q.grad = np.array([0.3, -0.2]), bad
        with pytest.raises(error, match="'q'"):
            opt.step({"g": 1e-2})
        assert np.array_equal(p.data, before[0]) and np.array_equal(q.data, before[1])
        for t, g in ((p, [0.3, -0.2]), (q, [0.7]), (p_ref, [0.3, -0.2]), (q_ref, [0.7])):
            t.grad = np.array(g)
        opt.step({"g": 1e-2})
        fresh.step({"g": 1e-2})
        assert np.array_equal(p.data, p_ref.data) and np.array_equal(q.data, q_ref.data)


def test_param_groups_partition_the_state_parameters():
    # each stage's groups come from build_param_groups: every parameter of the
    # state must sit in exactly one group, as the state's own Tensor object
    stage1 = TrainSettings()
    finetune = replace(stage1,
                       backbone_lr=stage1.backbone_lr * FINETUNE_LR_SCALE)
    for stem in ("patchify", "conv"):
        spec = ModelSpec(image_size=8, stem_kind=stem, patch_size=4,
                         stem_channels=(8, 16), embed_dim=16, num_blocks=2,
                         num_classes=3)
        state = init_model(spec, SplitMix64(1))
        for settings in (stage1, finetune):
            groups = build_param_groups(state, settings)
            grouped = [(name, t) for g in groups for name, t in g.params.items()]
            params = state.named_parameters()
            assert sorted(name for name, _ in grouped) == sorted(params)
            assert all(t is params[name] for name, t in grouped)


def test_zero_grads_helper():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    p.grad = np.ones(2)
    q.grad = np.ones(3)
    AdamW([ParamGroup("g", {"p": p}, base_lr=1e-3),
           ParamGroup("h", {"q": q}, base_lr=1e-3)]).zero_grad()
    assert p.grad is None and q.grad is None


def test_flat_step_matches_the_per_tensor_oracle_bit_for_bit():
    # every group kind of a stage-1 optimizer, the 1-element temperature
    # included; LRs change every step
    spec = ModelSpec(image_size=8, patch_size=4, embed_dim=16, num_blocks=2,
                     num_classes=3)
    settings = TrainSettings()
    flat_state, ref_state = (init_model(spec, SplitMix64(4)) for _ in range(2))
    flat_groups = build_param_groups(flat_state, settings)
    ref_groups = build_param_groups(ref_state, settings)
    assert [g.name for g in flat_groups] == ["backbone", "backbone_nodecay",
                                             "classifier", "classifier_nodecay"]
    assert flat_groups[3].params["classifier.temperature"].size == 1
    flat, ref = AdamW(flat_groups), ReferenceAdamW(ref_groups)
    flat_params, ref_params = flat_state.named_parameters(), ref_state.named_parameters()
    rng = np.random.default_rng(0)
    for step in range(8):
        for name, p in flat_params.items():
            p.grad = rng.standard_normal(p.shape)
            ref_params[name].grad = p.grad.copy()
        lrs = {g.name: g.base_lr * (1.0 + step) / 8 for g in flat_groups}
        flat.step(lrs)
        ref.step(lrs)
        for name, p in flat_params.items():
            assert np.array_equal(p.data, ref_params[name].data), (step, name)
        flat.zero_grad()
    assert all(p.grad is None for p in flat_params.values())


@pytest.mark.parametrize("shared", ["name", "tensor"])
def test_a_parameter_in_two_groups_is_rejected(shared):
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    second = {"a": b} if shared == "name" else {"b": a}
    with pytest.raises(ConfigError, match="more than one"):
        AdamW([ParamGroup("g", {"a": a}, base_lr=1e-3),
               ParamGroup("h", second, base_lr=1e-3)])
