"""Augmentation pipeline contracts."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from tinycil import augment
from tinycil.augment import (AugmentConfig, SoftBatch, augment_batch, cutmix,
                             hflip, mixup, one_hot)
from tinycil.rng import SplitMix64


def _batch(b=6, num_classes=10, seed=0, h=16):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, (b, 3, h, h))
    labels = rng.integers(0, num_classes, b)
    return images, labels


# --- mixup ---------------------------------------------------------------------

def test_mixup_lam_one_is_identity():
    images, labels = _batch()
    batch = SoftBatch(images, one_hot(labels, 10, smoothing=0.0),
                      np.zeros(len(images), bool))
    out = mixup(batch, 1.0, SplitMix64(1))
    np.testing.assert_array_equal(out.images, images)
    np.testing.assert_array_equal(out.targets, one_hot(labels, 10, smoothing=0.0))


def test_mixup_half_mixes_two_labels():
    images = np.zeros((2, 3, 4, 4))
    labels = np.array([2, 7])
    batch = SoftBatch(images, one_hot(labels, 10, smoothing=0.0),
                      np.zeros(len(images), bool))
    out = mixup(batch, 0.5, SplitMix64(2))
    for row in out.targets:
        nz = np.nonzero(row)[0]
        if len(nz) == 2:
            assert set(nz) == {2, 7}
            np.testing.assert_allclose(row[nz], 0.5)


def test_mixup_pixel_identity():
    images, labels = _batch(b=4, seed=3)
    batch = SoftBatch(images, one_hot(labels, 10, smoothing=0.0),
                      np.zeros(len(images), bool))
    stream = SplitMix64(4)
    perm = SplitMix64(4).permutation(4)  # same draw the op will make
    out = mixup(batch, 0.3, stream)
    np.testing.assert_allclose(out.images, 0.3 * images + 0.7 * images[perm])


# --- cutmix --------------------------------------------------------------------

def test_cutmix_zero_area_is_identity():
    images, labels = _batch(seed=6)
    batch = SoftBatch(images, one_hot(labels, 10, smoothing=0.0),
                      np.zeros(len(images), bool))
    out = cutmix(batch, 0.0, SplitMix64(7))
    np.testing.assert_array_equal(out.images, images)
    np.testing.assert_array_equal(out.targets, batch.targets)


def test_cutmix_full_box_is_partner():
    images, labels = _batch(seed=8)
    batch = SoftBatch(images, one_hot(labels, 10, smoothing=0.0),
                      np.zeros(len(images), bool))
    stream = SplitMix64(9)
    perm = SplitMix64(9).permutation(images.shape[0])
    out = cutmix(batch, 1.0, stream)
    np.testing.assert_array_equal(out.images, images[perm])
    np.testing.assert_array_equal(out.targets, batch.targets[perm])


def test_cutmix_quarter_box_weight_exact(monkeypatch):
    monkeypatch.setattr(augment, "_paste_box", lambda *args: (2, 3, 10, 11))
    images, labels = _batch(b=4, seed=10, h=16)
    batch = SoftBatch(images, one_hot(labels, 10, smoothing=0.0),
                      np.zeros(len(images), bool))
    out = cutmix(batch, 0.25, SplitMix64(11))
    perm = SplitMix64(11).permutation(4)
    expected = 0.75 * batch.targets + 0.25 * batch.targets[perm]
    np.testing.assert_allclose(out.targets, expected)
    # pasted region is exactly the partner pixels
    np.testing.assert_array_equal(out.images[:, :, 2:10, 3:11],
                                  images[perm][:, :, 2:10, 3:11])


def test_cutmix_box_stays_in_bounds_and_weight_matches():
    rng = np.random.default_rng(12)
    for trial in range(30):
        lam = rng.uniform(0, 1)
        images, labels = _batch(b=3, seed=trial)
        batch = SoftBatch(images, one_hot(labels, 10, smoothing=0.0),
                          np.zeros(len(images), bool))
        out = cutmix(batch, lam, SplitMix64(trial))
        np.testing.assert_allclose(out.targets.sum(axis=1), 1.0, atol=1e-9)


# --- pipeline ------------------------------------------------------------------

def test_targets_always_sum_to_one():
    cfg = AugmentConfig()
    for seed in range(20):
        images, labels = _batch(seed=seed)
        out = augment_batch(images, labels, 10, cfg, SplitMix64(seed))
        np.testing.assert_allclose(out.targets.sum(axis=1), 1.0, atol=1e-9)


def test_disabled_pipeline_gives_exact_one_hots():
    cfg = AugmentConfig(hflip=False, mixup=False, cutmix=False,
                        label_smoothing=0.0)
    images, labels = _batch(seed=13)
    out = augment_batch(images, labels, 10, cfg, SplitMix64(14))
    np.testing.assert_array_equal(out.images, images)
    np.testing.assert_array_equal(out.targets, one_hot(labels, 10, smoothing=0.0))
    assert set(np.unique(out.targets)) <= {0.0, 1.0}


def test_mixing_without_smoothing_at_most_two_nonzero(monkeypatch):
    monkeypatch.setattr(augment, "MIX_PROB", 1.0)
    cfg = AugmentConfig(label_smoothing=0.0, hflip=False)
    for seed in range(10):
        images, labels = _batch(seed=seed)
        out = augment_batch(images, labels, 10, cfg, SplitMix64(100 + seed))
        assert ((out.targets > 0).sum(axis=1) <= 2).all()


def test_same_seed_bit_identical():
    cfg = AugmentConfig()
    images, labels = _batch(seed=15)
    a = augment_batch(images, labels, 10, cfg, SplitMix64(77))
    b = augment_batch(images, labels, 10, cfg, SplitMix64(77))
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.targets, b.targets)


def test_hflip_reverses_width():
    images = np.arange(2 * 1 * 2 * 3, dtype=float).reshape(2, 1, 2, 3)
    out = hflip(images, np.array([True, False]))
    np.testing.assert_array_equal(out[0], images[0][:, :, ::-1])
    np.testing.assert_array_equal(out[1], images[1])


def test_smoothing_mixes_toward_uniform():
    t = one_hot(np.array([3]), 10, smoothing=0.1)
    assert t[0, 3] == pytest.approx(0.9 + 0.01)
    assert t[0, 0] == pytest.approx(0.01)
    assert t.sum() == pytest.approx(1.0)


# --- what the pipeline reports ---------------------------------------------------

def _mix_draw(seed, b, cfg):
    """The apply-mixing uniform augment_batch draws from SplitMix64(seed)."""
    stream = SplitMix64(seed)
    if cfg.hflip:
        stream.uniforms(b)
    return stream.uniform()


@pytest.mark.parametrize("seed", range(6))
def test_flipped_marks_exactly_the_mirrored_rows(seed):
    cfg = AugmentConfig(mixup=False, cutmix=False)
    images, labels = _batch(seed=seed)
    out = augment_batch(images, labels, 10, cfg, SplitMix64(seed))
    np.testing.assert_array_equal(out.flipped, SplitMix64(seed).uniforms(6) < 0.5)
    np.testing.assert_array_equal(out.images[out.flipped],
                                  images[out.flipped][:, :, :, ::-1])
    np.testing.assert_array_equal(out.images[~out.flipped], images[~out.flipped])
    assert not out.mixed


def test_flipped_is_all_false_without_hflip(monkeypatch):
    monkeypatch.setattr(augment, "MIX_PROB", 1.0)
    cfg = AugmentConfig(hflip=False)
    images, labels = _batch(seed=16)
    out = augment_batch(images, labels, 10, cfg, SplitMix64(17))
    assert out.flipped.dtype == bool and out.flipped.shape == (6,)
    assert not out.flipped.any()


@pytest.mark.parametrize("cfg,b", [
    # each cfg is (AugmentConfig, MIX_PROB)
    ((AugmentConfig(mixup=False, cutmix=False), 1.0), 6),
    ((AugmentConfig(), 1.0), 1),
    ((AugmentConfig(), 0.0), 6),
])
def test_unmixed_batches_say_so(monkeypatch, cfg, b):
    # an unmixed batch, a batch of one included, passes its images (mirrored
    # where `flipped` says) and its smoothed one-hot targets through
    cfg, mix_prob = cfg
    monkeypatch.setattr(augment, "MIX_PROB", mix_prob)
    images, labels = _batch(b=b, seed=18)
    out = augment_batch(images, labels, 10, cfg, SplitMix64(19))
    assert not out.mixed
    np.testing.assert_array_equal(out.images, hflip(images, out.flipped))
    np.testing.assert_array_equal(out.targets, one_hot(labels, 10, cfg.label_smoothing))


@pytest.mark.parametrize("mixup,cutmix", [(True, False), (False, True), (True, True)])
@pytest.mark.parametrize("hflip", [True, False])
def test_mixed_follows_the_mix_draw(monkeypatch, mixup, cutmix, hflip):
    images, labels = _batch(seed=20)
    cfg = AugmentConfig(hflip=hflip, mixup=mixup, cutmix=cutmix)
    for seed in range(21, 29):
        u = _mix_draw(seed, 6, cfg)
        for mix_prob, mixed in ((u, False), (np.nextafter(u, 1.0), True)):
            monkeypatch.setattr(augment, "MIX_PROB", float(mix_prob))
            out = augment_batch(images, labels, 10, cfg, SplitMix64(seed))
            assert out.mixed is mixed, (seed, mix_prob)


def test_mixing_keeps_the_flip_mask(monkeypatch):
    monkeypatch.setattr(augment, "MIX_PROB", 1.0)
    images, labels = _batch(seed=29)
    out = augment_batch(images, labels, 10, AugmentConfig(), SplitMix64(30))
    assert out.mixed
    np.testing.assert_array_equal(out.flipped, SplitMix64(30).uniforms(6) < 0.5)


# Digests of augment_batch's images, targets and the stream's next draw,
# recorded before SoftBatch reported `flipped` and `mixed`. Seed 0 leaves the
# batch unmixed, seed 2 draws Mixup and seed 6 CutMix.
GOLDEN_DIGESTS = {0: "39e43f89dd21f274", 2: "96bc2247a94a9c00",
                  6: "3e07c5e51ae0e70d"}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_seeded_batches_and_draws_are_unchanged(seed):
    b, h = 6, 8
    images = SplitMix64(seed).uniforms(b * 3 * h * h).reshape(b, 3, h, h)
    stream = SplitMix64(100 + seed)
    out = augment_batch(images, np.arange(b) % 10, 10, AugmentConfig(), stream)
    digest = hashlib.sha256(out.images.tobytes() + out.targets.tobytes()
                            + str(stream.next_u64()).encode()).hexdigest()
    assert digest[:16] == GOLDEN_DIGESTS[seed]
