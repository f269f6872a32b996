"""Soft-label augmentation: horizontal flips, Mixup, CutMix, label smoothing.

Everything is a pure function of the batch and an explicit SplitMix64 stream,
so a seeded run reproduces its batches bit-for-bit. With all switches off the
pipeline emits exact one-hot targets (the hard-label mode the margin-ranking
baseline requires).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .rng import SplitMix64

# a batch is mixed with probability MIX_PROB, by Mixup or CutMix with a
# Beta(α, α) coefficient; the two α are DeiT's
MIX_PROB = 0.5
MIXUP_ALPHA = 0.8
CUTMIX_ALPHA = 1.0


@dataclass
class AugmentConfig:
    hflip: bool = True
    mixup: bool = True
    cutmix: bool = True
    label_smoothing: float = 0.1

    def __post_init__(self):
        if not 0 <= self.label_smoothing <= 1:
            raise ConfigError("label_smoothing must lie in [0, 1]")


@dataclass
class SoftBatch:
    """Images plus per-sample target weight rows (each summing to 1).

    `flipped` marks the rows mirrored by `hflip`; `mixed` says whether Mixup
    or CutMix blended rows, after which a row's pixels depend on its partner.
    """

    images: np.ndarray              # [b, c, h, w] float64
    targets: np.ndarray             # [b, num_classes]
    flipped: np.ndarray             # [b] bool
    mixed: bool = False


def one_hot(labels: np.ndarray, num_classes: int, smoothing: float) -> np.ndarray:
    targets = np.zeros((len(labels), num_classes), dtype=np.float64)
    targets[np.arange(len(labels)), labels] = 1.0
    if smoothing:
        targets = (1.0 - smoothing) * targets + smoothing / num_classes
    return targets


def hflip(images: np.ndarray, flip_mask: np.ndarray) -> np.ndarray:
    out = images.copy()
    out[flip_mask] = out[flip_mask][:, :, :, ::-1]
    return out


def mixup(batch: SoftBatch, lam: float, stream: SplitMix64) -> SoftBatch:
    """Blend each sample with a permuted partner at weight lam."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0,1], got {lam}")
    b = batch.images.shape[0]
    perm = stream.permutation(b)
    images = lam * batch.images + (1.0 - lam) * batch.images[perm]
    targets = lam * batch.targets + (1.0 - lam) * batch.targets[perm]
    return replace(batch, images=images, targets=targets, mixed=True)


def _paste_box(h: int, w: int, lam_area: float,
               stream: SplitMix64) -> tuple[int, int, int, int]:
    """A box of ~lam_area fraction, shifted to lie fully inside the image."""
    bh = int(round(h * math.sqrt(lam_area)))
    bw = int(round(w * math.sqrt(lam_area)))
    cy = stream.next_below(h)
    cx = stream.next_below(w)
    y0 = min(max(cy - bh // 2, 0), h - bh)
    x0 = min(max(cx - bw // 2, 0), w - bw)
    return y0, x0, y0 + bh, x0 + bw


def cutmix(batch: SoftBatch, lam_area: float, stream: SplitMix64) -> SoftBatch:
    """Paste a partner rectangle; target weight is the pasted pixel fraction."""
    if not 0.0 <= lam_area <= 1.0:
        raise ValueError(f"lam_area must be in [0,1], got {lam_area}")
    b, _, h, w = batch.images.shape
    perm = stream.permutation(b)
    y0, x0, y1, x1 = _paste_box(h, w, lam_area, stream)
    weight = ((y1 - y0) * (x1 - x0)) / (h * w)
    images = batch.images.copy()
    images[:, :, y0:y1, x0:x1] = batch.images[perm][:, :, y0:y1, x0:x1]
    targets = (1.0 - weight) * batch.targets + weight * batch.targets[perm]
    return replace(batch, images=images, targets=targets, mixed=True)


def augment_batch(images: np.ndarray, labels: np.ndarray, num_classes: int,
                  cfg: AugmentConfig, stream: SplitMix64) -> SoftBatch:
    """Full recipe: flips, smoothed one-hots, then maybe Mixup or CutMix.

    Draw order (fixed for reproducibility): per-sample flip uniforms, the
    apply-mixing uniform, the mixup/cutmix pick, the Beta coefficient, the
    partner permutation, then CutMix box coordinates.
    """
    b = images.shape[0]
    flipped = np.zeros(b, bool)
    if cfg.hflip:
        flipped = stream.uniforms(b) < 0.5
        images = hflip(images, flipped)
    targets = one_hot(labels, num_classes, smoothing=cfg.label_smoothing)
    batch = SoftBatch(images, targets, flipped)
    if not (cfg.mixup or cfg.cutmix) or b < 2:
        return batch
    if stream.uniform() >= MIX_PROB:
        return batch
    if cfg.mixup and cfg.cutmix:
        use_mixup = stream.uniform() < 0.5
    else:
        use_mixup = cfg.mixup
    if use_mixup:
        lam = stream.beta(MIXUP_ALPHA, MIXUP_ALPHA)
        return mixup(batch, lam, stream)
    lam = stream.beta(CUTMIX_ALPHA, CUTMIX_ALPHA)
    return cutmix(batch, lam, stream)
