"""AdamW with decoupled decay, parameter groups, and warmup-cosine schedule.

Learning rates are stated at a reference batch size of 512 and scaled by
batch_size/512 at schedule time. Each group holds its parameter tensors, so
the optimizer trains exactly the tensors its groups hold; a stage that trains
part of the model (the balanced finetune trains only the classifier) passes
only the groups of that part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingDiverged
from .tensor import Tensor

REFERENCE_BATCH = 512


@dataclass
class ParamGroup:
    name: str
    params: dict[str, Tensor]      # names are unique across an optimizer's groups
    base_lr: float                 # at the reference batch size
    weight_decay: float = 0.0


@dataclass
class ScheduleConfig:
    """Per-group peak LRs plus the warmup-cosine shape."""

    peak_lr: dict[str, float]
    total_epochs: int
    warmup_epochs: int = 0
    min_lr: float = 1e-5
    batch_size: int = REFERENCE_BATCH

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ConfigError("total_epochs must be >= 1")
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} must be < total_epochs "
                f"{self.total_epochs}")
        for name, lr in self.peak_lr.items():
            scaled = scaled_base_lr(lr, self.batch_size)
            if self.min_lr > scaled:
                raise ConfigError(
                    f"min_lr {self.min_lr} exceeds scaled peak {scaled} for "
                    f"group {name!r}")


def scaled_base_lr(base_lr: float, batch_size: int) -> float:
    """Linear LR scaling: base_lr * batch_size / REFERENCE_BATCH."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    return base_lr * batch_size / REFERENCE_BATCH


def lr_at_epoch(cfg: ScheduleConfig, group: str, epoch: int) -> float:
    """Linear warmup min->peak, then cosine decay peak->min at total-1."""
    if not 0 <= epoch < cfg.total_epochs:
        raise ConfigError(
            f"epoch {epoch} outside [0, {cfg.total_epochs}) for group {group!r}")
    peak = scaled_base_lr(cfg.peak_lr[group], cfg.batch_size)
    lo = min(cfg.min_lr, peak)
    if epoch < cfg.warmup_epochs:
        return lo + (peak - lo) * epoch / cfg.warmup_epochs
    span = cfg.total_epochs - 1 - cfg.warmup_epochs
    if span <= 0:
        return peak
    frac = (epoch - cfg.warmup_epochs) / span
    return lo + 0.5 * (peak - lo) * (1.0 + math.cos(math.pi * frac))


def global_grad_norm(params: dict[str, Tensor]) -> float:
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    return math.sqrt(total)


@dataclass
class AdamW:
    """Decoupled weight decay Adam over the tensors its groups hold."""

    groups: list[ParamGroup]
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 0.0          # 0 disables the global-norm clip
    _m: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _v: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _t: int = 0

    def _params(self) -> dict[str, Tensor]:
        return {name: p for g in self.groups for name, p in g.params.items()}

    def zero_grad(self) -> None:
        for t in self._params().values():
            t.grad = None

    def step(self, lrs: dict[str, float]) -> None:
        """One update; `lrs` maps group name to this step's learning rate."""
        params = self._params()
        for name, p in params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise TrainingDiverged(f"non-finite gradient in {name!r}")
        if self.grad_clip > 0.0:
            norm = global_grad_norm(params)
            if norm > self.grad_clip:
                scale = self.grad_clip / norm
                for t in params.values():
                    if t.grad is not None:
                        t.grad = t.grad * scale
        self._t += 1
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        for group in self.groups:
            lr = lrs[group.name]
            for name, p in group.params.items():
                g = p.grad
                if g is None:
                    continue
                if group.weight_decay:
                    p.data *= (1.0 - lr * group.weight_decay)
                if name not in self._m:
                    self._m[name] = np.zeros_like(p.data)
                    self._v[name] = np.zeros_like(p.data)
                m = self._m[name]
                v = self._v[name]
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * (g * g)
                p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
