"""AdamW with decoupled decay, parameter groups, and warmup-cosine schedule.

Learning rates are stated at a reference batch size of 512 and scaled by
batch_size/512 at schedule time. Each group holds its parameter tensors, so
the optimizer trains exactly the tensors its groups hold; a stage that trains
part of the model (the balanced finetune trains only the classifier) passes
only the groups of that part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TapeError, TrainingDiverged
from .tensor import Tensor

REFERENCE_BATCH = 512
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class ParamGroup:
    name: str
    params: dict[str, Tensor]      # names are unique across an optimizer's groups
    base_lr: float                 # at the reference batch size
    weight_decay: float = 0.0


def scaled_base_lr(base_lr: float, batch_size: int) -> float:
    """Linear LR scaling: base_lr * batch_size / REFERENCE_BATCH."""
    return base_lr * batch_size / REFERENCE_BATCH


def lr_at_epoch(peak: float, floor: float, epoch: int, total_epochs: int,
                warmup_epochs: int) -> float:
    """Linear warmup floor->peak, then one SGDR cosine peak->floor that reaches
    the floor at total_epochs-1. Callers keep warmup_epochs < total_epochs."""
    if not 0 <= epoch < total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs})")
    if epoch < warmup_epochs:
        return floor + (peak - floor) * epoch / warmup_epochs
    span = total_epochs - 1 - warmup_epochs
    if span <= 0:
        return peak
    frac = (epoch - warmup_epochs) / span
    return floor + 0.5 * (peak - floor) * (1.0 + math.cos(math.pi * frac))


class AdamW:
    """Decoupled weight decay Adam over the tensors its groups hold, with β1,
    β2 and ε fixed at BETA1, BETA2 and ADAM_EPS. Each tensor's `.data` becomes
    its view of one vector, group after group, and a step updates one group's
    slice at a time. A `.grad` that is None (TapeError) or not finite stops a
    step before any parameter, moment or the step count moves."""

    def __init__(self, groups: list[ParamGroup]):
        self.groups = groups
        self._named = [(name, p) for g in groups for name, p in g.params.items()]
        if (len({name for name, _ in self._named}) < len(self._named)
                or len({id(p) for _, p in self._named}) < len(self._named)):
            raise ConfigError("a parameter appears in more than one optimizer group")
        self._data = np.concatenate([p.data for _, p in self._named], axis=None)
        self._m, self._v = np.zeros((2, self._data.size))
        self._t = 0
        self._spans, start = [], 0
        for group in groups:
            first = start
            for p in group.params.values():
                p.data = self._data[start:start + p.data.size].reshape(p.data.shape)
                start += p.data.size
            self._spans.append((group, first, start))

    def zero_grad(self) -> None:
        for _, p in self._named:
            p.grad = None

    def step(self, lrs: dict[str, float]) -> None:
        """One update; `lrs` maps group name to this step's learning rate."""
        if missing := [name for name, p in self._named if p.grad is None]:
            raise TapeError(f"no gradient for {missing}: the loss must reach every parameter")
        grad = np.concatenate([p.grad for _, p in self._named], axis=None)
        if not np.isfinite(grad).all():
            for name, p in self._named:
                if not np.isfinite(p.grad).all():
                    raise TrainingDiverged(f"non-finite gradient in {name!r}")
        self._t += 1
        bc1 = 1.0 - BETA1 ** self._t
        bc2 = 1.0 - BETA2 ** self._t
        for group, start, stop in self._spans:
            lr = lrs[group.name]
            p, g = self._data[start:stop], grad[start:stop]
            m, v = self._m[start:stop], self._v[start:stop]
            if group.weight_decay:
                p *= (1.0 - lr * group.weight_decay)
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
