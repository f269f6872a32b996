"""Shared test utilities: finite-difference gradient oracle, GC switch,
greedy herding oracle, one-shot random-draw oracles, per-tensor AdamW oracle,
fresh interpreters."""

from __future__ import annotations

import contextlib
import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh_python(*args: str, **env: str) -> str:
    """Run `python *args` in a new interpreter that imports tinycil from this
    checkout (with `env` added to the environment); returns its standard output."""
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env), timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@contextlib.contextmanager
def gc_disabled():
    """Inside the block only refcounting frees objects; cycles stay alive."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def fd_grad(loss_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. array x (in place)."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_fn()
        flat[i] = orig - h
        fm = loss_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Worst per-element relative error, floored by the arrays' scale.

    The floor keeps elements far below the gradient's magnitude from
    dominating: finite differences cannot resolve them beyond the
    truncation noise of the loss itself.
    """
    scale = max(1.0, float(np.abs(a).max(initial=0.0)),
                float(np.abs(b).max(initial=0.0)))
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3 * scale)
    return float(np.max(np.abs(a - b) / denom))


def greedy_sq_oracle(features: np.ndarray, budget: int) -> list[int]:
    """Naive greedy herding with `herding_select`'s per-candidate arithmetic.

    Candidates that tie in exact arithmetic then tie bit for bit in both,
    so the lowest index must win in both.
    """
    mu, running = features.mean(axis=0), np.zeros(features.shape[1])
    rest, chosen = list(range(len(features))), []
    for k in range(1, min(budget, len(features)) + 1):
        d2 = [np.sum(((running + features[i]) / k - mu) ** 2) for i in rest]
        best = min(range(len(rest)), key=lambda j: (d2[j], j))
        chosen.append(rest.pop(best))
        running += features[chosen[-1]]
    return chosen


def one_shot_uniforms(stream, n: int) -> np.ndarray:
    """`SplitMix64.uniforms` as one formula over all n states at once;
    advances `stream` past them."""
    states = np.uint64(stream._state) + (np.arange(1, n + 1, dtype=np.uint64)
                                         * np.uint64(0x9E3779B97F4A7C15))
    if n:
        stream._state = int(states[-1])
    z = (states ^ (states >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def one_shot_normals(stream, shape, std: float) -> np.ndarray:
    """`SplitMix64.normals` as one Box-Muller formula over `one_shot_uniforms`."""
    size = int(np.prod(shape)) if shape else 1
    u = one_shot_uniforms(stream, 2 * size)
    out = np.sqrt(-2.0 * np.log(1.0 - u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
    return (out * std).reshape(shape)


class ReferenceAdamW:
    """`optim.AdamW` as one loop over its tensors, with a moment pair per
    tensor: the update a flat-vector optimizer must reproduce bit for bit.
    A tensor whose `.grad` is None is skipped, its moments included."""

    def __init__(self, groups):
        self.groups = groups
        params = {name: p for g in groups for name, p in g.params.items()}
        self._m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self._v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self._t = 0

    def step(self, lrs: dict) -> None:
        from tinycil.optim import ADAM_EPS, BETA1, BETA2
        self._t += 1
        bc1 = 1.0 - BETA1 ** self._t
        bc2 = 1.0 - BETA2 ** self._t
        for group in self.groups:
            lr = lrs[group.name]
            for name, p in group.params.items():
                g = p.grad
                if g is None:
                    continue
                if group.weight_decay:
                    p.data *= (1.0 - lr * group.weight_decay)
                m = self._m[name]
                v = self._v[name]
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * (g * g)
                p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
