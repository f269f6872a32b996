"""Deterministic SplitMix64 random streams.

Every random decision in the package (class shuffling, weight init,
augmentation, batch sampling) flows through one of these streams, so a run
is exactly reproducible from its named seeds. Child streams are derived
from the parent's *initial* seed and a label, never from the parent's
position, so the draw order of one consumer cannot perturb another.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_DRAW_BLOCK = 1 << 15      # draws per pass of `uniforms` and `normals`


def _mix64(z: int) -> int:
    # SplitMix64 output mix (Steele, Lea, Flood 2014).
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _mix64_inplace(z: np.ndarray) -> None:
    # vectorized _mix64 over z; uint64 arithmetic wraps modulo 2**64
    tmp = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 0)):
        z ^= np.right_shift(z, np.uint64(shift), out=tmp)
        if mult:
            z *= np.uint64(mult)


class SplitMix64:
    """A SplitMix64 stream with labelled, order-independent children."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def child(self, label: str) -> "SplitMix64":
        """Derive a child stream from this stream's seed and a label."""
        return SplitMix64(_mix64(self.seed ^ _fnv1a64(label.encode("utf-8"))))

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def uniform(self) -> float:
        """float64 in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform draws, bit-identical to n calls of `uniform`, computed in
        place _DRAW_BLOCK at a time so the scratch does not grow with n."""
        out = np.empty(n)
        for start in range(0, n, _DRAW_BLOCK):
            z = np.arange(1, min(_DRAW_BLOCK, n - start) + 1, dtype=np.uint64)
            z *= np.uint64(_GAMMA)
            z += np.uint64(self._state)
            self._state = int(z[-1])
            _mix64_inplace(z)
            out[start:start + len(z)] = np.right_shift(z, np.uint64(11), out=z)
        out *= 1.0 / (1 << 53)
        return out

    def normal(self) -> float:
        """Standard normal via Box-Muller; two draws per value, no caching."""
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, shape, std: float = 1.0) -> np.ndarray:
        """Box-Muller over `uniforms`, in place, _DRAW_BLOCK draws at a time."""
        out = np.empty(int(np.prod(shape)) if shape else 1)
        for start in range(0, out.size, _DRAW_BLOCK // 2):
            radius = out[start:start + _DRAW_BLOCK // 2]
            u = self.uniforms(2 * radius.size)
            np.log(np.subtract(1.0, u[0::2], out=radius), out=radius)
            np.sqrt(np.multiply(radius, -2.0, out=radius), out=radius)
            angle = np.multiply(u[1::2], 2.0 * np.pi)
            radius *= np.cos(angle, out=angle)
        out *= std
        return out.reshape(shape)

    def gamma(self, alpha: float) -> float:
        """Gamma(alpha, 1) via Marsaglia-Tsang, boosted for alpha < 1."""
        if alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if alpha < 1.0:
            # Gamma(a) = Gamma(a+1) * U^(1/a)
            u = self.uniform()
            while u <= 0.0:
                u = self.uniform()
            return self.gamma(alpha + 1.0) * u ** (1.0 / alpha)
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            u = self.uniform()
            if u < 1.0 - 0.0331 * x ** 4:
                return d * v
            if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v

    def beta(self, a: float, b: float) -> float:
        x = self.gamma(a)
        y = self.gamma(b)
        return x / (x + y)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), descending swap order."""
        perm = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.next_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
