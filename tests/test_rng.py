"""SplitMix64 stream determinism and distribution sanity."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import one_shot_normals, one_shot_uniforms

from tinycil.rng import _DRAW_BLOCK as BLOCK
from tinycil.rng import SplitMix64

# Known SplitMix64 outputs for seed 1234567 (as published with the algorithm's
# reference implementation; verified against an independent implementation).
SPLITMIX_SEED = 1234567
SPLITMIX_FIRST = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_reference_sequence():
    s = SplitMix64(SPLITMIX_SEED)
    assert [s.next_u64() for _ in range(5)] == SPLITMIX_FIRST


def test_vectorized_uniforms_match_scalar():
    a = SplitMix64(99)
    b = SplitMix64(99)
    batch = a.uniforms(257)
    singles = np.array([b.uniform() for _ in range(257)])
    np.testing.assert_array_equal(batch, singles)
    # streams stay aligned afterwards
    assert a.next_u64() == b.next_u64()


def test_vectorized_normals_match_scalar():
    a = SplitMix64(7)
    b = SplitMix64(7)
    batch = a.normals((10,))
    singles = np.array([b.normal() for _ in range(10)])
    np.testing.assert_allclose(batch, singles, rtol=1e-15)


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 100_000])
def test_blocked_uniforms_are_the_one_shot_formula(n):
    a, b = SplitMix64(99), SplitMix64(99)
    a.next_u64(), b.next_u64()                 # start mid-stream
    assert a.uniforms(n).tobytes() == one_shot_uniforms(b, n).tobytes()
    assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize("shape", [(), (0,), (1,), (BLOCK // 2 - 1,), (BLOCK // 2,),
                                   (BLOCK // 2 + 1,), (104, 3, 16, 16)])
@pytest.mark.parametrize("std", [1.0, 0.125])
def test_blocked_normals_are_the_one_shot_formula(shape, std):
    a, b = SplitMix64(7), SplitMix64(7)
    got = a.normals(shape, std=std)
    want = one_shot_normals(b, shape, std)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert a.next_u64() == b.next_u64()


def test_children_are_order_independent():
    s = SplitMix64(42)
    c1 = s.child("augment")
    s.next_u64()
    s.next_u64()
    c2 = s.child("augment")
    assert c1.seed == c2.seed
    assert s.child("sampling").seed != c1.seed


def test_permutation_is_bijection_and_deterministic():
    p1 = SplitMix64(5).permutation(50)
    p2 = SplitMix64(5).permutation(50)
    np.testing.assert_array_equal(p1, p2)
    assert sorted(p1.tolist()) == list(range(50))


def test_next_below_bounds_and_error():
    s = SplitMix64(3)
    draws = [s.next_below(7) for _ in range(200)]
    assert min(draws) >= 0 and max(draws) < 7
    with pytest.raises(ValueError):
        s.next_below(0)


def test_beta_range_and_uniform_case():
    s = SplitMix64(11)
    draws = np.array([s.beta(1.0, 1.0) for _ in range(500)])
    assert ((draws >= 0) & (draws <= 1)).all()
    # Beta(1,1) is uniform: mean near .5
    assert abs(draws.mean() - 0.5) < 0.05
    skew = np.array([s.beta(0.8, 0.8) for _ in range(200)])
    assert ((skew >= 0) & (skew <= 1)).all()


def test_normal_moments():
    s = SplitMix64(13)
    z = s.normals((4000,))
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 1.0) < 0.05


def test_uniform_moments():
    s = SplitMix64(17)
    u = s.uniforms(4000)
    assert ((u >= 0) & (u < 1)).all()
    assert abs(u.mean() - 0.5) < 0.02
    assert abs(u.var() - 1.0 / 12) < 0.01
