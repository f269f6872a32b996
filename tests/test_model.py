"""Model contracts: stems, cosine head, expansion, checkpoints."""

from __future__ import annotations

import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import gc_disabled

from tinycil import model as M
from tinycil import tensor as T
from tinycil.engine import cross_entropy
from tinycil.errors import ConfigError, DataFormatError, ShapeError
from tinycil.rng import SplitMix64


def toy_spec(**kw):
    base = dict(image_size=16, in_channels=3, stem_kind="patchify", patch_size=4,
                stem_depth=2, stem_channels=(16, 32), embed_dim=32, num_blocks=2,
                num_heads=2, mlp_ratio=4.0, num_classes=10)
    base.update(kw)
    return M.ModelSpec(**base)


def toy_images(n, spec, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, spec.in_channels, spec.image_size, spec.image_size))


# --- token arithmetic --------------------------------------------------------

def test_full_scale_token_counts():
    conv = M.ModelSpec(image_size=224, stem_kind="conv", stem_depth=4,
                       stem_channels=(24, 48, 96, 192), embed_dim=192,
                       num_blocks=11, num_heads=3, num_classes=100)
    patch = M.ModelSpec(image_size=224, stem_kind="patchify", patch_size=16,
                        embed_dim=192, num_blocks=12, num_heads=3, num_classes=100)
    assert conv.token_count == 196
    assert patch.token_count == 196


def test_toy_token_counts_and_parity():
    conv = toy_spec(stem_kind="conv")
    patch = toy_spec()
    assert conv.token_count == 16
    assert patch.token_count == 16


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        toy_spec(patch_size=5)
    with pytest.raises(ConfigError):
        toy_spec(stem_kind="conv", stem_channels=(16, 16))  # last != embed
    with pytest.raises(ConfigError):
        toy_spec(stem_kind="conv", stem_depth=3, stem_channels=(8, 16, 32),
                 image_size=12)
    with pytest.raises(ConfigError):
        toy_spec(embed_dim=30, num_heads=4)
    # round(0.01 * 32) = 0 hidden units
    with pytest.raises(ConfigError, match="mlp_ratio"):
        toy_spec(embed_dim=32, mlp_ratio=0.01)
    assert toy_spec(embed_dim=32, mlp_ratio=1 / 32).mlp_hidden == 1


# --- forward ------------------------------------------------------------------

@pytest.mark.parametrize("stem", ["patchify", "conv"])
def test_forward_shape_and_determinism(stem):
    spec = toy_spec(stem_kind=stem)
    state = M.init_model(spec, SplitMix64(1))
    imgs = toy_images(3, spec)
    f1 = M.forward_features(state, imgs, mode="eval")
    f2 = M.forward_features(state, imgs, mode="eval")
    assert f1.shape == (3, spec.embed_dim)
    np.testing.assert_array_equal(f1.data, f2.data)


def test_forward_identical_states_zero_cosine_distance():
    spec = toy_spec()
    state = M.init_model(spec, SplitMix64(2))
    twin = M.clone_state(state, requires_grad=True)
    imgs = toy_images(2, spec)
    fa = M.forward_features(state, imgs, mode="eval").data
    fb = M.forward_features(twin, imgs, mode="eval").data
    cos = (fa * fb).sum(axis=1) / (np.linalg.norm(fa, axis=1) * np.linalg.norm(fb, axis=1))
    np.testing.assert_allclose(1.0 - cos, 0.0, atol=1e-12)


def test_forward_rejects_bad_dims_and_mode():
    spec = toy_spec()
    state = M.init_model(spec, SplitMix64(3))
    with pytest.raises(ShapeError):
        M.forward_features(state, np.zeros((2, 3, 8, 8)), mode="eval")
    with pytest.raises(ValueError):
        M.forward_features(state, toy_images(1, spec), mode="predict")


def test_conv_stem_zero_input_finite():
    spec = toy_spec(stem_kind="conv")
    state = M.init_model(spec, SplitMix64(4))
    imgs = np.zeros((2, 3, 16, 16))
    out = M.forward_features(state, imgs, mode="train")
    assert np.isfinite(out.data).all()


def test_patchify_identity_weights_reproduce_pixels():
    spec = M.ModelSpec(image_size=4, in_channels=3, stem_kind="patchify",
                       patch_size=2, embed_dim=12, num_blocks=1, num_heads=2,
                       num_classes=2)
    state = M.init_model(spec, SplitMix64(5))
    state.backbone["stem.proj_weight"] = T.Tensor(np.eye(12), requires_grad=True)
    state.backbone["stem.proj_bias"] = T.Tensor(np.zeros(12), requires_grad=True)
    imgs = toy_images(1, spec, seed=9)
    tokens = M.patchify_forward(state, T.Tensor(imgs)).data
    expected = imgs.reshape(1, 3, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3, 5).reshape(1, 4, 12)
    np.testing.assert_allclose(tokens, expected)


def test_param_counts_differ_only_in_stem():
    conv = M.init_model(toy_spec(stem_kind="conv"), SplitMix64(6))
    patch = M.init_model(toy_spec(), SplitMix64(6))
    conv_counts, patch_counts = (
        {k: t.data.size for k, t in state.named_parameters().items()
         if not k.startswith("backbone.stem.")} for state in (conv, patch))
    assert conv_counts == patch_counts


# --- the last block computes only the CLS row ----------------------------------

def _reference_features(state, images, mode):
    """Every token through every block and the final norm, then row 0."""
    spec, p = state.spec, state.backbone
    x = T.Tensor(images)
    tokens = (M.conv_stem_forward(state, x, training=(mode == "train"))
              if spec.stem_kind == "conv" else M.patchify_forward(state, x))
    b, t = tokens.shape[:2]
    d, heads = spec.embed_dim, spec.num_heads
    dh = d // heads
    cls = p["cls_token"] * T.Tensor(np.ones((b, 1, 1)))
    seq = T.concat([cls, tokens], axis=1) + p["pos_embed"]
    for i in range(spec.num_blocks):
        h = T.layer_norm(seq, p[f"block{i}.ln1_gain"], p[f"block{i}.ln1_bias"])
        qkv = T.matmul(h, p[f"block{i}.qkv_weight"]) + p[f"block{i}.qkv_bias"]
        qkv = T.transpose(T.reshape(qkv, (b, t + 1, 3, heads, dh)), (2, 0, 3, 1, 4))
        scores = T.matmul(qkv[0], T.transpose(qkv[1], (0, 1, 3, 2))) / np.sqrt(dh)
        out = T.matmul(T.softmax(scores, axis=-1), qkv[2])
        out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, t + 1, d))
        seq = seq + T.matmul(out, p[f"block{i}.proj_weight"]) + p[f"block{i}.proj_bias"]
        h = T.layer_norm(seq, p[f"block{i}.ln2_gain"], p[f"block{i}.ln2_bias"])
        h = T.gelu(T.matmul(h, p[f"block{i}.mlp1_weight"]) + p[f"block{i}.mlp1_bias"])
        seq = seq + T.matmul(h, p[f"block{i}.mlp2_weight"]) + p[f"block{i}.mlp2_bias"]
    seq = T.layer_norm(seq, p["final_norm_gain"], p["final_norm_bias"])
    return seq[:, 0, :]


def _features_and_grads(forward, state, images, mode):
    state = M.clone_state(state, requires_grad=True)
    weights = np.random.default_rng(1).normal(size=(len(images), state.spec.embed_dim))
    with T.Tape() as tape:
        feats = forward(state, images, mode)
        loss = T.sum_(feats * weights)
    T.backward(tape, loss)
    return feats.data, {k: v.grad for k, v in state.backbone.items()}


_NARROWING_CASES = pytest.mark.parametrize(
    "stem,num_blocks,mode",
    [(s, n, m) for s in ("patchify", "conv") for n in range(4) for m in ("train", "eval")])


@_NARROWING_CASES
def test_cls_row_forward_matches_full_token_reference(stem, num_blocks, mode):
    spec = toy_spec(stem_kind=stem, num_blocks=num_blocks)
    state = M.init_model(spec, SplitMix64(30 + num_blocks))
    imgs = toy_images(4, spec, seed=num_blocks)
    feats, grads = _features_and_grads(
        lambda s, x, m: M.forward_features(s, x, mode=m), state, imgs, mode)
    ref_feats, ref_grads = _features_and_grads(_reference_features, state, imgs, mode)
    assert feats.shape == (4, spec.embed_dim)
    assert np.abs(feats - ref_feats).max() <= 1e-12 * np.abs(ref_feats).max()
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert ref is not None and grads[name] is not None, name
        assert np.abs(grads[name] - ref).max() <= 1e-10 * np.abs(ref).max(), name


@_NARROWING_CASES
def test_last_block_mlp_sees_only_cls_row(stem, num_blocks, mode, monkeypatch):
    spec = toy_spec(stem_kind=stem, num_blocks=num_blocks)
    state = M.init_model(spec, SplitMix64(40))
    seen = []
    gelu = T.gelu

    def spy(a):
        seen.append(a.shape)
        return gelu(a)

    monkeypatch.setattr(T, "gelu", spy)
    M.forward_features(state, toy_images(3, spec), mode=mode)
    hidden = int(spec.mlp_ratio * spec.embed_dim)
    full = (3, spec.token_count + 1, hidden)
    assert seen == [full] * (num_blocks - 1) + [(3, 1, hidden)] * (num_blocks > 0)


@pytest.mark.parametrize("stem,most", [("patchify", 39), ("conv", 46)])
def test_tape_nodes_per_training_batch(stem, most):
    # one node per projection and one per attention
    spec = toy_spec(stem_kind=stem)
    state = M.init_model(spec, SplitMix64(3))
    targets = np.eye(spec.num_classes)[np.arange(32) % spec.num_classes]
    with T.Tape() as tape:
        feats = M.forward_features(state, toy_images(32, spec), mode="train")
        cross_entropy(M.cosine_logits(state, feats), targets)
    assert len(tape) <= most


def _weakref_outputs(op, refs):
    """`op`, appending a weakref to each output array to `refs`."""
    def spy(*args, **kwargs):
        out = op(*args, **kwargs)
        refs.append(weakref.ref(out.data))
        return out
    return spy


def _conv_batch_grads(state, images, targets, monkeypatch=None, outputs=None):
    """Backward of one taped conv-stem batch; returns each parameter's
    gradient. With `outputs`, each op it names appends a weakref to its
    output arrays of the forward there, and all of them must be dead before
    backward."""
    for name, refs in (outputs or {}).items():
        monkeypatch.setattr(T, name, _weakref_outputs(getattr(T, name), refs))
    with gc_disabled(), T.Tape() as tape:
        feats = M.forward_features(state, images, mode="train")
        if outputs:
            monkeypatch.undo()
        loss = cross_entropy(M.cosine_logits(state, feats), targets)
        alive = {name: [ref() is not None for ref in refs]
                 for name, refs in (outputs or {}).items()}
        assert not any(map(any, alive.values())), alive
    T.backward(tape, loss)
    params = {**state.backbone, **state.classifier}
    grads = {name: p.grad for name, p in params.items()}
    for p in params.values():
        p.grad = None
    return grads


def test_conv_stem_batch_frees_what_no_backward_reads(monkeypatch):
    # batch norm keeps its normalized input, relu its mask and conv2d its
    # columns, and add keeps shapes: the conv and batch-norm outputs, the
    # concat and + pos_embed outputs and each residual sum die in the forward
    spec = toy_spec(stem_kind="conv")
    state = M.init_model(spec, SplitMix64(3))
    images = toy_images(32, spec)
    targets = np.eye(spec.num_classes)[np.arange(32) % spec.num_classes]
    outputs = {"conv2d": [], "batch_norm": [], "concat": [], "add": []}
    spied = _conv_batch_grads(state, images, targets, monkeypatch, outputs)
    assert [len(refs) for refs in outputs.values()] == [2, 2, 1, 1 + 2 * spec.num_blocks]
    plain = _conv_batch_grads(state, images, targets)
    assert spied.keys() == plain.keys()
    for name, g in spied.items():
        assert g.tobytes() == plain[name].tobytes(), name


# --- cosine head ---------------------------------------------------------------

def _head_state(weight, eta, spec=None):
    spec = spec or toy_spec(num_classes=weight.shape[0], embed_dim=weight.shape[1],
                            num_heads=1)
    state = M.init_model(spec, SplitMix64(7))
    state.classifier["weight"] = T.Tensor(weight, requires_grad=True)
    state.classifier["temperature"] = T.Tensor(np.array([eta]), requires_grad=True)
    return state


def test_cosine_logits_equidistant_is_uniform():
    w = np.eye(4)
    f = np.ones((1, 4))  # same angle to every axis row
    probs = M.cosine_logits(_head_state(w, eta=7.3), T.Tensor(f)).data
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)


def test_cosine_logits_zero_temperature_uniform():
    rng = np.random.default_rng(8)
    w = rng.uniform(-1, 1, (5, 8))
    f = rng.uniform(-1, 1, (3, 8))
    probs = M.cosine_logits(_head_state(w, eta=0.0), T.Tensor(f)).data
    np.testing.assert_allclose(probs, 0.2, atol=1e-12)


def test_cosine_logits_two_class_example():
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    f = np.array([[1.0, 0.0]])
    probs = M.cosine_logits(_head_state(w, eta=1.0), T.Tensor(f)).data
    np.testing.assert_allclose(probs, [[0.73106, 0.26894]], atol=1e-5)


def test_cosine_logits_scale_invariance():
    rng = np.random.default_rng(9)
    w = rng.uniform(-1, 1, (6, 8))
    f = rng.uniform(-1, 1, (4, 8))
    state = _head_state(w, eta=12.0)
    base = M.cosine_logits(state, T.Tensor(f)).data
    for alpha in (1e-3, 0.5, 7.0, 1e4):
        scaled = M.cosine_logits(state, T.Tensor(alpha * f)).data
        np.testing.assert_allclose(scaled, base, atol=1e-9)
        assert (scaled.argmax(axis=1) == base.argmax(axis=1)).all()


def test_temperature_monotonicity():
    rng = np.random.default_rng(10)
    w = rng.uniform(-1, 1, (5, 8))
    f = rng.uniform(-1, 1, (1, 8))
    last = 0.0
    for eta in (0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
        probs = M.cosine_logits(_head_state(w, eta=eta), T.Tensor(f)).data
        peak = probs.max()
        assert peak > last
        last = peak


def test_cosine_logits_zero_feature_flagged_not_nan():
    w = np.eye(3)
    state = _head_state(w, eta=5.0)
    with pytest.warns(RuntimeWarning):
        probs = M.cosine_logits(state, T.Tensor(np.zeros((1, 3)))).data
    assert np.isfinite(probs).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_cosine_logits_rows_sum_to_one():
    rng = np.random.default_rng(11)
    w = rng.uniform(-1, 1, (7, 16))
    f = rng.uniform(-1, 1, (5, 16))
    probs = M.cosine_logits(_head_state(w, eta=25.0), T.Tensor(f)).data
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


# --- classifier expansion -------------------------------------------------------

def test_expand_classifier_grows_and_preserves():
    spec = toy_spec(num_classes=4)
    state = M.init_model(spec, SplitMix64(12))
    old_w = state.classifier["weight"].data.copy()
    old_eta = state.classifier["temperature"].data.copy()
    grown = M.expand_classifier(state, 2, SplitMix64(13))
    assert grown.spec.num_classes == 6
    assert grown.classifier["weight"].shape == (6, spec.embed_dim)
    np.testing.assert_array_equal(grown.classifier["weight"].data[:4], old_w)
    np.testing.assert_array_equal(grown.classifier["temperature"].data, old_eta)
    # raw per-row cosine on old classes is unchanged by expansion; the
    # normalized rows are bit-identical, the dot summation order is BLAS's
    f = np.random.default_rng(14).uniform(-1, 1, (3, spec.embed_dim))
    np.testing.assert_array_equal(
        T.l2_normalize(state.classifier["weight"], axis=-1).data,
        T.l2_normalize(grown.classifier["weight"], axis=-1).data[:4])
    before = M.cosine_scores(state, T.Tensor(f)).data
    after = M.cosine_scores(grown, T.Tensor(f)).data[:, :4]
    np.testing.assert_allclose(before, after, atol=1e-12)
    new_norms = np.linalg.norm(grown.classifier["weight"].data[4:], axis=1)
    assert (new_norms > 0).all()


def test_expand_classifier_rejects_nonpositive():
    state = M.init_model(toy_spec(), SplitMix64(15))
    with pytest.raises(ConfigError):
        M.expand_classifier(state, 0, SplitMix64(16))


def test_clamp_temperature():
    state = M.init_model(toy_spec(), SplitMix64(17))
    state.classifier["temperature"].data[0] = -2.0
    M.clamp_temperature(state)
    assert state.temperature == pytest.approx(1e-3)
    state.classifier["temperature"].data[0] = 9.0
    M.clamp_temperature(state)
    assert state.temperature == 9.0


# --- checkpoint -----------------------------------------------------------------

@pytest.mark.parametrize("stem", ["patchify", "conv"])
def test_checkpoint_roundtrip_bit_exact(tmp_path, stem):
    spec = toy_spec(stem_kind=stem, num_classes=7)
    state = M.init_model(spec, SplitMix64(18))
    state.buffers and state.buffers.update(
        {k: v + 0.123 for k, v in state.buffers.items()})
    path = tmp_path / "model.cilm"
    M.save_checkpoint(state, path)
    loaded = M.load_checkpoint(path)
    assert loaded.spec == spec
    assert M.state_hash(loaded) == M.state_hash(state)
    imgs = toy_images(2, spec)
    np.testing.assert_array_equal(
        M.forward_features(state, imgs, mode="eval").data,
        M.forward_features(loaded, imgs, mode="eval").data)


def test_zero_blocks_valid(tmp_path):
    spec = toy_spec(num_blocks=0)
    state = M.init_model(spec, SplitMix64(21))
    M.save_checkpoint(state, tmp_path / "model.cilm")
    loaded = M.load_checkpoint(tmp_path / "model.cilm")
    assert M.state_hash(loaded) == M.state_hash(state)
    assert M.forward_features(loaded, toy_images(2, spec), mode="eval").shape == (2, 32)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.cilm"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match="bad magic"):
        M.load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    spec = toy_spec()
    state = M.init_model(spec, SplitMix64(19))
    path = tmp_path / "model.cilm"
    M.save_checkpoint(state, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(DataFormatError, match="truncated"):
        M.load_checkpoint(path)


def test_state_hash_changes_with_params():
    state = M.init_model(toy_spec(), SplitMix64(20))
    h0 = M.state_hash(state)
    state.backbone["cls_token"].data[0, 0, 0] += 1e-9
    assert M.state_hash(state) != h0


# --- embed -------------------------------------------------------------------

def _serial_embed(state, images_u8, flip, chunk):
    """Eval forwards of consecutive `chunk`-image slices, on this thread."""
    parts = [np.empty((0, state.spec.embed_dim))]
    for start in range(0, len(images_u8), chunk):
        x = images_u8[start:start + chunk].astype(np.float64) / 255.0
        if flip:
            x = x[..., ::-1]
        parts.append(M.forward_features(state, T.Tensor(x), "eval").data)
    return np.concatenate(parts)


def _embed_state(stem):
    state = M.init_model(toy_spec(stem_kind=stem), SplitMix64(11))
    rng = np.random.default_rng(5)
    for name, buf in state.buffers.items():       # running stats off 0 and 1
        buf[:] = rng.uniform(0.5, 1.5, buf.shape) if "var" in name else \
            rng.normal(0, 0.1, buf.shape)
    return state


def _u8_images(n, spec):
    rng = np.random.default_rng(n)
    return rng.integers(0, 256, (n, spec.in_channels, spec.image_size,
                                 spec.image_size), dtype=np.uint8)


@pytest.mark.parametrize("stem", ["patchify", "conv"])
@pytest.mark.parametrize("flip", [False, True])
def test_embed_is_bitwise_the_serial_chunked_forward(stem, flip, monkeypatch):
    state = _embed_state(stem)
    counts = (0, 1, M.EMBED_CHUNK - 1, M.EMBED_CHUNK, M.EMBED_CHUNK + 1, 300)
    expected = {}
    for n in counts:
        images = _u8_images(n, state.spec)
        got = M.embed(state, images[..., ::-1] if flip else images, np.arange(n))
        assert got.shape == (n, state.spec.embed_dim)
        # the pool's chunks, and 512-image chunks, run one after another
        for chunk in (M.EMBED_CHUNK, 512):
            assert np.array_equal(got, _serial_embed(state, images, flip, chunk)), (n, chunk)
        expected[n] = got
    # one worker, and more workers than cores switching as often as they can
    interval = sys.getswitchinterval()
    for workers in (1, 4):
        with ThreadPoolExecutor(workers) as pool, monkeypatch.context() as m:
            m.setattr(M, "_EMBED_POOL", pool)
            sys.setswitchinterval(1e-6)
            try:
                for n in counts:
                    images = _u8_images(n, state.spec)
                    got = M.embed(state, images[..., ::-1] if flip else images,
                                  np.arange(n))
                    assert np.array_equal(got, expected[n]), (workers, n)
            finally:
                sys.setswitchinterval(interval)


def test_embed_forwards_each_chunk_once(monkeypatch):
    state = _embed_state("patchify")
    seen = []
    forward = M.forward_features

    def spy(st, images, mode="eval"):
        seen.append((images.shape[0], mode))
        return forward(st, images, mode)

    monkeypatch.setattr(M, "forward_features", spy)
    M.embed(state, _u8_images(300, state.spec), np.arange(300))
    full, rest = divmod(300, M.EMBED_CHUNK)
    assert sorted(seen) == sorted([(M.EMBED_CHUNK, "eval")] * full + [(rest, "eval")])


# Traced peak of one eval forward of EMBED_CHUNK images on the benchmark
# workloads' conv spec, which each `embed` worker holds: the measured 4.72 MiB
# at 80 images plus a margin. 128 images with a copied bias sum and GELU
# output take 8.0 MiB.
CHUNK_FORWARD_PEAK_BOUND = 5.25 * 2**20


def test_an_eval_forward_of_one_chunk_stays_under_its_bound():
    spec = M.ModelSpec(image_size=16, in_channels=3, stem_kind="conv", stem_depth=2,
                       stem_channels=(16, 32), embed_dim=32, num_blocks=2,
                       num_heads=2, mlp_ratio=4.0, num_classes=10)
    state = M.init_model(spec, SplitMix64(1))
    images = T.Tensor(np.random.default_rng(2).uniform(0.0, 1.0,
                                                        (M.EMBED_CHUNK, 3, 16, 16)))
    M.forward_features(state, images, mode="eval")          # warm up
    tracemalloc.start()
    try:
        M.forward_features(state, images, mode="eval")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CHUNK_FORWARD_PEAK_BOUND, peak / 2**20


def test_embed_inside_a_tape_records_nothing():
    state = _embed_state("conv")
    images = _u8_images(300, state.spec)
    with T.Tape() as tape:
        feats = M.embed(state, images[..., ::-1], np.arange(300))
        assert T.active_tape() is tape
    assert len(tape) == 0
    assert np.array_equal(feats, _serial_embed(state, images, True, M.EMBED_CHUNK))


@pytest.mark.parametrize("stem", ["patchify", "conv"])
def test_embed_of_rows_is_the_serial_forward_of_those_images(stem):
    state = _embed_state(stem)
    images = _u8_images(200, state.spec)
    # rows repeat (7 and every multiple of 6 up to 144), skip (odd rows that
    # are not multiples of 3, and every row above 150) and cross a chunk boundary
    rows = np.r_[np.arange(150, 0, -2), np.arange(0, 150, 3), [7, 7]]
    assert len(rows) > M.EMBED_CHUNK
    for view, flip in ((images, False), (images[..., ::-1], True)):
        assert np.array_equal(M.embed(state, view, rows),
                              _serial_embed(state, images[rows], flip, M.EMBED_CHUNK))


def test_embed_raises_a_chunk_error_and_keeps_working(monkeypatch):
    state = _embed_state("conv")
    wrong = np.zeros((300, 3, 8, 8), dtype=np.uint8)      # spec wants 16x16
    with pytest.raises(ShapeError, match=r"expected images \[b, 3, 16, 16\]"):
        M.embed(state, wrong, np.arange(300))
    forward = M.forward_features

    def fail_short_chunk(st, images, mode="eval"):
        if images.shape[0] < M.EMBED_CHUNK:
            raise RuntimeError("chunk failed")
        return forward(st, images, mode)

    images = _u8_images(2 * M.EMBED_CHUNK + 1, state.spec)
    with monkeypatch.context() as m:                # only the last chunk fails
        m.setattr(M, "forward_features", fail_short_chunk)
        with pytest.raises(RuntimeError, match="chunk failed"):
            M.embed(state, images, np.arange(len(images)))
    assert np.array_equal(M.embed(state, images, np.arange(len(images))),
                          _serial_embed(state, images, False, M.EMBED_CHUNK))
