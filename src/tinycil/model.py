"""Micro vision transformer with interchangeable stems and a cosine head.

The backbone is a standard pre-norm ViT; the input stem is either a patchify
projection or a stack of stride-2 conv/batch-norm/relu layers whose final
channel count equals the embedding width. Two specs that differ only in
stem_kind produce models whose parameter sets differ only in `stem.*` names
(token counts match when patch_size == 2**stem_depth), which is what makes
the stem comparison fair. The classifier stores one raw weight row per class
plus a learnable softmax temperature; rows and features are L2-normalized
inside the forward pass so the temperature stays identifiable.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .binio import Reader, write_file
from .errors import ConfigError, DataFormatError, ShapeError
from .rng import SplitMix64
from .tensor import Tensor

TEMPERATURE_FLOOR = 1e-3
INIT_STD = 0.02
# Images per untaped eval-mode forward. Each `embed` worker holds ~60 KB per
# image, so this sets the peak memory of evaluation and herding; smaller
# chunks cost more GIL handovers (at 64, `embed` took 10% longer).
EMBED_CHUNK = 80
# `embed`'s chunks run here, one worker per core this process may use (the
# CPU count where the OS has no affinity call). numpy's GEMMs and ufuncs, GELU's
# erf included, release the GIL, so the chunks really run at once.
_EMBED_POOL = ThreadPoolExecutor(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1, thread_name_prefix="tinycil-embed")

CHECKPOINT_MAGIC = b"CILM"
CHECKPOINT_VERSION = 1
_KIND_BACKBONE, _KIND_CLASSIFIER, _KIND_BUFFER = 0, 1, 2


@dataclass(frozen=True)
class ModelSpec:
    """Architecture hyperparameters; construction enforces the token arithmetic."""

    image_size: int = 16
    in_channels: int = 3
    stem_kind: str = "patchify"          # "patchify" | "conv"
    patch_size: int = 4
    stem_depth: int = 2
    stem_channels: tuple[int, ...] = (16, 32)
    embed_dim: int = 32
    num_blocks: int = 2
    num_heads: int = 2
    mlp_ratio: float = 4.0
    num_classes: int = 10

    def __post_init__(self):
        for name in ("image_size", "in_channels", "patch_size", "stem_depth",
                     "embed_dim", "num_heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_blocks < 0:
            raise ConfigError(f"num_blocks must be >= 0, got {self.num_blocks}")
        if not math.isfinite(self.mlp_ratio * self.embed_dim) or self.mlp_hidden < 1:
            raise ConfigError(
                f"mlp_ratio * embed_dim must round to a finite MLP width >= 1, "
                f"got {self.mlp_ratio} * {self.embed_dim}")
        if self.stem_kind not in ("patchify", "conv"):
            raise ConfigError(f"unknown stem_kind {self.stem_kind!r}")
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.stem_kind == "patchify":
            if self.image_size % self.patch_size != 0:
                raise ConfigError(
                    f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        else:
            if len(self.stem_channels) != self.stem_depth or min(self.stem_channels) < 1:
                raise ConfigError(
                    f"stem_channels {list(self.stem_channels)} must list "
                    f"{self.stem_depth} positive layer widths")
            if self.stem_channels[-1] != self.embed_dim:
                raise ConfigError(
                    f"last stem channel {self.stem_channels[-1]} must equal embed_dim {self.embed_dim}")
            if self.image_size % (2 ** self.stem_depth) != 0:
                raise ConfigError(
                    f"image_size {self.image_size} too small for {self.stem_depth} stride-2 layers")

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.embed_dim))

    @property
    def grid_size(self) -> int:
        if self.stem_kind == "patchify":
            return self.image_size // self.patch_size
        return self.image_size // (2 ** self.stem_depth)

    @property
    def token_count(self) -> int:
        return self.grid_size ** 2


@dataclass
class ModelState:
    """All learnable parameters plus batch-norm running buffers."""

    spec: ModelSpec
    backbone: dict[str, Tensor]
    classifier: dict[str, Tensor]        # "weight" [C, d], "temperature" [1]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def temperature(self) -> float:
        return self.classifier["temperature"].item()

    def named_parameters(self) -> dict[str, Tensor]:
        """Backbone and classifier parameters under disjoint name prefixes."""
        out = {f"backbone.{k}": v for k, v in self.backbone.items()}
        out.update({f"classifier.{k}": v for k, v in self.classifier.items()})
        return out

    def arrays(self):
        """Yield `(kind, name, array)` for every entry, in layout order."""
        for kind, entries in enumerate((self.backbone, self.classifier, self.buffers)):
            for name, v in entries.items():
                yield kind, name, v if kind == _KIND_BUFFER else v.data


def layout(spec: ModelSpec):
    """Yield `(kind, name, shape, init)` for every checkpoint entry, in file order.

    The backbone comes first in init order, then the classifier weight and
    temperature, then the batch-norm running buffers. `init` is "normal" (an
    INIT_STD draw, taken from the init stream in this order), "zeros", "ones"
    or "eta" (the initial temperature). Nothing is allocated, so a walk over
    an absurd spec costs only the entries consumed.
    """
    d = spec.embed_dim
    backbone, head, buffer = _KIND_BACKBONE, _KIND_CLASSIFIER, _KIND_BUFFER
    if spec.stem_kind == "patchify":
        pdim = spec.in_channels * spec.patch_size ** 2
        yield backbone, "stem.proj_weight", (pdim, d), "normal"
        yield backbone, "stem.proj_bias", (d,), "zeros"
    else:
        c_in = spec.in_channels
        for i, c_out in enumerate(spec.stem_channels):
            yield backbone, f"stem.conv{i}_kernel", (c_out, c_in, 3, 3), "normal"
            yield backbone, f"stem.conv{i}_gain", (c_out,), "ones"
            yield backbone, f"stem.conv{i}_bias", (c_out,), "zeros"
            c_in = c_out
    yield backbone, "cls_token", (1, 1, d), "normal"
    yield backbone, "pos_embed", (1, spec.token_count + 1, d), "normal"
    hidden = spec.mlp_hidden
    block = (("ln1_gain", (d,), "ones"), ("ln1_bias", (d,), "zeros"),
             ("qkv_weight", (d, 3 * d), "normal"), ("qkv_bias", (3 * d,), "zeros"),
             ("proj_weight", (d, d), "normal"), ("proj_bias", (d,), "zeros"),
             ("ln2_gain", (d,), "ones"), ("ln2_bias", (d,), "zeros"),
             ("mlp1_weight", (d, hidden), "normal"), ("mlp1_bias", (hidden,), "zeros"),
             ("mlp2_weight", (hidden, d), "normal"), ("mlp2_bias", (d,), "zeros"))
    for i in range(spec.num_blocks):
        for name, shape, init in block:
            yield backbone, f"block{i}.{name}", shape, init
    yield backbone, "final_norm_gain", (d,), "ones"
    yield backbone, "final_norm_bias", (d,), "zeros"
    yield head, "weight", (spec.num_classes, d), "normal"
    yield head, "temperature", (1,), "eta"
    if spec.stem_kind == "conv":
        for i, c in enumerate(spec.stem_channels):
            yield buffer, f"stem.conv{i}_running_mean", (c,), "zeros"
            yield buffer, f"stem.conv{i}_running_var", (c,), "ones"


def _state(spec: ModelSpec, entries, requires_grad: bool) -> ModelState:
    """ModelState from `(kind, name, array)` triples; parameters get tracked
    when `requires_grad` is on."""
    groups = ({}, {}, {})                # indexed by entry kind
    for kind, name, arr in entries:
        groups[kind][name] = (arr if kind == _KIND_BUFFER
                              else Tensor(arr, requires_grad=requires_grad))
    return ModelState(spec, *groups)


def init_model(spec: ModelSpec, stream: SplitMix64, eta_init: float = 10.0) -> ModelState:
    """Fresh model; all weights drawn from the given stream in layout order."""
    rng = stream.child("init")
    fill = {"zeros": 0.0, "ones": 1.0, "eta": eta_init}
    return _state(spec, (
        (kind, name, rng.normals(shape, std=INIT_STD) if init == "normal"
         else np.full(shape, fill[init], dtype=np.float64))
        for kind, name, shape, init in layout(spec)), True)


# ---------------------------------------------------------------------------
# forward

def patchify_forward(state: ModelState, images: Tensor) -> Tensor:
    """Non-overlapping patches, row-major, each linearly projected."""
    spec = state.spec
    b, c, h, w = images.shape
    p = spec.patch_size
    g = h // p
    x = T.reshape(images, (b, c, g, p, g, p))
    x = T.transpose(x, (0, 2, 4, 1, 3, 5))            # [b, gh, gw, c, ph, pw]
    x = T.reshape(x, (b, g * g, c * p * p))
    return T.linear(x, state.backbone["stem.proj_weight"], state.backbone["stem.proj_bias"])


def conv_stem_forward(state: ModelState, images: Tensor, training: bool) -> Tensor:
    """Stride-2 conv / batch-norm / relu stack, flattened to tokens."""
    spec = state.spec
    cur = images
    for i in range(spec.stem_depth):
        cur = T.conv2d(cur, state.backbone[f"stem.conv{i}_kernel"], stride=2, padding=1)
        cur = T.batch_norm(cur, state.backbone[f"stem.conv{i}_gain"],
                           state.backbone[f"stem.conv{i}_bias"],
                           state.buffers[f"stem.conv{i}_running_mean"],
                           state.buffers[f"stem.conv{i}_running_var"],
                           training=training)
        cur = T.relu(cur)
    b, d, gh, gw = cur.shape
    cur = T.reshape(cur, (b, d, gh * gw))
    return T.transpose(cur, (0, 2, 1))                # [b, tokens, d]


def _attention(state: ModelState, block: int, x: Tensor, queries: int) -> Tensor:
    """Multi-head self-attention of the first `queries` tokens over all of `x`.

    q/k/v come from every token of `x` in one `T.linear`; `T.attention` then
    computes scores, softmax and the merged heads for the first `queries`
    rows only, and the output projection runs on those, so the result is
    `[b, queries, d]`. The last block passes 1: only the CLS row is read
    after it.
    """
    p = state.backbone
    qkv = T.linear(x, p[f"block{block}.qkv_weight"], p[f"block{block}.qkv_bias"])
    out = T.attention(qkv, state.spec.num_heads, queries)
    return T.linear(out, p[f"block{block}.proj_weight"], p[f"block{block}.proj_bias"])


def _mlp(state: ModelState, block: int, x: Tensor) -> Tensor:
    """Two `T.linear` projections with an exact GELU between them."""
    p = state.backbone
    h = T.gelu(T.linear(x, p[f"block{block}.mlp1_weight"], p[f"block{block}.mlp1_bias"]))
    return T.linear(h, p[f"block{block}.mlp2_weight"], p[f"block{block}.mlp2_bias"])


def forward_features(state: ModelState, images, mode: str) -> Tensor:
    """CLS-token feature after the final block and final norm.

    Only the CLS row is read. The last block therefore takes its keys and
    values from every token and then narrows to the CLS row: its query,
    attention output, residuals and MLP run on `[b, 1, d]`, and the final
    norm on `[b, d]`. With no blocks the CLS row is taken before the final
    norm.

    `mode` only switches batch-norm between batch and running statistics;
    recording onto a gradient tape is controlled by the caller's Tape context.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    spec = state.spec
    x = images if isinstance(images, Tensor) else Tensor(images)
    if x.data.ndim != 4 or x.shape[1:] != (spec.in_channels, spec.image_size, spec.image_size):
        raise ShapeError(
            f"expected images [b, {spec.in_channels}, {spec.image_size}, "
            f"{spec.image_size}], got {x.shape}")
    if spec.stem_kind == "conv":
        tokens = conv_stem_forward(state, x, training=(mode == "train"))
    else:
        tokens = patchify_forward(state, x)
    b = x.shape[0]
    cls = state.backbone["cls_token"] * Tensor(np.ones((b, 1, 1)))
    seq = T.concat([cls, tokens], axis=1) + state.backbone["pos_embed"]
    for i in range(spec.num_blocks):
        h = T.layer_norm(seq, state.backbone[f"block{i}.ln1_gain"],
                         state.backbone[f"block{i}.ln1_bias"])
        if i == spec.num_blocks - 1:
            seq = seq[:, :1]                          # the CLS row
        seq = seq + _attention(state, i, h, queries=seq.shape[1])
        h = T.layer_norm(seq, state.backbone[f"block{i}.ln2_gain"],
                         state.backbone[f"block{i}.ln2_bias"])
        seq = seq + _mlp(state, i, h)
    return T.layer_norm(seq[:, 0, :], state.backbone["final_norm_gain"],
                        state.backbone["final_norm_bias"])


def embed(state: ModelState, images_u8: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Eval-mode features of `images_u8[rows]`; pass `images_u8[..., ::-1]`
    for the mirrored images. EMBED_CHUNK-row chunks run on the pool and
    gather and write their own rows, so no gathered copy of the images is
    made; no image's feature depends on the others, so neither does the
    result. Workers open no tape, so a caller's `Tape` records nothing. A
    chunk's error is raised by the call.
    """
    if images_u8.dtype != np.uint8:
        raise TypeError(f"embed takes uint8 images, got {images_u8.dtype}")
    feats = np.empty((len(rows), state.spec.embed_dim))

    def run_chunk(start: int) -> None:
        chunk = images_u8[rows[start:start + EMBED_CHUNK]].astype(np.float64)
        chunk /= 255.0
        feats[start:start + len(chunk)] = forward_features(
            state, Tensor(chunk), mode="eval").data

    list(_EMBED_POOL.map(run_chunk, range(0, len(rows), EMBED_CHUNK)))
    return feats


def cosine_scores(state: ModelState, features: Tensor) -> Tensor:
    """Cosine similarity of normalized features against normalized class rows."""
    fbar = T.l2_normalize(features, axis=-1)
    wbar = T.l2_normalize(state.classifier["weight"], axis=-1)
    return T.matmul(fbar, T.transpose(wbar, (1, 0)))


def head_probs(state: ModelState, scores: Tensor) -> Tensor:
    """Class probabilities: softmax over temperature-scaled cosine scores."""
    return T.softmax(scores * state.classifier["temperature"], axis=-1)


def cosine_logits(state: ModelState, features: Tensor) -> Tensor:
    """`head_probs` of the features' cosine scores."""
    return head_probs(state, cosine_scores(state, features))


def expand_classifier(state: ModelState, new_class_count: int,
                      stream: SplitMix64) -> ModelState:
    """Append freshly initialized weight rows; old rows and η are bit-preserved."""
    if new_class_count <= 0:
        raise ConfigError("new_class_count must be positive")
    rng = stream.child("expand")
    d = state.spec.embed_dim
    new_rows = rng.normals((new_class_count, d), std=INIT_STD)
    weight = np.concatenate([state.classifier["weight"].data, new_rows], axis=0)
    classifier = {
        "weight": Tensor(weight, requires_grad=True),
        "temperature": state.classifier["temperature"],
    }
    spec = replace(state.spec,
                   num_classes=state.spec.num_classes + new_class_count)
    return ModelState(spec=spec, backbone=state.backbone,
                      classifier=classifier, buffers=state.buffers)


def clamp_temperature(state: ModelState) -> None:
    """Keep η positive after optimizer steps; no-op when already above the floor."""
    eta = state.classifier["temperature"].data
    if eta[0] < TEMPERATURE_FLOOR:
        eta[0] = TEMPERATURE_FLOOR


def clone_state(state: ModelState, requires_grad: bool) -> ModelState:
    """Deep copy (used for the frozen old-model snapshot at each step)."""
    return _state(state.spec, ((kind, name, arr.copy())
                               for kind, name, arr in state.arrays()),
                  requires_grad)


def state_hash(state: ModelState, include_classifier: bool = True) -> str:
    """SHA-256 over entry names, shapes and exact bytes; order-independent."""
    h = hashlib.sha256()
    prefix = ("backbone.", "classifier.", "buffer.")     # indexed by entry kind
    entries = sorted((prefix[kind] + name, arr) for kind, name, arr in state.arrays()
                     if include_classifier or kind != _KIND_CLASSIFIER)
    for name, arr in entries:
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# checkpoint format: magic "CILM", spec fields, then named parameter blobs

def save_checkpoint(state: ModelState, path) -> None:
    spec = state.spec
    chunks = [struct.pack("<IIB", spec.image_size, spec.in_channels,
                          0 if spec.stem_kind == "patchify" else 1)]
    chunks.append(struct.pack("<II", spec.patch_size, spec.stem_depth))
    n_ch = len(spec.stem_channels)
    chunks.append(struct.pack(f"<I{n_ch}I", n_ch, *spec.stem_channels))
    chunks.append(struct.pack("<IIIdI", spec.embed_dim, spec.num_blocks,
                              spec.num_heads, spec.mlp_ratio, spec.num_classes))

    entries = list(state.arrays())
    chunks.append(struct.pack("<I", len(entries)))
    for kind, name, arr in entries:
        raw = name.encode("utf-8")
        chunks += [struct.pack("<BH", kind, len(raw)), raw,
                   struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
                   np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    write_file(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, chunks)


def load_checkpoint(path) -> ModelState:
    r = Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    image_size, in_channels, stem_code = r.unpack("<IIB")
    if stem_code not in (0, 1):
        raise DataFormatError(f"unknown stem code {stem_code}")
    patch_size, stem_depth = r.unpack("<II")
    (n_ch,) = r.unpack("<I")
    stem_channels = tuple(int(c) for c in r.array("<u4", n_ch))
    embed_dim, num_blocks, num_heads, mlp_ratio, num_classes = r.unpack("<IIIdI")
    try:
        spec = ModelSpec(image_size=image_size, in_channels=in_channels,
                         stem_kind="patchify" if stem_code == 0 else "conv",
                         patch_size=patch_size, stem_depth=stem_depth,
                         stem_channels=stem_channels, embed_dim=embed_dim,
                         num_blocks=num_blocks, num_heads=num_heads,
                         mlp_ratio=mlp_ratio, num_classes=num_classes)
    except ConfigError as exc:
        raise DataFormatError(f"checkpoint spec is invalid: {exc}") from None
    (n_entries,) = r.unpack("<I")
    # walk the layout in step with the file: each header must be the next
    # expected entry before its data is read
    entries = []
    for kind, name, shape, _ in layout(spec):
        if len(entries) == n_entries:
            raise DataFormatError(
                f"checkpoint ends after {n_entries} entries: {name!r} is missing")
        at = r.off
        got_kind, name_len = r.unpack("<BH")
        try:
            got_name = r.array("u1", name_len).tobytes().decode("utf-8")
        except UnicodeDecodeError:
            raise DataFormatError(
                f"parameter name is not UTF-8 at byte {r.off - name_len}") from None
        (ndim,) = r.unpack("<B")
        got = (got_kind, got_name, tuple(int(n) for n in r.array("<u4", ndim)))
        if got != (kind, name, shape):
            raise DataFormatError(
                f"checkpoint entry at byte {at} is {got}, expected "
                f"{(kind, name, shape)}")
        arr = r.array("<f8", math.prod(shape)).reshape(shape).copy()
        entries.append((kind, name, arr))
    if n_entries != len(entries):
        raise DataFormatError(
            f"checkpoint has {n_entries} entries, its spec has {len(entries)}")
    r.finish()
    return _state(spec, entries, True)
