"""The CILD, CILX and CILM readers: exact consumption and corruption fuzzing."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tinycil.binio import atomic_open
from tinycil.data import generate_synthetic, load_dataset, save_dataset
from tinycil.errors import DataFormatError
from tinycil.memory import ExemplarStore, Total, load_store, save_store
from tinycil.metrics import StepReport, write_reports_jsonl
from tinycil.model import (ModelSpec, forward_features, init_model,
                           load_checkpoint, save_checkpoint)
from tinycil.rng import SplitMix64
from tinycil.tensor import Tensor


def _cild(path):
    save_dataset(generate_synthetic(3, 2, 1, image_size=4, difficulty=0.5, seed=1),
                 path)


def _cilx(path):
    ds = generate_synthetic(2, 3, 1, image_size=4, difficulty=0.5, seed=2)
    store = ExemplarStore(Total(4))
    store.add_and_trim({c: ds.images[ds.class_indices("train", c)]
                        for c in range(2)}, 2)
    save_store(store, path)


def _cilm_state():
    spec = ModelSpec(image_size=4, stem_kind="conv", stem_depth=1,
                     stem_channels=(4,), embed_dim=4, num_blocks=1,
                     num_heads=1, mlp_ratio=1.0, num_classes=2)
    return init_model(spec, SplitMix64(3))


def _cilm(path):
    save_checkpoint(_cilm_state(), path)


FORMATS = {"cild": (_cild, load_dataset), "cilx": (_cilx, load_store),
           "cilm": (_cilm, load_checkpoint)}


def _valid_blob(tmp_path, fmt: str) -> bytes:
    path = tmp_path / f"valid.{fmt}"
    FORMATS[fmt][0](path)
    return path.read_bytes()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_trailing_bytes_rejected(tmp_path, fmt):
    path = tmp_path / f"padded.{fmt}"
    path.write_bytes(_valid_blob(tmp_path, fmt) + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        FORMATS[fmt][1](path)


def test_checkpoint_name_not_utf8(tmp_path):
    blob = bytearray(_valid_blob(tmp_path, "cilm"))
    at = blob.index(b"stem.conv0_kernel")
    blob[at] = 0xFF
    path = tmp_path / "bad_name.cilm"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="UTF-8"):
        load_checkpoint(path)


@pytest.mark.parametrize("case,match", [
    ("flipped_name", "expected"),     # stem.conv0_kernel -> stem.bonv0_kernel
    ("wrong_shape", "expected"),
    ("missing_last", "missing"),
    ("extra_entry", "entries"),
])
def test_checkpoint_off_layout_rejected(tmp_path, case, match):
    """Entries must follow the spec's layout, name and shape, one for one."""
    state = _cilm_state()
    if case == "wrong_shape":
        state.backbone["cls_token"] = Tensor(np.zeros((1, 1, 5)))
    elif case == "missing_last":
        state.buffers.popitem()
    elif case == "extra_entry":
        state.buffers["stem.conv0_extra"] = np.zeros(4)
    path = tmp_path / "off.cilm"
    save_checkpoint(state, path)
    if case == "flipped_name":
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"stem.conv0_kernel") + len("stem.")] ^= 1
        path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match=match):
        load_checkpoint(path)


def _loads_or_rejects(fmt: str, path, blob: bytes) -> None:
    """Load a corrupt file: it may load or raise DataFormatError, nothing else.

    Peak traced memory must stay within the file itself, one copy of its
    payload and fixed bookkeeping: a count or shape that escaped the bounds
    check would ask for far more. A checkpoint that loads must also run a
    forward pass: its entries match what the model reads.
    """
    path.write_bytes(blob)
    loaded = None
    tracemalloc.start()
    try:
        loaded = FORMATS[fmt][1](path)
    except DataFormatError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= 4 * len(blob) + (64 << 10)
    if fmt == "cilm" and loaded is not None:
        spec = loaded.spec
        images = np.zeros((1, spec.in_channels, spec.image_size, spec.image_size))
        with np.errstate(all="ignore"):         # flipped values may be NaN
            forward_features(loaded, images, mode="eval")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_file_fails_cleanly(tmp_path, fmt, data):
    """Up to three bit flips, optionally followed by a truncation."""
    blob = bytearray(_valid_blob(tmp_path, fmt))
    for _ in range(data.draw(st.integers(1, 3), label="flips")):
        pos = data.draw(st.integers(0, len(blob) - 1), label="byte")
        blob[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    _loads_or_rejects(fmt, tmp_path / f"corrupt.{fmt}", bytes(blob))


# every single bit flip and every truncation of the structured bytes: all
# of CILD and CILX, and the CILM header plus its first parameter's header
@pytest.mark.parametrize("fmt,span", [("cild", None), ("cilx", None),
                                      ("cilm", 128)])
def test_every_single_corruption_fails_cleanly(tmp_path, fmt, span):
    blob = _valid_blob(tmp_path, fmt)
    path = tmp_path / f"corrupt.{fmt}"
    for pos in range(min(span or len(blob), len(blob))):
        _loads_or_rejects(fmt, path, blob[:pos])
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << bit
            _loads_or_rejects(fmt, path, bytes(flipped))


# --- atomic writes ---------------------------------------------------------------

def _report(eta):
    return StepReport(step=1, n_classes=2, top1=0.5,
                      confusion=np.eye(2, dtype=np.int64), bias_rate=0.0, eta=eta)


def test_writer_raising_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "steps.jsonl"
    write_reports_jsonl([_report(1.0)], path)
    before = path.read_bytes()
    # the first line is written before the second one fails to serialize
    with pytest.raises(TypeError):
        write_reports_jsonl([_report(2.0), _report(object())], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["steps.jsonl"]


def test_atomic_open_replaces_whole_or_not_at_all(tmp_path):
    path = tmp_path / "blob.bin"
    with atomic_open(path, "wb") as f:
        f.write(b"old")
    with pytest.raises(RuntimeError):
        with atomic_open(path, "wb") as f:
            f.write(b"partial")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old"
    with atomic_open(path, "wb") as f:
        f.write(b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]
