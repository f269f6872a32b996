"""The one bounds-checked reader behind the CILD, CILX and CILM formats,
and the one atomic writer behind every run artifact.

Every binary file starts with its format's 4-byte magic and a u16 version:
`write_file` writes them and `Reader` checks both. Each read is checked, in
Python ints, against the bytes left before anything is allocated, and a file
must be consumed exactly. CILD and CILX share the image record
`(label <u2, pixels u1[c*h*w])`, defined once in `record_dtype`.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .errors import DataFormatError


def record_dtype(pixels: int) -> np.dtype:
    return np.dtype([("label", "<u2"), ("pixels", "u1", (pixels,))])


def pack_records(labels: np.ndarray, images: np.ndarray) -> bytes:
    """Image records for `images` [n, c, h, w] uint8 and their labels."""
    n, pixels = len(images), math.prod(images.shape[1:])
    records = np.empty(n, dtype=record_dtype(pixels))
    records["label"] = labels
    records["pixels"] = images.reshape(n, pixels)
    return records.tobytes()


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temp file beside `path` for writing; it replaces `path` on exit.

    `os.replace` swaps the file in whole, so a reader never sees a partly
    written file. If the block raises, the temp file is removed and `path`
    keeps its previous content. This guards against a run dying mid-write,
    not against power loss: nothing is fsynced.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_file(path, magic: bytes, version: int, chunks) -> None:
    """Write the magic, the u16 version and the body `chunks` atomically."""
    with atomic_open(path, "wb") as f:
        f.write(b"".join([magic, struct.pack("<H", version), *chunks]))


class Reader:
    """Cursor over a whole file after its magic and version; `kind` names the
    format in error messages."""

    def __init__(self, path, magic: bytes, version: int, kind: str):
        with open(path, "rb") as f:
            self.blob = f.read()
        self.kind = kind
        if self.blob[:len(magic)] != magic:
            raise DataFormatError(f"bad magic in {path}: not a {kind}")
        self.off = len(magic)
        (got,) = self.unpack("<H")
        if got != version:
            raise DataFormatError(f"unsupported {kind} version {got}")

    def _advance(self, size: int, where: str) -> int:
        left = len(self.blob) - self.off
        if size > left:
            raise DataFormatError(
                f"{self.kind} truncated at byte {self.off}{where} "
                f"(needed {size}, {left} left)")
        start = self.off
        self.off += size
        return start

    def unpack(self, fmt: str, where: str = ""):
        return struct.unpack_from(
            fmt, self.blob, self._advance(struct.calcsize(fmt), where))

    def array(self, dtype, count: int, where: str = "") -> np.ndarray:
        """Read-only view of `count` items; copy it to keep or mutate it."""
        dtype = np.dtype(dtype)
        start = self._advance(count * dtype.itemsize, where)
        return np.frombuffer(self.blob, dtype=dtype, count=count, offset=start)

    def records(self, count: int, shape: tuple[int, int, int], label_ok):
        """(labels, images) views of `count` image records of `shape`.

        `label_ok(labels)` marks the valid labels; the first invalid one is
        reported with its record number.
        """
        pixels = math.prod(shape)
        size, start, left = 2 + pixels, self.off, len(self.blob) - self.off
        if count * size > left:
            raise DataFormatError(
                f"{self.kind} truncated at byte {start + left - left % size} "
                f"(in record {left // size})")
        # with no records the dims are unchecked: build no dtype from them
        records = self.array(record_dtype(pixels if count else 0), count)
        bad = np.flatnonzero(~label_ok(records["label"]))
        if len(bad):
            i = int(bad[0])
            raise DataFormatError(
                f"{self.kind} record {i} at byte {start + i * size} has "
                f"invalid label {records['label'][i]}")
        return records["label"], records["pixels"].reshape((count, *shape))

    def finish(self) -> None:
        if self.off != len(self.blob):
            raise DataFormatError(
                f"{self.kind} has {len(self.blob) - self.off} trailing bytes "
                f"after byte {self.off}")
