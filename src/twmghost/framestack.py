"""Binary frame-stack persistence for per-shot detector maps.

Layout (little-endian):

    magic   4 bytes  b"TWMG"
    u32     format version (1)
    u32     W
    u32     H
    u32     n_shots
    u64     master seed
    u32     length of RNG algorithm name, then that many UTF-8 bytes
    payload n_shots * (I1 then I2), each W*H float64, row-major (x-major)

Payload length is validated against the header on read.

Readers, each seeking to the bytes it needs:

* `iter_shots` - whole records, both arms of every shot;
* `iter_frames(path, arm, start)` - one arm's frames from shot `start` on;
* `pixel_trace(path, pixel, arm)` - one arm's value at one pixel in every
  shot, 8 bytes per shot.

What the CLI reads of a stack of n shots of W x H frames (F = 8 W H bytes,
one frame):

* `reconstruct --ref-pixel auto`: the i1 frames (auto reference, n F), the
  reference pixel's i1 trace (8 n) and the i2 frames (n F); with the pixel
  given, no i1 frame;
* `stats --mode temporal`: the arm's frames (auto pixel, n F) and the
  pixel's trace (8 n); with `--pixel` given, the trace alone;
* `stats --mode spatial --shot k`: one frame (F).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import CorruptStack, ShapeMismatch

MAGIC = b"TWMG"
VERSION = 1
_HEAD = struct.Struct("<4sIIIIQI")


@dataclass
class ShotRecord:
    """One laser shot: Fourier-plane map of the seed and image-plane map of
    the generated field."""

    i1: np.ndarray
    i2: np.ndarray
    shot_index: int


@dataclass(frozen=True)
class StackHeader:
    width: int
    height: int
    n_shots: int
    master_seed: int
    rng_algorithm: str

    @property
    def frame_bytes(self) -> int:
        return 2 * self.width * self.height * 8


def write_stack(path, shots: Iterable[ShotRecord], width: int, height: int,
                n_shots: int, master_seed: int, rng_algorithm: str) -> StackHeader:
    """Write the stack; shots must arrive in shot_index order."""
    name = rng_algorithm.encode("utf-8")
    header = StackHeader(width, height, n_shots, master_seed, rng_algorithm)
    written = 0
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, VERSION, width, height, n_shots, master_seed, len(name)))
        fh.write(name)
        for shot in shots:
            for frame in (shot.i1, shot.i2):
                a = np.ascontiguousarray(frame, dtype="<f8")
                if a.shape != (width, height):
                    raise CorruptStack(f"frame shape {a.shape} != ({width}, {height})")
                fh.write(a.data)
            written += 1
    if written != n_shots:
        raise CorruptStack(f"wrote {written} shots, header said {n_shots}")
    return header


def read_header(path) -> tuple[StackHeader, int]:
    """Header plus the payload byte offset; validates magic, version, size."""
    p = Path(path)
    try:
        with open(p, "rb") as fh:
            head = fh.read(_HEAD.size)
            if len(head) != _HEAD.size:
                raise CorruptStack(f"{path}: truncated header")
            magic, version, w, h, n, seed, namelen = _HEAD.unpack(head)
            if magic != MAGIC:
                raise CorruptStack(f"{path}: bad magic {magic!r}")
            if version != VERSION:
                raise CorruptStack(f"{path}: unsupported version {version}")
            name = fh.read(namelen)
            if len(name) != namelen:
                raise CorruptStack(f"{path}: truncated RNG name")
    except OSError as exc:
        raise CorruptStack(f"{path}: {exc}") from exc
    header = StackHeader(w, h, n, seed, name.decode("utf-8"))
    offset = _HEAD.size + namelen
    expect = offset + n * header.frame_bytes
    if p.stat().st_size != expect:
        raise CorruptStack(f"{path}: size {p.stat().st_size} != expected {expect}")
    return header, offset


def iter_shots(path) -> Iterator[ShotRecord]:
    """Stream ShotRecords back from a stack file."""
    header, offset = read_header(path)
    shape = (header.width, header.height)
    with open(path, "rb") as fh:
        fh.seek(offset)
        for idx in range(header.n_shots):
            i1, i2 = np.empty(shape, dtype="<f8"), np.empty(shape, dtype="<f8")
            for arm, frame in (("i1", i1), ("i2", i2)):
                if fh.readinto(frame) != frame.nbytes:
                    raise CorruptStack(f"{path}: shot {idx} {arm} frame truncated")
            yield ShotRecord(i1=i1, i2=i2, shot_index=idx)


def _arm_payload(path, arm: str) -> tuple[StackHeader, int]:
    """Header plus the byte offset of shot 0's frame of `arm`."""
    if arm not in ("i1", "i2"):
        raise ValueError(f"arm must be 'i1' or 'i2', got {arm!r}")
    header, offset = read_header(path)
    if arm == "i2":
        offset += header.frame_bytes // 2
    return header, offset


def iter_frames(path, arm: str = "i1", start: int = 0) -> Iterator[np.ndarray]:
    """Stream one arm's frames ("i1" or "i2") of shots start, start + 1, ...,
    seeking past the other arm and the shots before `start`."""
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    header, offset = _arm_payload(path, arm)
    size = header.frame_bytes // 2
    with open(path, "rb") as fh:
        for idx in range(start, header.n_shots):
            fh.seek(offset + idx * header.frame_bytes)
            frame = np.empty((header.width, header.height), dtype="<f8")
            if fh.readinto(frame) != size:
                raise CorruptStack(f"{path}: shot {idx} {arm} frame truncated")
            yield frame


def pixel_trace(path, pixel: tuple[int, int], arm: str = "i1") -> np.ndarray:
    """One pixel's value in every shot of one arm, shape (n_shots,), read
    8 bytes per shot with positional reads."""
    header, offset = _arm_payload(path, arm)
    r, c = int(pixel[0]), int(pixel[1])
    if not (0 <= r < header.width and 0 <= c < header.height):
        raise ShapeMismatch(f"pixel ({r}, {c}) outside frame ({header.width}, {header.height})")
    offset += (r * header.height + c) * 8
    trace = np.empty(header.n_shots, dtype="<f8")
    values = memoryview(trace).cast("B")
    # unbuffered: each read fetches the 8 bytes asked for, not a buffer's worth
    with open(path, "rb", buffering=0) as fh:
        for idx in range(header.n_shots):
            fh.seek(offset + idx * header.frame_bytes)
            if fh.readinto(values[8 * idx:8 * idx + 8]) != 8:
                raise CorruptStack(f"{path}: shot {idx} {arm} pixel ({r}, {c}) truncated")
    return trace
