"""Binary frame-stack persistence for per-shot detector maps.

Layout (little-endian):

    magic   4 bytes  b"TWMG"
    u32     format version (2, the only one read)
    u32     W
    u32     H
    u32     n_shots
    u64     master seed
    u32     length of RNG algorithm name, then that many UTF-8 bytes
    payload n_shots * (I1 then I2), each W*H float64, row-major (x-major)
    trailer sum of I1 then sum of I1^2 over the shots, each W*H float64,
            accumulated in shot order by `Moments` from the frames written

File length (payload and trailer) is validated against the header on read.
A stack of an older version is rebuilt from its run's `manifest.ini`.

Readers, each seeking to the bytes it needs:

* `iter_shots` - whole records, both arms of every shot;
* `iter_frames(path, arm, start)` - one arm's frames from shot `start` on;
* `pixel_trace(path, pixel, arm)` - one arm's value at one pixel in every
  shot, 8 bytes per shot;
* `arm_moments(path, arm)` - one arm's per-pixel sums of I and I^2: the
  trailer for i1 (two frames), else one pass of the arm's frames.

What the CLI reads of a stack of n shots (a W x H frame is F = 8 W H bytes):

* `reconstruct --ref-pixel auto`: the trailer (auto reference, 2 F), the
  reference pixel's i1 trace (8 n) and the i2 frames (n F); with the pixel
  given, no trailer;
* `stats --mode temporal`: the trailer (auto pixel, 2 F) and the pixel's
  trace (8 n); with `--pixel` given, the trace alone; with `--arm i2` and no
  pixel, the i2 frames (n F) in place of the trailer;
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
VERSION = 2
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
    """A stack's header fields, checked here for the writer and the readers alike."""

    width: int
    height: int
    n_shots: int
    master_seed: int
    rng_algorithm: str

    def __post_init__(self):
        if self.width == 0 or self.height == 0:
            raise CorruptStack(f"empty {self.width} x {self.height} frames")

    @property
    def frame_bytes(self) -> int:
        return 2 * self.width * self.height * 8


class Moments:
    """Per-pixel sums of I and I^2 over frames added in shot order, n of them.

    The stack writer and `Moments.of` sum frames with the same `add`, so the
    stored trailer is bit-identical to a pass over the frames read back.
    `statistics.auto_reference_pixel` picks from it: `arm_moments` of a
    stack, or `Moments.of(frames)` for frames in hand.
    """

    def __init__(self, shape=None):
        self.n = 0
        self.s1 = self.s2 = self._square = None
        if shape is not None:
            self._start(shape)

    def _start(self, shape):
        self.s1, self.s2 = np.zeros(shape), np.zeros(shape)
        self._square = np.empty(shape)

    def add(self, frame: np.ndarray):
        if self.s1 is None:
            self._start(frame.shape)
        self.s1 += frame
        self.s2 += np.multiply(frame, frame, out=self._square)
        self.n += 1

    @classmethod
    def of(cls, frames: Iterable[np.ndarray]) -> "Moments":
        moments = cls()
        for frame in frames:
            moments.add(frame)
        return moments


def write_stack(path, shots: Iterable[ShotRecord], width: int, height: int,
                n_shots: int, master_seed: int, rng_algorithm: str) -> StackHeader:
    """Write the stack; the shots must arrive in shot_index order from 0, as
    position k of the stack is read back as shot k (CorruptStack if not).
    If writing fails, the file is removed before the error propagates, so no
    partial stack is left at `path`."""
    name = rng_algorithm.encode("utf-8")
    header = StackHeader(width, height, n_shots, master_seed, rng_algorithm)
    moments = Moments((width, height))
    written = 0
    # opened outside the clean-up: a path that cannot be opened is left alone
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(_HEAD.pack(MAGIC, VERSION, width, height, n_shots, master_seed, len(name)))
            fh.write(name)
            for shot in shots:
                if shot.shot_index != written:
                    raise CorruptStack(f"shot {shot.shot_index} arrived at stack position "
                                       f"{written}: shots must come in order from 0")
                i1, i2 = (np.ascontiguousarray(f, dtype="<f8") for f in (shot.i1, shot.i2))
                for a in (i1, i2):
                    if a.shape != (width, height):
                        raise CorruptStack(f"frame shape {a.shape} != ({width}, {height})")
                    fh.write(a.data)
                moments.add(i1)
                written += 1
                # dropped before the next record is made
                del shot, i1, i2, a
            if written != n_shots:
                raise CorruptStack(f"wrote {written} shots, header said {n_shots}")
            fh.write(moments.s1.astype("<f8", copy=False).data)
            fh.write(moments.s2.astype("<f8", copy=False).data)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
    return header


def read_header(path) -> tuple[StackHeader, int]:
    """Header plus the payload byte offset; validates magic, version, frames, size."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEAD.size)
            if len(head) != _HEAD.size:
                raise CorruptStack("truncated header")
            magic, version, w, h, n, seed, namelen = _HEAD.unpack(head)
            if magic != MAGIC:
                raise CorruptStack(f"bad magic {magic!r}")
            if version != VERSION:
                raise CorruptStack(f"unsupported version {version}")
            name = fh.read(namelen)
            if len(name) != namelen:
                raise CorruptStack("truncated RNG name")
        size = Path(path).stat().st_size
        header = StackHeader(w, h, n, seed, name.decode("utf-8"))
    except (OSError, CorruptStack, UnicodeDecodeError) as exc:
        raise CorruptStack(f"{path}: {exc}") from exc
    offset = _HEAD.size + namelen
    # the payload, then the trailer: two W x H maps, as long as one shot
    expect = offset + (n + 1) * header.frame_bytes
    if size != expect:
        raise CorruptStack(f"{path}: size {size} != expected {expect}")
    return header, offset


def _read_exact(fh, buf, what: str):
    """Fill `buf` from `fh`, or raise CorruptStack naming the file and `what`."""
    if fh.readinto(buf) != buf.nbytes:
        raise CorruptStack(f"{fh.name}: {what} truncated")


def iter_shots(path) -> Iterator[ShotRecord]:
    """Stream ShotRecords back from a stack file: the two arms' frames, paired."""
    for idx, (i1, i2) in enumerate(zip(iter_frames(path, "i1"), iter_frames(path, "i2"))):
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
    with open(path, "rb") as fh:
        for idx in range(start, header.n_shots):
            fh.seek(offset + idx * header.frame_bytes)
            frame = np.empty((header.width, header.height), dtype="<f8")
            _read_exact(fh, frame, f"shot {idx} {arm} frame")
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
            _read_exact(fh, values[8 * idx:8 * idx + 8], f"shot {idx} {arm} pixel ({r}, {c})")
    return trace


def arm_moments(path, arm: str = "i1") -> Moments:
    """One arm's per-pixel sums of I and I^2 over every shot: for i1 the
    stored trailer (two frames read), for i2 one pass of the arm's frames
    through `Moments`."""
    if arm == "i2":
        return Moments.of(iter_frames(path, arm))
    header, offset = _arm_payload(path, arm)
    moments = Moments()
    moments.n = header.n_shots
    shape = (header.width, header.height)
    moments.s1, moments.s2 = np.empty(shape, dtype="<f8"), np.empty(shape, dtype="<f8")
    with open(path, "rb") as fh:
        fh.seek(offset + header.n_shots * header.frame_bytes)
        for name, total in (("sum", moments.s1), ("sum of squares", moments.s2)):
            _read_exact(fh, total, f"i1 {name} map")
    return moments
