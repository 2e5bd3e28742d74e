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
            summed in shot order by the writer from the frames written

File length (payload and trailer) is validated against the header on read.
The writer (`stackwriter.StackWriter`, through which `write_stack` writes)
sums i1 and i1^2 itself, at `i1_lit` alone, the flat pixels outside which
every shot's i1 is +0.0 (the simulator's Fourier arm, where each mode
lights the same pixel in every shot; without it, every pixel): the trailer
equals `Moments.of` of the i1 frames read back.  On a seekable file every
write is an `os.pwrite` at the fixed offset of its bytes (the header last),
so the two processes of a `simulate-chaotic` run, which share the open
file, write their records side by side; and it writes only the span of
each i1 from the first lit pixel through the last: the bytes before and
after it are never written and read back as +0.0, so the file's size,
layout and bytes do not depend on the lit set.  A pipe gets every byte in
order.
A stack of an older version is rebuilt from its run's `manifest.ini`.

Readers, each seeking to the bytes it needs:

* `iter_shots` - whole records, both arms of every shot;
* `iter_frames(path, arm, start)` - one arm's frames from shot `start` on;
* `pixel_trace(path, pixel, arm)` - one arm's value at one pixel in every
  shot, 8 bytes per shot;
* `arm_moments(path, arm)` - one arm's per-pixel sums of I and I^2: the
  trailer for i1, read in bands of rows as they are walked, else one pass
  of the arm's frames.

What the CLI reads of a stack of n shots (a W x H frame is F = 8 W H bytes):

* `reconstruct --ref-pixel auto`: the trailer (auto reference, 2 F, a band
  of rows of each map at a time), the reference pixel's i1 trace (8 n) and
  the i2 frames (n F, one at a time); with the pixel given, no trailer;
* `stats --mode temporal`: the trailer (auto pixel, 2 F in row bands, read
  twice when no pixel varies) and the pixel's trace (8 n); with `--pixel`
  given, the trace alone; with `--arm i2` and no pixel, the i2 frames (n F)
  in place of the trailer;
* `stats --mode spatial --shot k`: one frame (F).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import CorruptStack, ShapeMismatch

MAGIC = b"TWMG"
VERSION = 2
_HEAD = struct.Struct("<4sIIIIQI")

# rows of the moment maps per band of `Moments.bands`: 1/8 of a 256-row
# frame, so the trailer's two band buffers are a quarter of a frame
_BAND_ROWS = 32


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
        # the unsigned widths of their fields in _HEAD
        for name, bits in (("width", 32), ("height", 32), ("n_shots", 32), ("master_seed", 64)):
            value = getattr(self, name)
            if not 0 <= value < 2 ** bits:
                raise CorruptStack(f"{name} {value} does not fit its header field")
        if self.width == 0 or self.height == 0:
            raise CorruptStack(f"empty {self.width} x {self.height} frames")

    @property
    def frame_bytes(self) -> int:
        return 2 * self.width * self.height * 8


class Moments:
    """Per-pixel sums of I and I^2 over W x H frames added in shot order, n
    of them: `s1` and `s2`, None until the first frame.

    `statistics.auto_reference_pixel` picks from its `bands`: `arm_moments`
    of a stack, or `Moments.of(frames)` for frames in hand.  The stack
    writer sums i1 itself, at its lit pixels alone; each pixel gets the
    same additions in the same order as here and a sum of zeros stays 0.0,
    so its trailer is bit-identical to `Moments.of` of the frames read back.
    """

    def __init__(self):
        self.n = 0
        self.s1 = self.s2 = self._square = None

    def add(self, frame: np.ndarray):
        """Add one frame."""
        if self.s1 is None:
            self.s1, self.s2, self._square = (np.zeros(frame.shape) for _ in range(3))
        self.s1 += frame
        self.s2 += np.multiply(frame, frame, out=self._square)
        self.n += 1

    @classmethod
    def of(cls, frames: Iterable[np.ndarray]) -> "Moments":
        moments = cls()
        for frame in frames:
            moments.add(frame)
            # dropped before the next frame is read
            del frame
        return moments

    def bands(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(first row, its rows of sum I, its rows of sum I^2) for each band
        of _BAND_ROWS rows, top to bottom: here views of the sums."""
        for row in range(0, self.s1.shape[0], _BAND_ROWS):
            yield row, self.s1[row:row + _BAND_ROWS], self.s2[row:row + _BAND_ROWS]


class _TrailerMoments(Moments):
    """The i1 moments stored in a stack's trailer, which `bands` reads a band
    at a time into one reused pair of buffers: no W x H map is held, and a
    band is valid until the next is read."""

    def __init__(self, path, header: StackHeader, offset: int):
        super().__init__()
        self.n = header.n_shots
        self._path, self._shape = path, (header.width, header.height)
        self._trailer = offset + header.n_shots * header.frame_bytes

    def bands(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        w, h = self._shape
        rows = min(_BAND_ROWS, w)
        buffers = np.empty((2, rows, h), dtype="<f8")
        with open(self._path, "rb") as fh:
            for row in range(0, w, rows):
                band = buffers[:, :min(rows, w - row)]
                # map k (the sum, then the sum of squares) starts k W H values in
                for k, name in enumerate(("sum", "sum of squares")):
                    fh.seek(self._trailer + (k * w + row) * h * 8)
                    _read_exact(fh, band[k], f"i1 {name} map")
                yield row, band[0], band[1]


def write_stack(path, shots: Iterable[ShotRecord], width: int, height: int,
                n_shots: int, master_seed: int, rng_algorithm: str,
                i1_lit: np.ndarray | None = None) -> StackHeader:
    """Write `shots` through one `stackwriter.StackWriter`, in shot_index
    order from 0 (position k is read back as shot k); a header field out of
    its range is a CorruptStack raised before the file is opened."""
    from .stackwriter import StackWriter
    header = StackHeader(width, height, n_shots, master_seed, rng_algorithm)
    with StackWriter(path, header, i1_lit) as out:
        for shot in shots:
            out.add(out.put(shot, out.n))
            # dropped before the next record is made
            del shot
        out.finish()
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
            # dropped before the next frame is read
            del frame


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
    # one positional read of the 8 bytes asked for straight into the trace
    with open(path, "rb", buffering=0) as fh:
        fd = fh.fileno()
        for idx in range(header.n_shots):
            if os.preadv(fd, [values[8 * idx:8 * idx + 8]], offset + idx * header.frame_bytes) != 8:
                raise CorruptStack(f"{fh.name}: shot {idx} {arm} pixel ({r}, {c}) truncated")
    return trace


def arm_moments(path, arm: str = "i1") -> Moments:
    """One arm's per-pixel sums of I and I^2 over every shot: for i1 the
    stored trailer, its header checked now and its maps read a band of rows
    at a time by each walk of `bands`; for i2 one pass of the arm's frames
    through `Moments`."""
    if arm == "i2":
        return Moments.of(iter_frames(path, arm))
    return _TrailerMoments(path, *_arm_payload(path, arm))
