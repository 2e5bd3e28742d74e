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
When a shot's i1 is zero off the record's `i1_lit` pixels (the simulator's
Fourier arm, where each mode lights one pixel), the writer writes only the
span of i1 from the first lit pixel through the last and seeks past the
bytes before and after it.  On a seekable file those bytes are never
written, and they read back as +0.0, byte for byte what a dense write
stores; the file's size and layout are the same either way.
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
    the generated field.  `i1_lit`, when given, holds the flat pixels
    outside which i1 is zero, in increasing order, and the stack writer sums
    i1's moments there alone."""

    i1: np.ndarray
    i2: np.ndarray
    shot_index: int
    i1_lit: np.ndarray | None = None


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
    A float64 frame given with `lit`, the flat pixels outside which it is
    zero (the writer's i1 and its `i1_lit`), is summed there alone, and
    CorruptStack is raised if it is not zero elsewhere: while each frame
    comes with the first frame's own `lit` array, `s1` and `s2` are vectors
    of len(lit) sums.  A frame without it, or with another array, turns them
    into the W x H maps from then on, as frames without `lit` always have
    them.  Each pixel gets the same additions in the same order either way
    and a sum of zeros stays 0.0, so `_maps` gives the same W x H sums.
    `statistics.auto_reference_pixel` picks from its `bands`: `arm_moments`
    of a stack, or `Moments.of(frames)` for frames in hand.
    """

    def __init__(self):
        self.n = 0
        self.s1 = self.s2 = self._lit = self._square = None

    def add(self, frame: np.ndarray, lit: np.ndarray | None = None) -> bool:
        """Add one frame; True when it was summed at `lit` alone and no bit of
        it is set off `lit`, so that every value there is +0.0."""
        if self.n == 0 and lit is not None:
            self._lit = _checked_lit(lit, frame.size, self.n)
            self.s1, self.s2, self._square = (np.zeros(lit.size) for _ in range(3))
        if lit is not None and lit is self._lit:
            # "wrap" is unbuffered; the checked lit is within the frame
            v = np.take(frame.reshape(-1), lit, out=self._square, mode="wrap")
            # i1 must be zero off lit.  The bit counts (4 us on a 128 x 128
            # frame, the float count 14 us) differ only for that or a -0.0
            bare = (np.count_nonzero(frame.view(np.uint64))
                    == np.count_nonzero(v.view(np.uint64)))
            if not bare and np.count_nonzero(frame) != np.count_nonzero(v):
                raise CorruptStack(f"shot {self.n}: i1 is non-zero off its i1_lit pixels")
            self.s1 += v
            self.s2 += np.multiply(v, v, out=v)
            self.n += 1
            return bare
        self._dense(frame.shape)
        self.s1 += frame
        self.s2 += np.multiply(frame, frame, out=self._square)
        self.n += 1
        return False

    def _dense(self, shape):
        """Make `s1` and `s2` the W x H maps, zero where no lit vector sums."""
        if self.s1 is not None and self._lit is None:
            return
        s1, s2 = np.zeros(shape), np.zeros(shape)
        if self._lit is not None:
            s1.reshape(-1)[self._lit], s2.reshape(-1)[self._lit] = self.s1, self.s2
        self.s1, self.s2, self._lit = s1, s2, None
        self._square = np.empty(shape)

    def _maps(self, shape) -> Iterator[np.ndarray]:
        """The W x H sum of I, then of I^2; lit vectors are put one after the
        other into one zeroed frame, which holds each until the next."""
        if self._lit is None:
            self._dense(shape)
            yield from (self.s1, self.s2)
            return
        frame = np.zeros(shape)
        for s in (self.s1, self.s2):
            frame.reshape(-1)[self._lit] = s
            yield frame

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


def _checked_lit(lit, size: int, shot: int) -> np.ndarray:
    """`lit` if it is a 1-D integer array of strictly increasing flat pixels
    in [0, size), else CorruptStack naming the shot."""
    if not (isinstance(lit, np.ndarray) and lit.ndim == 1 and lit.dtype.kind in "iu"
            and (lit.size == 0 or (lit[0] >= 0 and lit[-1] < size))
            and np.all(lit[1:] > lit[:-1])):
        raise CorruptStack(f"shot {shot}: i1_lit is not strictly increasing flat pixels "
                           f"in [0, {size})")
    return lit


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
                n_shots: int, master_seed: int, rng_algorithm: str) -> StackHeader:
    """Write the stack; the shots must arrive in shot_index order from 0, as
    position k of the stack is read back as shot k (CorruptStack if not).
    While the records carry the first one's `i1_lit` array, i1's moments are
    summed in two vectors at those pixels and put into the two trailer maps,
    one zeroed frame, after the last shot (see `Moments`); an `i1_lit` that
    is not strictly increasing pixels of the frame, or an i1 non-zero off
    it, is a CorruptStack naming the shot.  On a seekable file, such an i1
    with no bit set off `i1_lit` (no -0.0 there) is written from its first
    lit pixel through its last: the bytes before and after that span are
    seeked past, never written, and read back as zero.  An i1 without
    `i1_lit`, with another array, or with a bit set off it, the i2 frames
    and the trailer are written whole.  If writing fails, the file is
    removed before the error propagates, so no partial stack is left at
    `path`."""
    name = rng_algorithm.encode("utf-8")
    header = StackHeader(width, height, n_shots, master_seed, rng_algorithm)
    moments = Moments()
    written = 0
    # opened outside the clean-up: a path that cannot be opened is left alone
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(_HEAD.pack(MAGIC, VERSION, width, height, n_shots, master_seed, len(name)))
            fh.write(name)
            # a pipe cannot seek past i1's unlit bytes: it gets them written
            seekable = fh.seekable()
            for shot in shots:
                if shot.shot_index != written:
                    raise CorruptStack(f"shot {shot.shot_index} arrived at stack position "
                                       f"{written}: shots must come in order from 0")
                i1, i2 = (np.ascontiguousarray(f, dtype="<f8") for f in (shot.i1, shot.i2))
                for a in (i1, i2):
                    if a.shape != (width, height):
                        raise CorruptStack(f"frame shape {a.shape} != ({width}, {height})")
                if moments.add(i1, shot.i1_lit) and seekable:
                    _write_span(fh, i1, shot.i1_lit)
                else:
                    fh.write(i1.data)
                # i2 ends each record in written bytes, and the trailer the file
                fh.write(i2.data)
                written += 1
                # dropped before the next record is made
                del shot, i1, i2, a
            if written != n_shots:
                raise CorruptStack(f"wrote {written} shots, header said {n_shots}")
            for s in moments._maps((width, height)):
                fh.write(s.astype("<f8", copy=False).data)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
    return header


def _write_span(fh, frame: np.ndarray, lit: np.ndarray):
    """Write `frame`, zero off the flat pixels `lit`, as its values from
    lit[0] through lit[-1], seeking past the bytes before and after them;
    an empty `lit` writes nothing and seeks past the whole frame."""
    flat = frame.reshape(-1)
    first, end = (int(lit[0]), int(lit[-1]) + 1) if lit.size else (0, 0)
    fh.seek(8 * first, os.SEEK_CUR)
    fh.write(flat[first:end].data)
    fh.seek(8 * (flat.size - end), os.SEEK_CUR)


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
    # unbuffered: each read fetches the 8 bytes asked for, not a buffer's worth
    with open(path, "rb", buffering=0) as fh:
        for idx in range(header.n_shots):
            fh.seek(offset + idx * header.frame_bytes)
            _read_exact(fh, values[8 * idx:8 * idx + 8], f"shot {idx} {arm} pixel ({r}, {c})")
    return trace


def arm_moments(path, arm: str = "i1") -> Moments:
    """One arm's per-pixel sums of I and I^2 over every shot: for i1 the
    stored trailer, its header checked now and its maps read a band of rows
    at a time by each walk of `bands`; for i2 one pass of the arm's frames
    through `Moments`."""
    if arm == "i2":
        return Moments.of(iter_frames(path, arm))
    return _TrailerMoments(path, *_arm_payload(path, arm))
