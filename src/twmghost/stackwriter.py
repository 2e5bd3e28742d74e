"""Writing a frame stack (the layout is in `framestack`'s docstring).

`StackWriter` checks each record and writes it at its fixed offset;
`framestack.write_stack` writes the records of one iterable through it, and
the two processes of a `simulate-chaotic` run (`shotloop`) each write their
own records through the one they share.  It is kept out of `framestack`, so
the stack readers (`reconstruct`, `stats`) neither load nor compile it.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path

import numpy as np

from .errors import CorruptStack
from .framestack import _HEAD, MAGIC, VERSION, ShotRecord, StackHeader


class StackWriter:
    """A stack being written at `path`, as a context manager.

    `put(shot, k)` checks record k and writes it, `add` sums the lit i1
    values it returns into the trailer in shot order, and `finish` writes
    the trailer and then, on a file, the header.  `i1_lit` holds the
    strictly increasing flat pixels outside which every i1 is +0.0; without
    it every pixel is lit.  i1 and i1^2 are summed at those pixels alone, in
    two vectors of len(i1_lit) values, as `Moments.add` sums whole frames
    (a sum of zeros stays 0.0), and put into one zeroed frame for each
    trailer map.  A bad `i1_lit` is a CorruptStack raised before the file
    is opened.

    On a file every write is an `os.pwrite` at the fixed offset of its
    bytes, so processes that share the open file may put records in any
    order.  A pipe (`positional` false) takes every byte in order, i1
    whole, so its records are put in turn.  If the `with` body raises, the
    file is removed if it is the regular file that was opened (never a pipe
    or a device), so no partial stack is left at `path`.
    """

    def __init__(self, path, header: StackHeader, i1_lit: np.ndarray | None = None):
        size = header.width * header.height
        lit = np.arange(size) if i1_lit is None else i1_lit
        # refused before the file is opened
        if not (isinstance(lit, np.ndarray) and lit.ndim == 1 and lit.dtype.kind in "iu"
                and (lit.size == 0 or (lit[0] >= 0 and lit[-1] < size))
                and np.all(lit[1:] > lit[:-1])):
            raise CorruptStack(f"i1_lit is not strictly increasing flat pixels in [0, {size})")
        name = header.rng_algorithm.encode("utf-8")
        self._head = _HEAD.pack(MAGIC, VERSION, header.width, header.height, header.n_shots,
                                header.master_seed, len(name)) + name
        self.path, self.header, self.lit, self.n = path, header, lit, 0
        # a file gets each i1 from its first lit pixel through its last, a pipe all of it
        self._span = (int(lit[0]), int(lit[-1]) + 1) if lit.size else (0, 0)
        # i1's sums at the lit pixels, a square scratch and the lit values of the shot in hand
        self._s1, self._s2, self._square, self._values = (np.zeros(lit.size) for _ in range(4))

    def __enter__(self) -> "StackWriter":
        # opened outside the clean-up: a path that cannot be opened is left alone
        self._fh = open(self.path, "wb")
        self._regular = stat.S_ISREG(os.fstat(self._fh.fileno()).st_mode)
        self.positional = self._fh.seekable()
        if not self.positional:
            self._span = (0, self.header.width * self.header.height)
            self._fh.write(self._head)
        return self

    def __exit__(self, failed, *_):
        self._fh.close()
        if failed and self._regular:
            Path(self.path).unlink(missing_ok=True)

    def put(self, shot: ShotRecord, k: int) -> np.ndarray:
        """Check `shot` as record k and write it; its lit i1 values, in a buffer
        that the next call reuses.  CorruptStack naming the shot if it is not
        shot k, a frame is not W x H, or i1 has a bit set off the lit pixels,
        -0.0 included: a file gets i1's lit span alone, the rest reading +0.0."""
        if shot.shot_index != k:
            raise CorruptStack(f"shot {shot.shot_index} arrived at stack position {k}: "
                               f"shots must come in order from 0")
        header, values = self.header, self._values
        i1, i2 = (np.ascontiguousarray(f, dtype="<f8") for f in (shot.i1, shot.i2))
        for a in (i1, i2):
            if a.shape != (header.width, header.height):
                raise CorruptStack(f"frame shape {a.shape} != ({header.width}, {header.height})")
        # "wrap" is unbuffered; a checked lit is within the frame
        np.take(i1.reshape(-1), self.lit, out=values, mode="wrap")
        # one bit count (4 us on a 128 x 128 frame) finds a set bit off lit
        if np.count_nonzero(i1.view(np.uint64)) != np.count_nonzero(values.view(np.uint64)):
            raise CorruptStack(f"shot {k}: i1 is not +0.0 off its i1_lit pixels")
        at, (first, end) = len(self._head) + k * header.frame_bytes, self._span
        self._out(i1.reshape(-1)[first:end].data, at + 8 * first)
        self._out(i2.data, at + i1.nbytes)
        return values

    def add(self, values: np.ndarray):
        self._s1 += values
        self._s2 += np.multiply(values, values, out=self._square)
        self.n += 1

    def finish(self):
        """The W x H sum of I, then of I^2, each in turn in one zeroed frame,
        then a file's header; CorruptStack unless every shot was added."""
        if self.n != self.header.n_shots:
            raise CorruptStack(f"wrote {self.n} shots, header said {self.header.n_shots}")
        trailer = np.zeros(self.header.width * self.header.height, dtype="<f8")
        at = len(self._head) + self.n * self.header.frame_bytes
        for k, sums in enumerate((self._s1, self._s2)):
            trailer[self.lit] = sums
            self._out(trailer.data, at + k * trailer.nbytes)
        if self.positional:
            self._out(self._head, 0)

    def _out(self, data, at: int):
        if not self.positional:
            return self._fh.write(data)
        view = memoryview(data).cast("B")
        while view:
            n = os.pwrite(self._fh.fileno(), view, at)
            view, at = view[n:], at + n
