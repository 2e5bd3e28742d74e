"""Object masks: portable graymap ingestion and the built-in three-hole target."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidSpec

BUILTIN_THREE_HOLES = "three-holes"


@dataclass(frozen=True)
class ObjectMask:
    """Amplitude transmission in [0, 1] on its own grid."""

    transmission: np.ndarray
    pitch: float

    def __post_init__(self):
        t = np.asarray(self.transmission, dtype=float)
        if t.size == 0:
            raise InvalidSpec(f"mask transmission of shape {t.shape} is empty")
        # written so that NaN fails them too
        if not (0 <= t.min() and t.max() <= 1):
            raise InvalidSpec("mask transmission values must lie in [0, 1]")
        if not 0 < self.pitch < np.inf:
            raise InvalidSpec("mask pitch must be positive and finite")
        object.__setattr__(self, "transmission", t)


def three_holes(width: int = 256, pitch: float = 52e-6, hole_diameter: float = 256e-6,
                spacing: float = 1.2e-3) -> ObjectMask:
    """Copper-sheet style target: three circular holes on an equilateral
    triangle of side `spacing`, centered on the grid."""
    for name, value in (("pitch", pitch), ("hole_diameter", hole_diameter),
                        ("spacing", spacing)):
        if not 0 < value < np.inf:
            raise InvalidSpec(f"{name} must be positive and finite")
    # a coordinate beyond float range is inf, which no hole reaches: the lens
    # transform refuses such a pitch by name
    with np.errstate(over="ignore"):
        x = (np.arange(width) - width // 2) * pitch
    rad = spacing / np.sqrt(3.0)
    centers = [(rad * np.cos(a), rad * np.sin(a))
               for a in (np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3)]
    t = np.zeros((width, width))
    for cx, cy in centers:
        t[np.hypot(x[:, None] - cx, x[None, :] - cy) <= hole_diameter / 2] = 1.0
    return ObjectMask(transmission=t, pitch=pitch)


def _read_pnm_tokens(data: bytes, count: int):
    """First `count` whitespace-separated ASCII tokens, skipping comments."""
    tokens = []
    pos = 0
    while len(tokens) < count:
        m = re.match(rb"\s*(#[^\n]*\n|\S+)", data[pos:])
        if m is None:
            raise InvalidSpec("truncated PNM header")
        tok = m.group(1)
        pos += m.end()
        if not tok.startswith(b"#"):
            tokens.append(tok)
    return tokens, pos


def load_mask(path, pitch: float) -> ObjectMask:
    """8- or 16-bit grayscale PGM (P2 or P5), values mapped linearly to [0, 1]."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidSpec(f"cannot read mask {path}: {exc}") from exc
    if len(data) < 2 or data[:1] != b"P":
        raise InvalidSpec(f"{path}: not a portable graymap")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise InvalidSpec(f"{path}: unsupported PNM magic {magic!r}")
    tokens, pos = _read_pnm_tokens(data[2:], 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise InvalidSpec(f"{path}: PNM header holds a value that is not an integer") from exc
    if width < 0 or height < 0:
        raise InvalidSpec(f"{path}: negative size {width} x {height}")
    if maxval <= 0 or maxval > 65535:
        raise InvalidSpec(f"{path}: maxval {maxval} out of range")
    npx = width * height
    if magic == b"P2":
        try:
            vals = np.array(data[2 + pos:].split()[:npx], dtype=float)
        except ValueError as exc:
            raise InvalidSpec(f"{path}: P2 payload holds a value that is not a number") from exc
        if vals.size != npx:
            raise InvalidSpec(f"{path}: truncated P2 payload")
    else:
        start = 2 + pos + 1  # single whitespace after maxval
        dt = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        raw = data[start:start + npx * dt.itemsize]
        if len(raw) != npx * dt.itemsize:
            raise InvalidSpec(f"{path}: truncated P5 payload")
        vals = np.frombuffer(raw, dtype=dt).astype(float)
    grid = (vals / maxval).reshape(height, width).T  # PNM rows are y, we use x-major
    return ObjectMask(transmission=grid, pitch=pitch)


def save_pgm16(path, image: np.ndarray):
    """Write a min-max normalized 16-bit big-endian PGM; returns (lo, hi).
    A constant image has no span to normalize by: it is written white
    (65535), or black if it is zero."""
    img = np.asarray(image, dtype=float)
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = img - lo      # one float copy, scaled in place
        scaled /= hi - lo
        scaled *= 65535.0
        q = np.rint(scaled, out=scaled).astype(">u2")
        del scaled
    else:
        q = np.full(img.shape, 65535 if hi else 0, dtype=">u2")
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n65535\n" % (q.shape[0], q.shape[1]))
        fh.write(q.T.tobytes())  # back to PNM row order
    return lo, hi


def save_csv(path, array: np.ndarray, header: str = ""):
    """CSV with 17-significant-digit decimal floats."""
    np.savetxt(path, np.asarray(array, dtype=float), delimiter=",",
               fmt="%.17g", header=header, comments="")
