"""End-to-end simulation of the imaging experiment.

Coherent chain: object mask -> 2f-2f lens transform to the crystal plane ->
weak-conversion generation of the idler -> free propagation over s2 to the
detector, for an on-axis plane-wave seed.  The result is the object
intensity, coordinate-inverted at unit magnification.

Chaotic chain: the generated intensity is the incoherent sum of one copy of
the coherent image per seed mode, shifted by the detector-plane offset of
the mode's phase-matched idler and weighted by the mode intensity, its
geometric gain factor and the phase-matching acceptance (this is the
cross-terms-average-out shortcut; a coherent-sum mode that squares the
summed complex field is available for control studies).  The
incoherent sum is a convolution of the coherent image with one impulse per
mode, made by FFT on a padded grid.  Of the 2-D transforms only the 1-D
lines whose result is needed are run: the kernel rows that hold an impulse
on the way in, and the image rows that are kept on the way out.  Every line
that is run is the same pocketfft call, in the same axis order, as in
rfft2 and irfft2, so the bytes equal the full-grid transforms'.  A per-mode
copy stack is built instead when it is the cheaper product (few modes) and
for the coherent sum, whose per-mode phase ramps make it no convolution.
On the copy stack, shots are made in aligned blocks of SHOT_BLOCK: one
(SHOT_BLOCK x n_modes) matrix of mode intensities (or conjugate amplitudes)
times the (n_modes x W H) stack.
Everything that does not change between shots (mode directions, offsets,
weights, Fourier-plane bins) is computed once per experiment.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .chaotic_source import (SourceSpec, bin_intensities, draw_amplitudes, fourier_bin_index,
                             sample_modes, seed_states)
from .errors import (DegenerateGeometry, ImageClipped, InvalidSpec, ModesOffGrid, NonFiniteField,
                     SamplingViolation, ShapeMismatch)
from .framestack import ShotRecord
from .geometry import InteractionGeometry, geometric_factor, unit_vectors
from .masks import ObjectMask
from .propagation import ScalarField, free_propagate, lens_image_2f2f

# the weak-conversion argument g |a3| fgeo L at the peak of the pump map: the
# first-order, undepleted-seed generation a2 = i g fgeo L conj(a1) a3 that
# coherent_field applies is off the full solution by about arg^3 / 6
WEAK_CONVERSION_ARG = 0.01

# a mode copy that keeps less of the base image energy than this after its
# zero-fill shift raises an ImageClipped warning
MIN_ENERGY_KEPT = 0.99


@dataclass(frozen=True)
class DetectorSpec:
    """Optional CCD model: binning, saturation clip, uniform quantization."""

    bit_depth: int = 0
    saturation_level: float = 0.0
    pixel_binning: int = 1

    def __post_init__(self):
        if self.bit_depth not in (0, 8, 12, 16):
            raise InvalidSpec("bit_depth must be one of 0, 8, 12, 16")
        if self.pixel_binning < 1:
            raise InvalidSpec("pixel_binning must be >= 1")
        if not 0 <= self.saturation_level < np.inf:
            raise InvalidSpec("saturation_level must be >= 0 and finite")
        if self.saturation_level > 0 and self.bit_depth == 0:
            raise InvalidSpec("saturation_level needs a bit_depth: bit_depth 0 does not clip")

    def output_shape(self, width: int, height: int) -> tuple[int, int]:
        """Frame shape after binning; partial bins at the far edges are dropped."""
        return width // self.pixel_binning, height // self.pixel_binning


def object_pitch_for_detector(g: InteractionGeometry, width: int, det_pitch: float) -> float:
    """Object-plane pitch that makes the crystal/detector grid pitch come out
    at `det_pitch` after the single-FFT lens transform."""
    return g.k3.wavelength / g.k3.index * g.d / (width * det_pitch)


def apply_detector(i: np.ndarray, det: DetectorSpec) -> np.ndarray:
    """Binning, saturation clipping and quantization.  bit_depth 0 skips the
    last two, and the ideal detector returns a float64 `i` itself, no copy."""
    out = np.asarray(i, dtype=float)
    if det.pixel_binning > 1:
        b = det.pixel_binning
        w, h = det.output_shape(*out.shape)
        out = out[:w * b, :h * b].reshape(w, b, h, b).sum(axis=(1, 3))
    if det.bit_depth == 0:
        return out
    sat = det.saturation_level if det.saturation_level > 0 else float(out.max()) or 1.0
    out = np.clip(out, 0.0, sat)
    levels = 2 ** det.bit_depth - 1
    return np.rint(out / sat * levels) * (sat / levels)


@contextmanager
def _stage(name: str, **inputs):
    """Run one set-up stage with numpy raising on overflow, invalid values
    and division by zero: that, Python's own float overflow or division by
    zero, or a non-finite field made in the stage, is one SamplingViolation
    naming the stage and its key inputs."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (FloatingPointError, OverflowError, ZeroDivisionError, NonFiniteField) as exc:
        at = ", ".join(f"{key} = {value:.3g}" for key, value in inputs.items())
        raise SamplingViolation(f"{name} at {at} leaves floating-point range ({exc})") from exc


def _idlers(u1: np.ndarray, g: InteractionGeometry):
    """Unit idler vectors (3 x n) and phase-matching acceptance of seed modes
    along the unit vectors u1 (3 x n).

    The idler wavevector is taken along k3 - k1n, with the pump k3 on axis
    (this minimizes the mismatch under energy conservation); the residual
    scalar mismatch is |k3 - k1n| - |k2| and the acceptance sinc^2(dk L / 2).
    """
    k3 = np.array([0.0, 0.0, g.k3.magnitude])
    idler = k3[:, None] - g.k1.magnitude * u1
    norm = np.linalg.norm(idler, axis=0)
    dk = norm - g.k2.magnitude
    return idler / norm, np.sinc(0.5 * dk * g.crystal_length / np.pi) ** 2


def _next_5_smooth(n: int) -> int:
    """Smallest integer >= n with no prime factor above 5: a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _shift_zero_fill(a: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Integer shift with zero fill (no wraparound)."""
    out = np.zeros_like(a)
    w, h = a.shape
    sx0, sx1 = min(max(0, dx), w), max(min(w, w + dx), 0)
    sy0, sy1 = min(max(0, dy), h), max(min(h, h + dy), 0)
    if sx1 > sx0 and sy1 > sy0:
        out[sx0:sx1, sy0:sy1] = a[sx0 - dx:sx1 - dx, sy0 - dy:sy1 - dy]
    return out


def _energy_kept(image: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Fraction of the sum of `image`, which is not all zero, that
    `_shift_zero_fill` keeps at each shift (dx[n], dy[n]), from one
    summed-area table."""
    w, h = image.shape
    sat = np.zeros((w + 1, h + 1))
    sat[1:, 1:] = image
    np.cumsum(sat, axis=0, out=sat)
    np.cumsum(sat, axis=1, out=sat)
    # the source rows and columns that stay on the grid
    r0, r1 = np.clip(-dx, 0, w), np.clip(w - dx, 0, w)
    c0, c1 = np.clip(-dy, 0, h), np.clip(h - dy, 0, h)
    # paired so that a copy off the grid along either axis keeps exactly
    # +0.0 (summed left to right it keeps +-6e-17); the clip to [0, 1] takes
    # out the round-off left where the kept part of the image is dark.  Not
    # np.clip: on float64, with cached bytecode, it raised the peak RSS of a
    # 20-shot wideband-modes run by 0.5 MB; np.maximum and np.minimum by
    # under 0.1 MB
    kept = (sat[r1, c1] - sat[r0, c1]) - (sat[r1, c0] - sat[r0, c0])
    return np.minimum(np.maximum(kept / sat[w, h], 0.0), 1.0)


def _kernel_rows(px: np.ndarray, py: np.ndarray, nx: int, ny: int):
    """The rows of the Nx x Ny padded grid that hold an impulse at (px, py)
    mod the grid, in order, and each impulse's flat index into the
    (rows x Ny) kernel made of those rows alone: the rows and the inverse of
    np.unique(px % nx, return_inverse=True), by a count of each row, without
    the sort code np.unique maps."""
    rows = px % nx
    held = np.bincount(rows, minlength=nx) > 0
    return np.flatnonzero(held), (np.cumsum(held) - 1)[rows] * ny + py % ny


def coherent_field(mask: ObjectMask, g: InteractionGeometry) -> ScalarField:
    """Complex generated field at the detector plane for an on-axis
    plane-wave seed of unit amplitude; DegenerateGeometry if the pump map
    has no energy on the grid (zero at every pixel: a mask dark at its pitch),
    and a SamplingViolation naming the stage, the lens transform or free
    propagation, that leaves floating-point range.

    The conversion at the crystal plane is pointwise and weak: the seed is
    undepleted and a2 = i g fgeo L conj(a1) a3(rF), with the argument
    g |a3| fgeo L peaking at WEAK_CONVERSION_ARG.
    """
    lam2 = g.k2.wavelength / g.k2.index
    obj = ScalarField(mask.transmission.astype(complex), mask.pitch,
                      g.k3.wavelength / g.k3.index)
    with _stage("lens transform (lens_image_2f2f)", object_pitch=obj.pitch,
                wavelength=obj.wavelength, f=g.f, d=g.d):
        a3_F = lens_image_2f2f(obj, g)
    e2 = a3_F.grid
    peak = np.abs(e2).max()
    if not peak:
        raise DegenerateGeometry(
            f"coherent image: no energy on the {e2.shape[0]} x {e2.shape[1]} grid (the object "
            f"mask's transmission sums to {mask.transmission.sum():.3g} at pitch "
            f"{mask.pitch:.3g} m)")
    with _stage("free propagation (free_propagate)", distance=g.s2, wavelength=lam2,
                pitch=a3_F.pitch):
        # normalize in place: the weak-conversion argument peaks at WEAK_CONVERSION_ARG
        e2 *= 1j * WEAK_CONVERSION_ARG / peak
        return free_propagate(ScalarField(e2, a3_F.pitch, lam2), g.s2, pad=2)


def coherent_image(mask: ObjectMask, g: InteractionGeometry,
                   det: DetectorSpec = DetectorSpec()) -> ScalarField:
    """Detected intensity of the coherent chain (on-axis plane-wave seed of
    unit amplitude), in the frame shape and binned pitch of every chaotic
    shot: `det.output_shape`, any binned size of at least 1; DegenerateGeometry
    if the detector reads 0 at every pixel.
    """
    e2 = coherent_field(mask, g)
    image = apply_detector(np.abs(e2.grid) ** 2, det)
    if not image.any():
        raise DegenerateGeometry(
            f"coherent image: 0 at every pixel after the detector ([detector] saturation_level "
            f"= {det.saturation_level:g}, bit_depth = {det.bit_depth}): a value under half a "
            f"quantization step reads 0")
    return ScalarField(image, e2.pitch * det.pixel_binning, e2.wavelength)


# copy-stack shots are made this many at a time, as one matrix product that
# reads the stack once per block instead of once per shot.  More rows grow
# the BLAS packing buffers: on 128 x 128 with 24 modes, 16 rows added 4 MB
# and 32 rows 10 MB of peak memory, with no clear gain in time
SHOT_BLOCK = 8

# the amplitude seeds are hashed this many shots at a time, in aligned
# chunks of 8 KB: one chunk costs about as much numpy overhead as 3-4 shots
# hashed one at a time.  A multiple of SHOT_BLOCK, so that a block lies in
# one chunk, and a power of two, so that a chunk lies in one run of 2**32
# shot indices
SEED_CHUNK = 256


class ChaoticExperiment:
    """Precomputed machinery for many-shot chaotic runs.

    Holds the base coherent image, the unit vectors of the fixed modes'
    phase-matched idlers (`idler`, 3 x n), integer pixel offsets,
    geometric/acceptance weights and each mode's Fourier-plane pixel
    `i1_bin` (which `bin_modes` inverts), with `i1_lit`, the flat pixels of
    the detected i1 frame that those bins light in every shot (one array
    per run, which `write_stack` takes once per stack), so that one shot
    reduces to drawing its mode amplitudes and a weighted sum over modes.
    The incoherent sum is made by FFT convolution of the base image with
    the shot's impulse map (one weighted impulse per mode at its offset)
    when that costs fewer operations than the product with a per-mode copy
    stack, n_modes W H > 2 Nx Ny log2(Nx Ny) on the Nx x Ny padded grid;
    otherwise, and always for the coherent sum, `flat_stack` holds one
    weighted copy per mode.  `flat_stack` is None on the FFT path.

    On the FFT path a shot's kernel holds only the `kernel_rows` of the
    padded grid that carry an impulse (often under half of Nx), and
    `impulse_index` indexes that (rows x Ny) kernel.  rfft2 is rfft along
    axis 1, then fft along axis 0; a row without impulses transforms to
    exact zeros, so only the kernel rows are rfft'd and then scattered into
    the zeroed half spectrum.  irfft2 is ifft along axis 0, then irfft along
    axis 1; only the W image rows kept are irfft'd.  Each line transformed
    goes through the same 1-D transform as in rfft2 / irfft2, so every
    byte equals irfft2(rfft2(full kernel) * base_hat)[:W, :H].

    Shots are made in aligned blocks of `block` shots: block b covers shots
    b * block to (b + 1) * block - 1.  On the copy-stack paths a block is
    SHOT_BLOCK shots and one (SHOT_BLOCK x n_modes) @ flat_stack product,
    always computed whole, so a shot's bytes do not depend on which shots
    were asked for, or in how many calls; on the FFT path a block is one shot.
    A block's amplitude seeds come from the `seed_states` of its aligned
    chunk of SEED_CHUNK shots, the one chunk the experiment holds.
    """

    def __init__(self, mask: ObjectMask, g: InteractionGeometry, spec: SourceSpec,
                 master_seed: int, det: DetectorSpec | None = None,
                 coherent_sum: bool = False):
        self.g, self.spec = g, spec
        self.master_seed = master_seed
        self.det = det or DetectorSpec()
        self.coherent_sum = coherent_sum
        self._seed_chunk, self._seeds = None, None
        base = coherent_field(mask, g)
        self.pitch = base.pitch
        self.base_image = np.abs(base.grid) ** 2
        w, h = self.base_image.shape
        m0 = sample_modes(spec, master_seed, 0)
        seed = unit_vectors(m0.theta, m0.beta)
        with _stage("idlers (_idlers)", k1=g.k1.magnitude, k2=g.k2.magnitude,
                    k3=g.k3.magnitude, crystal_length=g.crystal_length, s2=g.s2,
                    pitch=self.pitch):
            self.idler, self.accept = _idlers(seed, g)
            # an idler along u images the object at s2 (ux, uy) on the detector
            self.px, self.py = np.rint(g.s2 * self.idler[:2] / self.pitch).astype(int)
            self.mode_weight = self.accept * geometric_factor(seed, self.idler) ** 2
        # the base image energy each mode's shifted copy keeps on the grid;
        # a copy shifted a whole grid side or more keeps none, and is left
        # out of `kept`, so that it cannot grow the FFT path's padding
        self.energy_kept = _energy_kept(self.base_image, self.px, self.py)
        self.kept = np.flatnonzero((np.abs(self.px) < w) & (np.abs(self.py) < h))
        clipped = self.energy_kept < MIN_ENERGY_KEPT
        if clipped.any():
            warnings.warn(f"{int(clipped.sum())} of {spec.n_modes} mode copies keep less than "
                          f"{MIN_ENERGY_KEPT:.0%} of the image energy on the grid, the worst "
                          f"{self.energy_kept.min():.1%}", ImageClipped, stacklevel=2)
        # each mode's pixel on the Fourier arm i1, -1 off the grid
        with _stage("Fourier arm (fourier_bin_index)", fourier_f=g.lens_fourier_f,
                    pitch=self.pitch):
            self.i1_bin = fourier_bin_index(m0, g.lens_fourier_f, self.pitch, (w, h))
        off = int(np.count_nonzero(self.i1_bin < 0))
        if off:
            warnings.warn(f"{off} of {spec.n_modes} modes focus off the {w} x {h} Fourier grid: "
                          f"i1 misses their intensity, i2 still holds their image copies",
                          ModesOffGrid, stacklevel=2)
        self.i1_lit = self._i1_lit()
        self.flat_stack = None
        self.block = SHOT_BLOCK
        with _stage("image copies (copy stack or FFT kernel)", n_modes=spec.n_modes,
                    k2=g.k2.magnitude, pitch=self.pitch):
            if coherent_sum:
                k2 = g.k2.magnitude
                x, yv = base.coords()
                ux, uy = self.idler[:2]
                stack = np.empty((spec.n_modes, w, h), dtype=complex)
                for n in range(spec.n_modes):
                    ramp = np.exp(-1j * k2 * (ux[n] * x[:, None] + uy[n] * yv[None, :]))
                    stack[n] = (np.sqrt(self.mode_weight[n])
                                * ramp * _shift_zero_fill(base.grid, self.px[n], self.py[n]))
                self.flat_stack = stack.reshape(spec.n_modes, -1)
                return
            # the other paths need only base_image and pitch
            del base
            px, py = self.px[self.kept], self.py[self.kept]
            # at W + max|px| by H + max|py| no shifted copy wraps onto the image
            nx = _next_5_smooth(w + int(np.abs(px).max(initial=0)))
            ny = _next_5_smooth(h + int(np.abs(py).max(initial=0)))
            if spec.n_modes * w * h > 2 * nx * ny * np.log2(nx * ny):
                self.block = 1
                self.pad = (nx, ny)
                self.kernel_rows, self.impulse_index = _kernel_rows(px, py, nx, ny)
                self.base_hat = np.fft.rfft2(self.base_image, self.pad)
            else:
                stack = np.empty((spec.n_modes,) + self.base_image.shape, dtype=float)
                for n in range(spec.n_modes):
                    stack[n] = self.expected_image(n)
                self.flat_stack = stack.reshape(spec.n_modes, -1)

    def _i1_lit(self) -> np.ndarray:
        """Flat pixels of the detected i1 frame that some mode lights, in
        order: a count of the modes on each `i1_bin`, binned by the detector
        (binning alone: clipping or quantizing a count says nothing of a
        shot's intensities).  Every other pixel of every shot's i1 is +0.0,
        as binning, clipping and quantization keep a +0.0 at +0.0."""
        count = bin_intensities(self.i1_bin, np.ones(self.spec.n_modes), self.base_image.shape)
        binned = apply_detector(count, DetectorSpec(pixel_binning=self.det.pixel_binning))
        return np.flatnonzero(binned)

    def _block(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Mode intensities (block x n_modes) and undetected i2 maps
        (block x W x H) of the shots of block b."""
        first = b * self.block
        chunk, row = divmod(first, SEED_CHUNK)
        if chunk != self._seed_chunk:
            self._seeds = seed_states(self.master_seed, 1, chunk * SEED_CHUNK, SEED_CHUNK)
            self._seed_chunk = chunk
        amp = draw_amplitudes(self.spec, self._seeds[row:row + self.block])
        p = np.abs(amp) ** 2
        shape = (self.block,) + self.base_image.shape
        if self.coherent_sum:
            return p, (np.abs(np.conj(amp) @ self.flat_stack) ** 2).reshape(shape)
        if self.flat_stack is not None:
            return p, (p @ self.flat_stack).reshape(shape)
        weight = p[0, self.kept] * self.mode_weight[self.kept]
        nx, ny = self.pad
        kernel = np.bincount(self.impulse_index, weights=weight,
                             minlength=len(self.kernel_rows) * ny).reshape(-1, ny)
        w, h = self.base_image.shape
        # irfft2(rfft2(full kernel) * base_hat)[:w, :h] in rfft2's and irfft2's
        # own axis order, without the rows known to be zero or not kept; each
        # array is freed once used, as the shot loop's peak memory is the
        # live arrays of one block
        spec = np.zeros((nx, ny // 2 + 1), dtype=complex)
        spec[self.kernel_rows] = np.fft.rfft(kernel, ny, axis=1)
        del kernel
        np.fft.fft(spec, axis=0, out=spec)
        spec *= self.base_hat
        np.fft.ifft(spec, axis=0, out=spec)
        i2 = np.fft.irfft(spec[:w], ny, axis=1)[:, :h]
        del spec
        # round-off must not make an intensity negative
        return p, np.maximum(i2, 0.0).reshape(shape)

    def shots(self, n_shots: int, start: int = 0) -> Iterator[ShotRecord]:
        """Records of shots start to start + n_shots - 1, in index order.

        Whole blocks are made, one at a time: a block's frames are freed
        before the next block is made.  i1 is binned as each record is
        yielded, and both arms go through `apply_detector`; every record's
        i1 is +0.0 off `i1_lit`.  One shot is `next(exp.shots(1, start=k))`;
        n_shots <= 0 makes no block.
        """
        if n_shots <= 0:
            return
        stop = start + n_shots
        shape = self.base_image.shape
        for b in range(start // self.block, -(-stop // self.block)):
            p, i2 = self._block(b)
            first = b * self.block
            for k in range(max(start, first), min(stop, first + self.block)):
                yield ShotRecord(
                    i1=apply_detector(bin_intensities(self.i1_bin, p[k - first], shape), self.det),
                    i2=apply_detector(i2[k - first], self.det), shot_index=k)
            # freed before the next block is made
            del p, i2

    def expected_image(self, mode: int) -> np.ndarray:
        """Weighted, shifted copy of the base image that `mode` adds to i2
        per unit intensity.  The correlation map of an i1 pixel recovers the
        sum of these over its `bin_modes`, each times its intensity variance."""
        return self.mode_weight[mode] * _shift_zero_fill(self.base_image, self.px[mode],
                                                         self.py[mode])

    def bin_modes(self, pixel: tuple[int, int]) -> np.ndarray:
        """The modes whose Fourier-plane bin is i1 `pixel` of the unbinned
        grid, in mode order; empty for a pixel that no mode lights."""
        w, h = self.base_image.shape
        r, c = pixel
        if not (0 <= r < w and 0 <= c < h):
            raise ShapeMismatch(f"pixel {tuple(pixel)} outside the {w} x {h} frame")
        return np.flatnonzero(self.i1_bin == r * h + c)

