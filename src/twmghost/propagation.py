"""Discretized scalar-field propagation.

Conventions: a forward plane wave is exp(-i k . r).  Grids are square-pixel,
with axis 0 of `grid` the x coordinate and axis 1 the y coordinate, both
centered (index W//2 is x = 0).  The transforms take power-of-two sides.

Two numerical kernels are used:

* single-FFT Fresnel transform for the lens transforms (object -> crystal
  plane, seed arm -> Fourier plane), whose output pitch is
  lambda * dist / (W * pitch_in);
* band-limited angular-spectrum propagation for free space, which keeps the
  input pitch and is therefore the right tool for the short crystal-to-
  detector hops where the single-FFT pitch would be coarser than the grid.

Both are separable: the quadratic phases exp(i c (x^2 + y^2)) and the
transfer function exp(i a (fx^2 + fy^2)) are products of one factor per
axis, and a 2-D DFT is 1-D DFTs along each axis in turn.  So each transform
runs as 1-D passes, in place, with 1-D factors: free propagation pads,
transforms, filters and crops the rows into its output, then the output's
columns, a band of lines at a time, so it holds one band of padded lines
besides its input and output, and never a padded 2-D grid or a 2-D kernel.

Neither transform checks floating-point range itself: set-up runs each
inside `pipeline._stage`, which names the stage whose arithmetic overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteField, SamplingViolation
from .geometry import InteractionGeometry


def _check_fft_grid(grid: np.ndarray) -> None:
    if not all(n >= 2 and n & (n - 1) == 0 for n in grid.shape):
        raise SamplingViolation(f"grid must be 2-D with power-of-two sides, got {grid.shape}")


@dataclass
class ScalarField:
    """2-D complex amplitude sampled on a plane (real-valued for intensity maps)."""

    grid: np.ndarray
    pitch: float
    wavelength: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid)
        if self.grid.ndim != 2 or not self.grid.size:
            raise SamplingViolation(f"grid must be 2-D and not empty, got {self.grid.shape}")
        # written so that NaN fails it too
        if not (0 < self.pitch < np.inf and 0 < self.wavelength < np.inf):
            raise SamplingViolation("pitch and wavelength must be positive and finite")
        if not np.all(np.isfinite(self.grid)):
            raise NonFiniteField("field contains non-finite samples")

    @property
    def shape(self):
        return self.grid.shape

    def coords(self):
        """Centered coordinate vectors (x along axis 0, y along axis 1)."""
        w, h = self.grid.shape
        x = (np.arange(w) - w // 2) * self.pitch
        y = (np.arange(h) - h // 2) * self.pitch
        return x, y

    def power(self) -> float:
        return float(np.sum(np.abs(self.grid) ** 2) * self.pitch ** 2)


def _alternating(n: int) -> np.ndarray:
    """(-1)^m for m = 0 .. n-1."""
    return 1.0 - 2.0 * (np.arange(n) & 1)


def _ft_plus(u: np.ndarray, pre=(1.0, 1.0), post=(1.0, 1.0)) -> np.ndarray:
    """Centered DFT with kernel exp(+2 pi i (f x + g y)), unnormalized, of u
    times pre[0][:, None] * pre[1][None, :], times post[0][:, None] *
    post[1][None, :].  Computed in u, a complex array with power-of-two
    sides, which is returned.

    On an even grid of n points the centering shifts are sign flips:
    ifftshift is the factor (-1)^m on the input and fftshift the factor
    (-1)^(k + n/2) on the output, so they fold into the 1-D factors and no
    shifted copy is made.
    """
    _check_fft_grid(u)
    w, h = u.shape
    sx, sy = _alternating(w), _alternating(h)
    u *= (pre[0] * sx)[:, None]
    u *= pre[1] * sy
    np.fft.ifft(u, axis=1, norm="forward", out=u)
    np.fft.ifft(u, axis=0, norm="forward", out=u)
    u *= (post[0] * sx * (-1) ** (w // 2))[:, None]
    u *= post[1] * sy * (-1) ** (h // 2)
    return u


def _effective_radius(field: ScalarField) -> float:
    """Radius of the support where the field is non-negligible."""
    mag = np.abs(field.grid)
    peak = mag.max()
    if peak == 0:
        return 0.0
    x, y = field.coords()
    rho = np.hypot(x[:, None], y[None, :])
    return float(rho.max(where=mag > 1e-6 * peak, initial=0.0))


def _check_chirp_sampling(field: ScalarField, k_chirp, what):
    """Require the quadratic phase exp(i k_chirp rho^2 / 2) to be Nyquist
    resolved over the occupied part of the grid."""
    if k_chirp == 0:
        return
    f_local = abs(k_chirp) * _effective_radius(field) / (2.0 * np.pi)
    if f_local > 0.5 / field.pitch:
        raise SamplingViolation(
            f"{what}: quadratic phase local frequency {f_local:.3g}/m exceeds "
            f"Nyquist {0.5 / field.pitch:.3g}/m over the occupied aperture")


def lens_image_2f2f(obj: ScalarField, g: InteractionGeometry) -> ScalarField:
    """Field at the crystal entrance for an object at 2f before the lens.

    Single-Fourier-transform form with both quadratic phase factors kept:

        a3(rF) = k3/(2 pi i d) exp[i k3 rF^2/(2d)]
                 * FT+{ a3_obj(rO) exp[i k3 (f-d) rO^2 / (2 d f)] }

    Output pitch is lambda3 * d / (W * pitch_in).
    """
    k3 = g.k3.magnitude
    d, f = g.d, g.f
    w, h = obj.shape
    x, y = obj.coords()
    chirp_in = k3 * (f - d) / (d * f)
    _check_chirp_sampling(obj, chirp_in, "lens_image_2f2f input")
    pitch_out = g.k3.wavelength / g.k3.index * d / (w * obj.pitch)
    xo = (np.arange(w) - w // 2) * pitch_out
    yo = (np.arange(h) - h // 2) * pitch_out
    # exp(i c rho^2 / 2) = exp(i c x^2 / 2) exp(i c y^2 / 2) for both chirps
    scale = k3 / (2j * np.pi * d) * obj.pitch ** 2
    out = _ft_plus(obj.grid.astype(complex),
                   pre=(np.exp(0.5j * chirp_in * x ** 2), np.exp(0.5j * chirp_in * y ** 2)),
                   post=(scale * np.exp(0.5j * k3 * xo ** 2 / d), np.exp(0.5j * k3 * yo ** 2 / d)))
    return ScalarField(out, pitch_out, obj.wavelength)


def _transfer_factor(n: int, pitch: float, lam: float, distance: float) -> np.ndarray:
    """One axis's factor exp(i pi lam z f^2) of the angular-spectrum transfer
    function on the n FFT frequencies of that axis, zero beyond the band
    limit n pitch / (2 lam z)."""
    fr = np.fft.fftfreq(n, pitch)
    return np.where(np.abs(fr) <= n * pitch / (2.0 * lam * distance),
                    np.exp(1j * np.pi * lam * distance * fr ** 2), 0.0)


# free propagation pads, transforms and crops this many lines at a time
_BAND = 32


def _filter_lines(src: np.ndarray, dst: np.ndarray, factor: np.ndarray) -> None:
    """Each line (row) of `src`, zero-padded to factor.size, transformed,
    multiplied by `factor`, transformed back and cropped to its middle, into
    the same line of `dst`; a band of lines at a time through one buffer.
    The sides are powers of two, so a band of min(_BAND, lines) divides them."""
    lines, n0 = src.shape
    c0 = (factor.size - n0) // 2
    nb = min(_BAND, lines)
    band = np.empty((nb, factor.size), dtype=complex)
    for i in range(0, lines, nb):
        band[:, :c0] = band[:, c0 + n0:] = 0
        band[:, c0:c0 + n0] = src[i:i + nb]
        np.fft.fft(band, axis=1, out=band)
        band *= factor
        np.fft.ifft(band, axis=1, out=band)
        dst[i:i + nb] = band[:, c0:c0 + n0]


def free_propagate(field: ScalarField, distance: float, pad: int = 1) -> ScalarField:
    """Band-limited angular-spectrum propagation over `distance` (same pitch).

    The transfer function is zeroed, per axis, beyond the frequency where
    its phase slews faster than pi per frequency sample (Matsushima &
    Shimobaba, Opt. Express 17, 19662 (2009)), which keeps the circular
    convolution from aliasing.  `pad` zero-pads the grid by an integer
    factor before the transform (and crops after), which refines the
    frequency sampling and with it that band; use pad=2 for distances
    beyond W * pitch^2 / lambda.
    """
    _check_fft_grid(field.grid)
    if distance < 0:
        raise SamplingViolation("propagation distance must be non-negative")
    if distance == 0:
        return replace(field, grid=field.grid.copy())
    lam = field.wavelength
    k = 2.0 * np.pi / lam
    w0, h0 = field.grid.shape
    out = np.empty((w0, h0), dtype=complex)
    # the rows (axis 1) into the output, then the output's columns (axis 0)
    # in place, with the plane-wave phase exp(-i k z)
    _filter_lines(field.grid, out, _transfer_factor(pad * h0, field.pitch, lam, distance))
    _filter_lines(out.T, out.T, _transfer_factor(pad * w0, field.pitch, lam, distance)
                  * np.exp(-1j * k * distance))
    return ScalarField(out, field.pitch, field.wavelength)


def fourier_plane(field: ScalarField, f_lens: float) -> ScalarField:
    """Lens Fourier transform of the seed arm, field at the front focal plane.

    A plane wave along the unit vector u lands at f_lens (ux, uy); with the
    field one focal length before the lens no quadratic phase is left.
    Output pitch is lambda * f_lens / (W * pitch_in).
    """
    if f_lens <= 0:
        raise SamplingViolation("Fourier lens focal length must be positive")
    lam = field.wavelength
    k = 2.0 * np.pi / lam
    w, _ = field.shape
    spec = _ft_plus(field.grid.astype(complex),
                    post=(field.pitch ** 2 * k / (2j * np.pi * f_lens), 1.0))
    pitch_out = lam * f_lens / (w * field.pitch)
    return ScalarField(spec, pitch_out, field.wavelength)
