"""Discretized scalar-field propagation.

Conventions: a forward plane wave is exp(-i k . r).  Grids are square-pixel,
power-of-two sized, with axis 0 of `grid` the x coordinate and axis 1 the y
coordinate, both centered (index W//2 is x = 0).

Two numerical kernels are used:

* single-FFT Fresnel transform for the lens transforms (object -> crystal
  plane, seed arm -> Fourier plane), whose output pitch is
  lambda * dist / (W * pitch_in);
* band-limited angular-spectrum propagation for free space, which keeps the
  input pitch and is therefore the right tool for the short crystal-to-
  detector hops where the single-FFT pitch would be coarser than the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SamplingViolation
from .geometry import InteractionGeometry


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass
class ScalarField:
    """2-D complex amplitude sampled on a plane (real-valued for intensity maps)."""

    grid: np.ndarray
    pitch: float
    wavelength: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid)
        if self.grid.ndim != 2 or not (_is_pow2(self.grid.shape[0]) and _is_pow2(self.grid.shape[1])):
            raise SamplingViolation(f"grid must be 2-D with power-of-two sides, got {self.grid.shape}")
        if self.pitch <= 0 or self.wavelength <= 0:
            raise SamplingViolation("pitch and wavelength must be positive")
        if not np.all(np.isfinite(self.grid)):
            raise SamplingViolation("field contains non-finite samples")

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


def _ft_plus(u: np.ndarray) -> np.ndarray:
    """Centered DFT with kernel exp(+2 pi i (f x + g y)), unnormalized."""
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(u))) * u.size


def _effective_radius(grid: np.ndarray, pitch: float) -> float:
    """Radius of the support where the field is non-negligible."""
    mag = np.abs(grid)
    peak = mag.max()
    if peak == 0:
        return 0.0
    w, h = grid.shape
    x = (np.arange(w) - w // 2) * pitch
    y = (np.arange(h) - h // 2) * pitch
    rho = np.hypot(x[:, None], y[None, :])
    return float(rho[mag > 1e-6 * peak].max())


def _check_chirp_sampling(grid, pitch, k_chirp, what):
    """Require the quadratic phase exp(i k_chirp rho^2 / 2) to be Nyquist
    resolved over the occupied part of the grid."""
    if k_chirp == 0:
        return
    r_eff = _effective_radius(grid, pitch)
    f_local = abs(k_chirp) * r_eff / (2.0 * np.pi)
    if f_local > 0.5 / pitch:
        raise SamplingViolation(
            f"{what}: quadratic phase local frequency {f_local:.3g}/m exceeds "
            f"Nyquist {0.5 / pitch:.3g}/m over the occupied aperture")


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
    rho2 = x[:, None] ** 2 + y[None, :] ** 2
    chirp_in = k3 * (f - d) / (d * f)
    _check_chirp_sampling(obj.grid, obj.pitch, chirp_in, "lens_image_2f2f input")
    u = obj.grid * np.exp(0.5j * chirp_in * rho2)
    spec = _ft_plus(u) * obj.pitch ** 2
    pitch_out = g.k3.wavelength / g.k3.index * d / (w * obj.pitch)
    xo = (np.arange(w) - w // 2) * pitch_out
    yo = (np.arange(h) - h // 2) * pitch_out
    rho2_out = xo[:, None] ** 2 + yo[None, :] ** 2
    out = (k3 / (2j * np.pi * d)) * np.exp(0.5j * k3 * rho2_out / d) * spec
    return ScalarField(out, pitch_out, obj.wavelength)


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
    if distance < 0:
        raise SamplingViolation("propagation distance must be non-negative")
    if distance == 0:
        return replace(field, grid=field.grid.copy())
    lam = field.wavelength
    k = 2.0 * np.pi / lam
    w0, h0 = field.grid.shape
    w, h = pad * w0, pad * h0
    r0, c0 = (w - w0) // 2, (h - h0) // 2
    # fft2 is fft along axis 1, then along axis 0; ifft2 likewise.  The same
    # 1-D transforms are run here, so the bytes are fft2's and ifft2's, but
    # not on the lines whose result is known or unused: rows of zero padding
    # transform to zeros, and after the axis-1 ifft only the h0 columns kept
    # are inverted along axis 0.  Each padded array is pad^2 times the field,
    # and at most two are alive at once: the spectrum and its transform, or
    # the spectrum and the kernel
    spec = np.zeros((w, h), dtype=complex)
    spec[r0:r0 + w0, c0:c0 + h0] = field.grid
    spec[r0:r0 + w0] = np.fft.fft(spec[r0:r0 + w0], axis=1)
    spec = np.fft.fft(spec, axis=0)
    fx = np.fft.fftfreq(w, field.pitch)
    fy = np.fft.fftfreq(h, field.pitch)
    kern = 1j * np.pi * lam * distance * (fx[:, None] ** 2 + fy[None, :] ** 2)
    np.exp(kern, out=kern)
    kern *= np.abs(fx[:, None]) <= w * field.pitch / (2.0 * lam * distance)
    kern *= np.abs(fy[None, :]) <= h * field.pitch / (2.0 * lam * distance)
    np.multiply(spec, kern, out=spec)
    del kern
    spec = np.fft.ifft(spec, axis=1)
    out = np.fft.ifft(spec[:, c0:c0 + h0], axis=0)[r0:r0 + w0]
    del spec
    out *= np.exp(-1j * k * distance)
    return ScalarField(out, field.pitch, field.wavelength)


def fourier_plane(field: ScalarField, f_lens: float) -> ScalarField:
    """Lens Fourier transform of the seed arm, field at the front focal plane.

    A plane wave tilted by (theta, beta) lands at
    (f_lens sin(beta), f_lens cos(beta) sin(theta)); with the field one focal
    length before the lens no quadratic phase is left.  Output pitch is
    lambda * f_lens / (W * pitch_in).
    """
    if f_lens <= 0:
        raise SamplingViolation("Fourier lens focal length must be positive")
    lam = field.wavelength
    k = 2.0 * np.pi / lam
    w, _ = field.shape
    spec = _ft_plus(field.grid) * field.pitch ** 2 * (k / (2j * np.pi * f_lens))
    pitch_out = lam * f_lens / (w * field.pitch)
    return ScalarField(spec, pitch_out, field.wavelength)
