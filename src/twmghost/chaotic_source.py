"""Chaotic seed field as an ensemble of random plane-wave modes.

The seed is a superposition of N plane waves with directions drawn
uniformly in the (theta, beta) disc of radius `angular_spread` and i.i.d.
circular complex Gaussian amplitudes.  The Gaussian amplitude law is what
produces thermal intensity statistics (P(I) = exp(-I/<I>)/<I>) in both the
spatial and the temporal ensembles.

Determinism: every ModeSet is a pure function of (master_seed, shot_index),
realized with numpy's SeedSequence spawn keys, so a shot has the same bits
whichever shots are generated before it, or in the same call.  Mode directions are
drawn once per run (shot 0 stream) and held fixed across shots while
amplitudes are re-randomized per shot, mimicking a ground-glass diffuser
that re-randomizes the field over a persistent set of grating directions,
so each mode lights the same Fourier-plane pixel in every shot.

On the Fourier plane of the seed arm each mode lands on one pixel.
`fourier_bin_index` is that one mode-to-pixel map (a flat index per mode,
-1 off the grid) and `bin_intensities` sums per-mode weights on it, so the
Fourier-plane intensity of a shot is one bincount of its |a_n|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .geometry import unit_vectors
from .propagation import ScalarField

RNG_ALGORITHM = "pcg64-seedseq"


@dataclass(frozen=True)
class SourceSpec:
    """What to draw: N modes within `angular_spread`, complex-Gaussian
    amplitudes of r.m.s. `amplitude_scale`."""

    n_modes: int
    angular_spread: float
    amplitude_scale: float = 1.0
    # "gaussian" draws circular complex Gaussian amplitudes (thermal
    # intensities); "fixed-modulus" keeps |a| = amplitude_scale and only
    # randomizes the phase (zero intensity variance control).
    amplitude_law: str = "gaussian"
    fixed_directions = True  # always; not a field: kept for perfbench/checks.py's guard

    def __post_init__(self):
        if self.n_modes < 1:
            raise InvalidSpec("n_modes must be >= 1")
        # written so that NaN fails them too
        if not 0 < self.angular_spread < np.inf:
            raise InvalidSpec("angular_spread must be positive and finite")
        # above, the stack's sums of i1^2 overflow; below, |a|^2 and G leave
        # the normal floats and then underflow to all-zero frames
        if not 1e-50 <= self.amplitude_scale <= 1e50:
            raise InvalidSpec(f"amplitude_scale = {self.amplitude_scale:g} is outside "
                              "1e-50 <= amplitude_scale <= 1e50")
        if self.amplitude_law not in ("gaussian", "fixed-modulus"):
            raise InvalidSpec(f"amplitude_law = {self.amplitude_law!r} is not 'gaussian' or "
                              "'fixed-modulus'")


@dataclass(frozen=True)
class ModeSet:
    """One shot's worth of plane-wave modes (stored as parallel arrays)."""

    theta: np.ndarray
    beta: np.ndarray
    amplitude: np.ndarray


def _rng(master_seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def sample_modes(spec: SourceSpec, master_seed: int, shot_index: int) -> ModeSet:
    """Draw the ModeSet of one shot; deterministic in (master_seed, shot_index)."""
    amp = sample_amplitudes(spec, master_seed, shot_index)
    rd = _rng(master_seed, 0, 0)
    # uniform over the (theta, beta) disc
    rad = spec.angular_spread * np.sqrt(rd.random(spec.n_modes))
    phi = 2.0 * np.pi * rd.random(spec.n_modes)
    theta = rad * np.cos(phi)
    beta = rad * np.sin(phi)
    return ModeSet(theta=theta, beta=beta, amplitude=amp)


def sample_amplitudes(spec: SourceSpec, master_seed: int, shot_index: int) -> np.ndarray:
    """Complex mode amplitudes of one shot, the `amplitude` of its ModeSet;
    they have a random stream of their own, so drawing them alone skips the
    directions."""
    if shot_index < 0:
        raise InvalidSpec("shot_index must be non-negative")
    ra = _rng(master_seed, 1, shot_index)
    if spec.amplitude_law == "gaussian":
        amp = (ra.standard_normal(spec.n_modes) + 1j * ra.standard_normal(spec.n_modes))
        amp *= spec.amplitude_scale / np.sqrt(2.0)
        return amp
    return spec.amplitude_scale * np.exp(2j * np.pi * ra.random(spec.n_modes))


def field_from_modes(m: ModeSet, plane: ScalarField) -> ScalarField:
    """Coherent sum of the plane-wave modes sampled on the grid of `plane`.

    field(x, y) = sum_n a_n exp(-i k (ux_n x + uy_n y)), with u_n the unit
    vector of mode n, evaluated on the z = 0 plane.  Each term is separable
    in x and y, so the sum is one (W x n) @ (n x H) product.
    """
    k = 2.0 * np.pi / plane.wavelength
    x, y = plane.coords()
    sx, sy, _ = unit_vectors(m.theta, m.beta)
    ex = m.amplitude[:, None] * np.exp(-1j * k * sx[:, None] * x[None, :])
    out = ex.T @ np.exp(-1j * k * sy[:, None] * y[None, :])
    return ScalarField(out, plane.pitch, plane.wavelength)


def fourier_bin_index(m: ModeSet, f_lens: float, pitch: float, shape) -> np.ndarray:
    """Flat row-major pixel of each mode on the Fourier plane of the seed arm,
    a `shape` = (w, h) grid of `pitch` with the optical axis at
    (w // 2, h // 2); -1 for a mode whose pixel is off the grid, or whose
    position is not finite.

    A plane wave along the unit vector u focuses at f (ux, uy) behind a lens
    of focal length `f_lens`; the continuum delta of the lens transform is
    idealized as that single pixel.
    """
    w, h = shape
    fx, fy = np.rint(f_lens * unit_vectors(m.theta, m.beta)[:2] / pitch) + [[w // 2], [h // 2]]
    on = (fx >= 0) & (fx < w) & (fy >= 0) & (fy < h)
    # cast on the grid alone, where every position is a small integer
    ix, iy = np.where(on, [fx, fy], 0).astype(int)
    return np.where(on, ix * h + iy, -1)


def bin_intensities(index: np.ndarray, weights: np.ndarray, shape) -> np.ndarray:
    """Map of `shape` holding the sum of `weights` that fall on each flat
    pixel `index`, added in mode order; entries of index -1 are dropped.

    The Fourier-plane intensity of a ModeSet is
    bin_intensities(fourier_bin_index(m, ...), abs(m.amplitude) ** 2, shape).
    """
    on = index >= 0
    return np.bincount(index[on], weights=weights[on],
                       minlength=shape[0] * shape[1]).reshape(shape)
