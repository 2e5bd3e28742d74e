"""Beam directions, wavevectors, the imaging geometry and geometric gain factors.

The source draws each seed-mode direction as two angles (theta, beta):
theta is the rotation in the plane containing the optical axis, beta the
out-of-plane elevation.  `unit_vectors` turns them, once, into unit vectors
with z the crystal normal,

    u = (sin beta, cos beta * sin theta, cos beta * cos theta),

and everything after works on those vectors, stacked 3 x n: the idler
directions, the image offsets, the Fourier-plane pixels and the geometric
gain factor.  The angle psi between two beams is arccos(u1 . u2).

All lengths are in meters, angles in radians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, InvalidSpec

# cos^2(psi/2) below this is treated as counter-propagating
DEGENERACY_TOL = 1e-12


def unit_vectors(theta, beta) -> np.ndarray:
    """Unit vectors of the directions (theta, beta), stacked along axis 0."""
    return np.stack([np.sin(beta), np.cos(beta) * np.sin(theta), np.cos(beta) * np.cos(theta)])


@dataclass(frozen=True)
class WaveVector:
    """Wavenumber of a monochromatic on-axis beam in a medium of index
    `index`; tilted seed modes and their idlers are handled as arrays of
    unit vectors next to it."""

    wavelength: float  # vacuum wavelength, m
    index: float = 1.0

    def __post_init__(self):
        # written so that NaN fails them too
        if not 0 < self.wavelength < np.inf:
            raise InvalidSpec("wavelength must be positive and finite")
        if not 0 < self.index < np.inf:
            raise InvalidSpec("refractive index must be positive and finite")

    @property
    def magnitude(self) -> float:
        """|k| = 2 pi n / lambda, rad/m."""
        return 2.0 * np.pi * self.index / self.wavelength


@dataclass(frozen=True)
class InteractionGeometry:
    """Full geometry of the imaging experiment.

    k1: seed, k2: generated, k3: pump, each a wavenumber: every beam is on
    axis (along z, the crystal normal) but the chaotic seed's modes, whose
    directions the source draws, and their phase-matched idlers.  The object
    sits at 2f before the imaging lens of focal length f; d is the lens image
    distance beyond the crystal, 0 < d < 2f (the crystal sits 2f - d behind
    the lens).  s2 is the crystal-to-detector distance of the generated arm,
    crystal_length the crystal depth, lens_fourier_f the focal length of the
    Fourier lens on the seed arm.  The phase mismatch of each seed mode is computed where it is
    used, in the pipeline's acceptance weights.
    """

    k1: WaveVector
    k2: WaveVector
    k3: WaveVector
    crystal_length: float
    f: float
    d: float
    s2: float
    lens_fourier_f: float

    def __post_init__(self):
        for name in ("crystal_length", "f", "d", "s2", "lens_fourier_f"):
            if not 0 < getattr(self, name) < np.inf:
                raise InvalidSpec(f"{name} must be positive and finite")
        if self.d >= 2.0 * self.f:
            raise InvalidSpec("image distance d must lie below 2f (crystal behind the lens)")
        l1, l2, l3 = self.k1.wavelength, self.k2.wavelength, self.k3.wavelength
        if abs(1.0 / l3 - 1.0 / l1 - 1.0 / l2) * l3 > 1e-9:
            raise InvalidSpec("energy matching 1/l3 = 1/l1 + 1/l2 violated")


def geometric_factor(u1: np.ndarray, u2: np.ndarray):
    """Pure geometrical factor entering the hyperbolic gain argument, for
    unit vectors u1 and u2 (one direction, or 3 x n of them).

    f = (sum of the components of u1 + u2) / (2 cos^2(psi/2)),

    with 2 cos^2(psi/2) = 1 + u1 . u2.  The on-axis pair gives exactly 1
    (crystal-frame components).  Raises DegenerateGeometry when any pair is
    (numerically) counter-propagating.
    """
    c2 = 0.5 * (1.0 + np.sum(u1 * u2, axis=0))  # cos^2(psi/2)
    if np.any(c2 < DEGENERACY_TOL):
        raise DegenerateGeometry(f"cos^2(psi/2) = {np.min(c2):.3e}; "
                                 "beams nearly counter-propagate")
    return np.sum(u1 + u2, axis=0) / (2.0 * c2)
