"""Beam directions, wavevectors, the imaging geometry and geometric gain factors.

A beam direction is parametrized by two angles (theta, beta): theta is the
rotation in the plane containing the optical axis, beta the out-of-plane
elevation.  With z the crystal normal the unit vector is

    u = (sin beta, cos beta * sin theta, cos beta * cos theta)

so that the angle psi between two beams satisfies

    cos psi = sin b1 sin b2 + cos b1 cos b2 cos(t1 - t2).

All lengths are in meters, angles in radians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, GeometryError

# cos^2(psi/2) below this is treated as counter-propagating
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class Direction:
    """A propagation direction given by the two angles of the beam frame."""

    theta: float = 0.0
    beta: float = 0.0

    def unit_vector(self) -> np.ndarray:
        return unit_vectors(self.theta, self.beta)


def unit_vectors(theta, beta) -> np.ndarray:
    """Unit vectors of the directions (theta, beta), stacked along axis 0."""
    return np.stack([np.sin(beta), np.cos(beta) * np.sin(theta), np.cos(beta) * np.cos(theta)])


@dataclass(frozen=True)
class WaveVector:
    """Wavenumber of a monochromatic on-axis beam in a medium of index
    `index`; tilted seed modes and their idlers are handled as direction
    arrays next to it."""

    wavelength: float  # vacuum wavelength, m
    index: float = 1.0

    def __post_init__(self):
        if self.wavelength <= 0:
            raise GeometryError("wavelength must be positive")
        if self.index <= 0:
            raise GeometryError("refractive index must be positive")

    @property
    def magnitude(self) -> float:
        """|k| = 2 pi n / lambda, rad/m."""
        return 2.0 * np.pi * self.index / self.wavelength


def vector_angles(v: np.ndarray) -> tuple:
    """Angles (theta, beta) of Cartesian vectors stacked along axis 0, not
    necessarily normalized; the inverse of unit_vectors."""
    ux, uy, uz = v / np.linalg.norm(v, axis=0)
    return np.arctan2(uy, uz), np.arcsin(np.clip(ux, -1, 1))


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
            if getattr(self, name) <= 0:
                raise GeometryError(f"{name} must be positive")
        if self.d >= 2.0 * self.f:
            raise GeometryError("image distance d must lie below 2f (crystal behind the lens)")
        l1, l2, l3 = self.k1.wavelength, self.k2.wavelength, self.k3.wavelength
        if abs(1.0 / l3 - 1.0 / l1 - 1.0 / l2) * l3 > 1e-9:
            raise GeometryError("energy matching 1/l3 = 1/l1 + 1/l2 violated")


def angle_between(d1: Direction, d2: Direction):
    """Angle psi between two beam directions, in [0, pi].

    Like geometric_factor and image_offset, broadcasts over Directions whose
    angles are arrays.
    """
    c = (np.sin(d1.beta) * np.sin(d2.beta)
         + np.cos(d1.beta) * np.cos(d2.beta) * np.cos(d1.theta - d2.theta))
    return np.arccos(np.clip(c, -1.0, 1.0))


def geometric_factor(d1: Direction, d2: Direction):
    """Pure geometrical factor entering the hyperbolic gain argument.

    f = (sin b1 + sin b2 + cos b1 sin t1 + cos b2 sin t2
         + cos b1 cos t1 + cos b2 cos t2) / (2 cos^2(psi/2))

    The on-axis pair gives exactly 1 (crystal-frame components).  Raises
    DegenerateGeometry when the beams are (numerically) counter-propagating.
    """
    psi = angle_between(d1, d2)
    c2 = np.cos(0.5 * psi) ** 2
    if np.any(c2 < DEGENERACY_TOL):
        raise DegenerateGeometry(f"cos^2(psi/2) = {np.min(c2):.3e}; "
                                 "beams nearly counter-propagate")
    num = (np.sin(d1.beta) + np.sin(d2.beta)
           + np.cos(d1.beta) * np.sin(d1.theta) + np.cos(d2.beta) * np.sin(d2.theta)
           + np.cos(d1.beta) * np.cos(d1.theta) + np.cos(d2.beta) * np.cos(d2.theta))
    return num / (2.0 * c2)


def image_offset(s2: float, d2: Direction) -> tuple:
    """Transverse detector-plane offset of the image formed by a beam along d2.

    x2bar = s2 sin(beta2), y2bar = s2 cos(beta2) sin(theta2).
    """
    if s2 <= 0:
        raise GeometryError("s2 must be positive")
    return s2 * np.sin(d2.beta), s2 * np.cos(d2.beta) * np.sin(d2.theta)
