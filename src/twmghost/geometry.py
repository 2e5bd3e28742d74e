"""Beam directions, wavevectors, phase mismatch and geometric gain factors.

A beam direction is parametrized by two angles (theta, beta): theta is the
rotation in the plane containing the optical axis, beta the out-of-plane
elevation.  With z the crystal normal the unit vector is

    u = (sin beta, cos beta * sin theta, cos beta * cos theta)

so that the angle psi between two beams satisfies

    cos psi = sin b1 sin b2 + cos b1 cos b2 cos(t1 - t2).

All lengths are in meters, angles in radians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Wavevector of a monochromatic beam in a medium of index `index`."""

    direction: Direction
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

    def vector(self) -> np.ndarray:
        return self.magnitude * self.direction.unit_vector()


def vector_angles(v: np.ndarray) -> tuple:
    """Angles (theta, beta) of Cartesian vectors stacked along axis 0, not
    necessarily normalized; the inverse of unit_vectors."""
    ux, uy, uz = v / np.linalg.norm(v, axis=0)
    return np.arctan2(uy, uz), np.arcsin(np.clip(ux, -1, 1))


def direction_from_vector(v: np.ndarray) -> Direction:
    """Angles of a (not necessarily normalized) Cartesian direction."""
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0:
        raise GeometryError("zero vector has no direction")
    theta, beta = vector_angles(v)
    return Direction(theta=float(theta), beta=float(beta))


@dataclass(frozen=True)
class InteractionGeometry:
    """Full geometry of the imaging experiment.

    k1: seed, k2: generated, k3: pump.  d_O object-to-lens, d_F
    lens-to-crystal distance, f the imaging-lens focal length, d = 2f - d_F
    the lens image distance beyond the crystal, s2 the crystal-to-detector
    distance of the generated arm, crystal_length the crystal depth.
    lens_fourier_f / lens_fourier_d describe the Fourier lens on the seed arm.
    """

    k1: WaveVector
    k2: WaveVector
    k3: WaveVector
    crystal_length: float
    d_O: float
    d_F: float
    f: float
    d: float
    s2: float
    lens_fourier_f: float
    lens_fourier_d: float = field(default=0.0)

    def __post_init__(self):
        for name in ("crystal_length", "d_O", "d_F", "f", "d", "s2", "lens_fourier_f"):
            if getattr(self, name) <= 0:
                raise GeometryError(f"{name} must be positive")
        if abs(self.d - (2.0 * self.f - self.d_F)) > 1e-9 * self.f:
            raise GeometryError("holographic image-plane relation d = 2f - d_F violated")
        l1, l2, l3 = self.k1.wavelength, self.k2.wavelength, self.k3.wavelength
        if abs(1.0 / l3 - 1.0 / l1 - 1.0 / l2) * l3 > 1e-9:
            raise GeometryError("energy matching 1/l3 = 1/l1 + 1/l2 violated")
        if self.lens_fourier_d == 0.0:
            object.__setattr__(self, "lens_fourier_d", self.lens_fourier_f)

    def image_distance(self) -> float:
        """Distance at which the generated-arm image forms, s2 = (k2/k3) d."""
        return self.d * self.k2.magnitude / self.k3.magnitude


def angle_between(d1: Direction, d2: Direction):
    """Angle psi between two beam directions, in [0, pi].

    Like geometric_factor and image_offset, broadcasts over Directions whose
    angles are arrays.
    """
    c = (np.sin(d1.beta) * np.sin(d2.beta)
         + np.cos(d1.beta) * np.cos(d2.beta) * np.cos(d1.theta - d2.theta))
    return np.arccos(np.clip(c, -1.0, 1.0))


def bisector_projection(d1: Direction, d2: Direction) -> float:
    """b = cos(psi/2), the projection of either unit vector on the bisector."""
    return float(np.cos(0.5 * angle_between(d1, d2)))


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


@dataclass(frozen=True)
class PhaseMismatch:
    """Cartesian mismatch vector with its magnitude and bisector projection."""

    vector: np.ndarray
    magnitude: float
    bisector_projection: float


def phase_mismatch(g: InteractionGeometry) -> PhaseMismatch:
    """Mismatch dk = k3 - k2 - k1 of the nominal beam triplet."""
    dk = g.k3.vector() - g.k2.vector() - g.k1.vector()
    b_raw = 0.5 * (g.k1.direction.unit_vector() + g.k2.direction.unit_vector())
    nb = np.linalg.norm(b_raw)
    proj = float(np.dot(dk, b_raw / nb)) if nb > 0 else 0.0
    return PhaseMismatch(vector=dk, magnitude=float(np.linalg.norm(dk)),
                         bisector_projection=proj)


def image_offset(s2: float, d2: Direction) -> tuple:
    """Transverse detector-plane offset of the image formed by a beam along d2.

    x2bar = s2 sin(beta2), y2bar = s2 cos(beta2) sin(theta2).
    """
    if s2 <= 0:
        raise GeometryError("s2 must be positive")
    return s2 * np.sin(d2.beta), s2 * np.cos(d2.beta) * np.sin(d2.theta)
