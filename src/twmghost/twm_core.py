"""Closed-form evolution of the coupled signal/idler amplitudes.

The two slowly-varying amplitudes obey, along the bisector coordinate u of
the two beams (non-evolving pump a3),

    da1/du = i (g a3 / p1) conj(a2) exp(-i dk u)
    da2/du = i (g a3 / p2) conj(a1) exp(-i dk u)

with p1, p2 the projections of the two beam unit vectors on the bisector
(both equal cos(psi/2)).  `GainParams.r` is the path length along the beam;
the bisector coordinate is u = sqrt(p1 p2) r.  All functions broadcast over
numpy arrays so ensembles of parameter draws evolve in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec


@dataclass(frozen=True)
class CoupledAmplitudes:
    """Signal (a1) and generated (a2) dimensionless mode amplitudes."""

    a1: complex
    a2: complex


@dataclass(frozen=True)
class GainParams:
    """Parameters of one interaction: coupling g, pump a3, mismatch dk,
    bisector projections of the two beams, and path length r."""

    g: float
    a3: complex
    dk: float = 0.0
    proj1: float = 1.0
    proj2: float = 1.0
    r: float = 1.0

    def __post_init__(self):
        p1 = np.asarray(self.proj1)
        p2 = np.asarray(self.proj2)
        if np.any(p1 <= 0) or np.any(p1 > 1) or np.any(p2 <= 0) or np.any(p2 > 1):
            raise InvalidSpec("bisector projections must lie in (0, 1]")
        if np.any(np.asarray(self.r) < 0):
            raise InvalidSpec("path length r must be non-negative")


def q_parameter(p: GainParams):
    """Q = sqrt(4 g^2 |a3|^2 / (p1 p2) - dk^2).

    For a negative radicand the positive-imaginary branch is returned, so
    the hyperbolic solutions continue analytically into the oscillatory
    regime (cosh -> cos, sinh -> i sin).
    """
    rad = 4.0 * p.g ** 2 * np.abs(p.a3) ** 2 / (p.proj1 * p.proj2) - np.asarray(p.dk) ** 2
    return np.sqrt(rad.astype(complex))


def _sinhc(h):
    """sinh(h)/h with the h -> 0 limit handled; h may be complex."""
    h = np.asarray(h, dtype=complex)
    small = np.abs(h) < 1e-6
    safe = np.where(small, 1.0, h)
    out = np.sinh(safe) / safe
    return np.where(small, 1.0 + h * h / 6.0, out)


def _pump_phase(a3):
    """a3/|a3| with the zero-pump value defined as 1."""
    mag = np.abs(a3)
    return np.where(mag > 0, np.asarray(a3, dtype=complex) / np.where(mag > 0, mag, 1.0), 1.0)


def evolve_mismatched(c0: CoupledAmplitudes, p: GainParams) -> CoupledAmplitudes:
    """General closed-form solution with phase mismatch dk.

    Evaluated at the bisector coordinate u = sqrt(p1 p2) r, i.e. r is
    arclength along the beams.  Reduces to evolve_matched(..., fgeo=1)
    when dk = 0: for a path measured along the beam the geometric factor
    is identically 1 (fgeo != 1 re-expresses the same path by its depth
    along the crystal normal).
    """
    u = np.sqrt(p.proj1 * p.proj2) * p.r
    q = q_parameter(p)
    h = 0.5 * q * u
    ch = np.cosh(h)
    shq = 0.5 * u * _sinhc(h)       # sinh(Q u / 2) / Q
    a1_0 = np.asarray(c0.a1, dtype=complex)
    a2_0 = np.asarray(c0.a2, dtype=complex)
    diag = ch + 1j * p.dk * shq
    phase = np.exp(-0.5j * p.dk * u)
    a1 = (a1_0 * diag + np.conj(a2_0) * (2j * p.g * p.a3 / p.proj1) * shq) * phase
    a2 = (np.conj(a1_0) * (2j * p.g * p.a3 / p.proj2) * shq + a2_0 * diag) * phase
    return CoupledAmplitudes(a1=a1, a2=a2)


def evolve_matched(c0: CoupledAmplitudes, p: GainParams, fgeo=1.0) -> CoupledAmplitudes:
    """Phase-matched hyperbolic rotation with argument g |a3| fgeo r.

    The pump phase enters as a3/|a3| (defined as 1 for zero pump, where the
    sinh terms vanish anyway).
    """
    arg = p.g * np.abs(p.a3) * fgeo * p.r
    ph = _pump_phase(p.a3)
    ch, sh = np.cosh(arg), np.sinh(arg)
    a1_0 = np.asarray(c0.a1, dtype=complex)
    a2_0 = np.asarray(c0.a2, dtype=complex)
    a1 = a1_0 * ch + 1j * ph * np.conj(a2_0) * sh
    a2 = 1j * ph * np.conj(a1_0) * sh + a2_0 * ch
    return CoupledAmplitudes(a1=a1, a2=a2)


def ode_oracle(c0: CoupledAmplitudes, p: GainParams, steps: int = 4096) -> CoupledAmplitudes:
    """Fixed-step RK4 integration of the coupled equations; test oracle only.

    Integrates from u = 0 to u = sqrt(p1 p2) r with `steps` RK4 steps.  The
    step count default keeps the integration error well below 1e-10 for
    g |a3| r <= 1 and dk r <= 20, so disagreements at the 1e-8 level are
    attributable to the closed forms under test.
    """
    if steps < 1:
        raise InvalidSpec("steps must be >= 1")
    u_end = np.sqrt(p.proj1 * p.proj2) * p.r
    h = u_end / steps
    c1 = 1j * p.g * np.asarray(p.a3, dtype=complex) / p.proj1
    c2 = 1j * p.g * np.asarray(p.a3, dtype=complex) / p.proj2

    def rhs(u, a1, a2):
        e = np.exp(-1j * p.dk * u)
        return c1 * np.conj(a2) * e, c2 * np.conj(a1) * e

    a1 = np.asarray(c0.a1, dtype=complex).copy()
    a2 = np.asarray(c0.a2, dtype=complex).copy()
    for i in range(steps):
        u = i * h
        k1a, k1b = rhs(u, a1, a2)
        k2a, k2b = rhs(u + 0.5 * h, a1 + 0.5 * h * k1a, a2 + 0.5 * h * k1b)
        k3a, k3b = rhs(u + 0.5 * h, a1 + 0.5 * h * k2a, a2 + 0.5 * h * k2b)
        k4a, k4b = rhs(u + h, a1 + h * k3a, a2 + h * k3b)
        a1 = a1 + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        a2 = a2 + (h / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
    return CoupledAmplitudes(a1=a1, a2=a2)
