import numpy as np
import pytest

from twmghost.errors import DegenerateGeometry, GeometryError
from twmghost.geometry import (
    Direction,
    InteractionGeometry,
    WaveVector,
    angle_between,
    geometric_factor,
    image_offset,
    unit_vectors,
    vector_angles,
)
from twmghost.pipeline import _idlers


def test_unit_vector_is_unit():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = Direction(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        assert abs(np.linalg.norm(d.unit_vector()) - 1.0) < 1e-14


def test_on_axis_direction():
    v = Direction(0.0, 0.0).unit_vector()
    assert np.allclose(v, [0.0, 0.0, 1.0])


def test_direction_roundtrip():
    # vector_angles inverts unit_vectors, as _idlers relies on
    rng = np.random.default_rng(11)
    theta, beta = rng.uniform(-1.0, 1.0, 50), rng.uniform(-1.0, 1.0, 50)
    back_theta, back_beta = vector_angles(unit_vectors(theta, beta))
    assert np.max(np.abs(back_theta - theta)) < 1e-12
    assert np.max(np.abs(back_beta - beta)) < 1e-12
    # the length of the vector does not matter
    back_theta, back_beta = vector_angles(3.7 * unit_vectors(theta, beta))
    assert np.max(np.abs(back_theta - theta)) < 1e-12


def test_wavevector_magnitude():
    k = WaveVector(532e-9, 1.5)
    assert abs(k.magnitude - 2 * np.pi * 1.5 / 532e-9) < 1e-3


def test_angle_between_matches_dot_product():
    # oracle: arccos of the dot product of the two unit vectors
    rng = np.random.default_rng(13)
    for _ in range(200):
        d1 = Direction(rng.uniform(-1, 1), rng.uniform(-1, 1))
        d2 = Direction(rng.uniform(-1, 1), rng.uniform(-1, 1))
        dot = float(np.dot(d1.unit_vector(), d2.unit_vector()))
        expected = np.arccos(np.clip(dot, -1.0, 1.0))
        assert abs(angle_between(d1, d2) - expected) < 1e-10


def test_bisector_projection_collinear():
    # cos(psi/2), the projection on the bisector that geometric_factor
    # divides by, is 1 for two beams along the same direction
    d = Direction(0.3, -0.2)
    assert abs(np.cos(0.5 * angle_between(d, d)) - 1.0) < 1e-14


def test_geometric_factor_symmetric_planar():
    # symmetric planar configuration: f = 1 / cos(psi/2)
    for half in (0.05, 0.2, 0.5):
        d1 = Direction(half, 0.0)
        d2 = Direction(-half, 0.0)
        psi = angle_between(d1, d2)
        assert abs(geometric_factor(d1, d2) - 1.0 / np.cos(psi / 2)) < 1e-12


def test_geometric_factor_on_axis_is_one():
    d = Direction(0.0, 0.0)
    assert abs(geometric_factor(d, d) - 1.0) < 1e-14


def test_geometric_factor_degenerate():
    d1 = Direction(np.pi / 2, 0.0)
    d2 = Direction(-np.pi / 2, 0.0)
    with pytest.raises(DegenerateGeometry):
        geometric_factor(d1, d2)


def _idler_vectors(theta, beta, g):
    """k3 - k1n of each seed mode, one per column, with the pump k3 on axis."""
    k3 = np.array([0.0, 0.0, g.k3.magnitude])
    return k3[:, None] - g.k1.magnitude * unit_vectors(theta, beta)


def _mismatch(theta, beta, g):
    """The scalar mismatch |k3 - k1n| - |k2| of each seed mode."""
    return np.linalg.norm(_idler_vectors(theta, beta, g), axis=0) - g.k2.magnitude


def test_phase_mismatch_collinear_degenerate_is_zero(geometry):
    # degenerate collinear pumping (1064 + 1064 -> 532 nm) is phase matched
    assert abs(_mismatch(np.zeros(1), np.zeros(1), geometry)[0]) < 1e-6


def test_phase_mismatch_vector_is_k3_minus_k1_minus_k2(geometry):
    # with k2n along k3 - k1n the mismatch vector k3 - k1n - k2n is parallel
    # to the idler, and its length is the scalar mismatch that sets the
    # acceptance sinc^2(dk L / 2)
    theta, beta = np.array([0.01, -4e-3, 0.0]), np.array([0.0, 7e-3, -0.02])
    t2, b2, accept = _idlers(theta, beta, geometry)
    k1n = geometry.k1.magnitude * unit_vectors(theta, beta)
    k2n = geometry.k2.magnitude * unit_vectors(t2, b2)
    k3 = np.array([0.0, 0.0, geometry.k3.magnitude])
    dk = k3[:, None] - k1n - k2n
    mismatch = _mismatch(theta, beta, geometry)
    assert np.allclose(np.linalg.norm(dk, axis=0), np.abs(mismatch), rtol=1e-6)
    assert np.allclose(accept, np.sinc(0.5 * mismatch * geometry.crystal_length / np.pi) ** 2,
                       rtol=1e-12)
    cross = np.cross(dk, k2n, axis=0)
    assert np.max(np.abs(cross)) < 1e-9 * geometry.k2.magnitude * np.max(np.abs(dk))


def test_phase_mismatch_small_tilt_scaling(geometry):
    # for a small seed tilt theta, |dk| ~ k1 * theta^2 (quadratic);
    # finite-difference check of the quadratic coefficient
    mags = _mismatch(np.array([1e-3, 2e-3]), np.zeros(2), geometry)
    assert mags[1] / mags[0] == pytest.approx(4.0, rel=1e-3)


def test_geometry_validation():
    k1 = WaveVector(1064e-9, 1.0)
    k2 = WaveVector(1064e-9, 1.0)
    k3 = WaveVector(532e-9, 1.0)
    InteractionGeometry(k1, k2, k3, 4e-3, 0.3, 0.4, 0.2, 0.15)
    # the crystal must sit behind the lens: 0 < d < 2f
    for d in (0.6, 0.7, 0.0, -0.1):
        with pytest.raises(GeometryError):
            InteractionGeometry(k1, k2, k3, 4e-3, 0.3, d, 0.2, 0.15)
    bad_k2 = WaveVector(900e-9, 1.0)
    with pytest.raises(GeometryError):
        InteractionGeometry(k1, bad_k2, k3, 4e-3, 0.3, 0.4, 0.2, 0.15)


def test_image_offset_small_angle():
    ofs = image_offset(0.2, Direction(1e-3, 2e-3))
    assert ofs[0] == pytest.approx(0.2 * np.sin(2e-3), rel=1e-12)
    assert ofs[1] == pytest.approx(0.2 * np.cos(2e-3) * np.sin(1e-3), rel=1e-12)


def test_image_offset_on_axis_is_zero():
    assert image_offset(0.2, Direction(0.0, 0.0)) == (0.0, 0.0)


@pytest.mark.parametrize("n_modes, spread", [(200, 5e-3), (2000, 5e-3), (24, 1e-3)])
def test_broadcast_matches_scalar_loop(geometry, n_modes, spread):
    # the vector forms must reproduce the per-direction scalar calls bit for bit
    from twmghost.chaotic_source import SourceSpec, sample_modes

    m = sample_modes(SourceSpec(n_modes=n_modes, angular_spread=spread), 12345, 0)
    t2, b2, _ = _idlers(m.theta, m.beta, geometry)
    seeds = [Direction(float(t), float(b)) for t, b in zip(m.theta, m.beta)]
    idlers = [Direction(float(t), float(b)) for t, b in zip(t2, b2)]
    seed, idler = Direction(m.theta, m.beta), Direction(t2, b2)
    assert np.array_equal(geometric_factor(seed, idler),
                          [geometric_factor(a, b) for a, b in zip(seeds, idlers)])
    assert np.array_equal(angle_between(seed, idler),
                          [angle_between(a, b) for a, b in zip(seeds, idlers)])
    xb, yb = image_offset(geometry.s2, idler)
    offsets = [image_offset(geometry.s2, d) for d in idlers]
    assert np.array_equal(xb, [o[0] for o in offsets])
    assert np.array_equal(yb, [o[1] for o in offsets])
    # one counter-propagating pair among the modes makes the whole call fail
    theta = np.append(m.theta, np.pi / 2)
    with pytest.raises(DegenerateGeometry):
        geometric_factor(Direction(theta, np.append(m.beta, 0.0)),
                         Direction(np.append(t2, -np.pi / 2), np.append(b2, 0.0)))
