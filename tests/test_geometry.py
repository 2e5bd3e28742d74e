import numpy as np
import pytest

from twmghost.errors import DegenerateGeometry, InvalidSpec
from twmghost.geometry import InteractionGeometry, WaveVector, geometric_factor, unit_vectors
from twmghost.pipeline import _idlers


def _vector_angles(v):
    """Angles (theta, beta) of vectors stacked along axis 0, of any length:
    the inverse of unit_vectors, which the angle-form oracles use."""
    ux, uy, uz = v / np.linalg.norm(v, axis=0)
    return np.arctan2(uy, uz), np.arcsin(ux)


def _trig_factor(theta1, beta1, theta2, beta2):
    """The paper's geometric factor from angles: the trig numerator over
    2 cos^2(psi/2), with psi the arccos of the unit vectors' dot product."""
    num = (np.sin(beta1) + np.sin(beta2)
           + np.cos(beta1) * np.sin(theta1) + np.cos(beta2) * np.sin(theta2)
           + np.cos(beta1) * np.cos(theta1) + np.cos(beta2) * np.cos(theta2))
    dot = np.sum(unit_vectors(theta1, beta1) * unit_vectors(theta2, beta2), axis=0)
    return num / (2.0 * np.cos(0.5 * np.arccos(dot)) ** 2)


def test_unit_vector_is_unit():
    rng = np.random.default_rng(7)
    u = unit_vectors(rng.uniform(-1.2, 1.2, 50), rng.uniform(-1.2, 1.2, 50))
    assert u.shape == (3, 50)
    assert np.max(np.abs(np.linalg.norm(u, axis=0) - 1.0)) < 1e-14


def test_on_axis_direction():
    v = unit_vectors(0.0, 0.0)
    assert np.allclose(v, [0.0, 0.0, 1.0])


def test_direction_roundtrip():
    # the angle-form oracles recover (theta, beta) from vectors by arctan2
    # and arcsin, which must invert unit_vectors
    rng = np.random.default_rng(11)
    theta, beta = rng.uniform(-1.0, 1.0, 50), rng.uniform(-1.0, 1.0, 50)
    back_theta, back_beta = _vector_angles(unit_vectors(theta, beta))
    assert np.max(np.abs(back_theta - theta)) < 1e-12
    assert np.max(np.abs(back_beta - beta)) < 1e-12
    # the length of the vector does not matter
    back_theta, back_beta = _vector_angles(3.7 * unit_vectors(theta, beta))
    assert np.max(np.abs(back_theta - theta)) < 1e-12


def test_wavevector_magnitude():
    k = WaveVector(532e-9, 1.5)
    assert abs(k.magnitude - 2 * np.pi * 1.5 / 532e-9) < 1e-3


def test_geometric_factor_matches_trig_form():
    # oracle: the paper's formula in angles, on random pairs of directions
    rng = np.random.default_rng(13)
    t1, b1, t2, b2 = rng.uniform(-1.0, 1.0, (4, 200))
    # the trig form of cos(psi) agrees with the dot product of the vectors
    dot = np.sum(unit_vectors(t1, b1) * unit_vectors(t2, b2), axis=0)
    cos_psi = np.sin(b1) * np.sin(b2) + np.cos(b1) * np.cos(b2) * np.cos(t1 - t2)
    assert np.max(np.abs(dot - cos_psi)) < 1e-14
    got = geometric_factor(unit_vectors(t1, b1), unit_vectors(t2, b2))
    assert np.max(np.abs(got / _trig_factor(t1, b1, t2, b2) - 1.0)) < 1e-13


def test_bisector_projection_collinear():
    # cos(psi/2), the projection on the bisector that geometric_factor
    # divides by, is 1 for two beams along the same direction, which leaves
    # the sum of the components of u
    u = unit_vectors(0.3, -0.2)
    assert geometric_factor(u, u) == pytest.approx(np.sum(u), rel=1e-14)


def test_geometric_factor_symmetric_planar():
    # symmetric planar configuration: f = 1 / cos(psi/2), psi = 2 half
    for half in (0.05, 0.2, 0.5):
        u1, u2 = unit_vectors(half, 0.0), unit_vectors(-half, 0.0)
        assert abs(geometric_factor(u1, u2) - 1.0 / np.cos(half)) < 1e-12


def test_geometric_factor_on_axis_is_one():
    u = unit_vectors(0.0, 0.0)
    assert abs(geometric_factor(u, u) - 1.0) < 1e-14


def test_geometric_factor_degenerate():
    with pytest.raises(DegenerateGeometry):
        geometric_factor(unit_vectors(np.pi / 2, 0.0), unit_vectors(-np.pi / 2, 0.0))


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
    u2, accept = _idlers(unit_vectors(theta, beta), geometry)
    assert np.max(np.abs(np.linalg.norm(u2, axis=0) - 1.0)) < 1e-14
    k1n = geometry.k1.magnitude * unit_vectors(theta, beta)
    k2n = geometry.k2.magnitude * u2
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
        with pytest.raises(InvalidSpec):
            InteractionGeometry(k1, k2, k3, 4e-3, 0.3, d, 0.2, 0.15)
    bad_k2 = WaveVector(900e-9, 1.0)
    with pytest.raises(InvalidSpec):
        InteractionGeometry(k1, bad_k2, k3, 4e-3, 0.3, 0.4, 0.2, 0.15)


def _geometry_with(**kwargs):
    args = {"crystal_length": 4e-3, "f": 0.3, "d": 0.4, "s2": 0.2, "lens_fourier_f": 0.15}
    return InteractionGeometry(WaveVector(1064e-9), WaveVector(1064e-9), WaveVector(532e-9),
                               **{**args, **kwargs})


@pytest.mark.parametrize("build", [
    lambda: WaveVector(np.nan),
    lambda: WaveVector(np.inf),
    lambda: WaveVector(1064e-9, np.nan),
    lambda: WaveVector(1064e-9, 0.0),
    lambda: _geometry_with(s2=np.nan),
    lambda: _geometry_with(s2=np.inf),
    lambda: _geometry_with(crystal_length=np.inf),
    lambda: _geometry_with(crystal_length=np.nan),
    lambda: _geometry_with(lens_fourier_f=-0.15),
], ids=["wavelength-nan", "wavelength-inf", "index-nan", "index-0", "s2-nan", "s2-inf",
        "crystal_length-inf", "crystal_length-nan", "lens_fourier_f-negative"])
def test_geometry_rejects_non_finite_and_out_of_range(build):
    # NaN passes a check written as x <= 0
    with pytest.raises(InvalidSpec, match="must be positive and finite"):
        build()


@pytest.mark.parametrize("n_modes, spread", [(200, 5e-3), (2000, 5e-3), (24, 1e-3)])
def test_broadcast_matches_scalar_loop(geometry, n_modes, spread):
    # geometric_factor over 3 x n vectors must reproduce its calls on one
    # direction pair at a time, column by column, bit for bit
    from twmghost.chaotic_source import SourceSpec, sample_modes

    m = sample_modes(SourceSpec(n_modes=n_modes, angular_spread=spread), 12345, 0)
    seed = unit_vectors(m.theta, m.beta)
    idler, _ = _idlers(seed, geometry)
    assert np.array_equal(geometric_factor(seed, idler),
                          [geometric_factor(seed[:, n], idler[:, n]) for n in range(n_modes)])
    # one counter-propagating pair among the modes makes the whole call fail
    pair = unit_vectors(np.array([np.pi / 2, -np.pi / 2]), np.zeros(2))
    with pytest.raises(DegenerateGeometry):
        geometric_factor(np.column_stack([seed, pair[:, 0]]),
                         np.column_stack([idler, pair[:, 1]]))
