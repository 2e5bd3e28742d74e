import numpy as np
import pytest

from twmghost.chaotic_source import (
    RNG_ALGORITHM,
    ModeSet,
    SourceSpec,
    bin_intensities,
    field_from_modes,
    fourier_bin_index,
    sample_amplitudes,
    sample_modes,
    seed_states,
)
from twmghost.errors import InvalidSpec
from twmghost.propagation import ScalarField


def _plane(width=256, pitch=16e-6, lam=1064e-9):
    return ScalarField(np.zeros((width, width), dtype=complex), pitch, lam)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        SourceSpec(n_modes=0, angular_spread=5e-3)
    with pytest.raises(InvalidSpec):
        SourceSpec(n_modes=10, angular_spread=0.0)
    with pytest.raises(InvalidSpec):
        SourceSpec(n_modes=10, angular_spread=5e-3, amplitude_law="flat")


@pytest.mark.parametrize("kwargs", [
    {"angular_spread": np.nan}, {"angular_spread": np.inf}, {"angular_spread": -1e-3},
    {"amplitude_scale": np.nan}, {"amplitude_scale": np.inf}, {"amplitude_scale": 0.0},
    {"amplitude_scale": 1e308},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_spec_rejects_non_finite_and_out_of_range(kwargs):
    # NaN passes a check written as x <= 0
    with pytest.raises(InvalidSpec, match=next(iter(kwargs))):
        SourceSpec(**{"n_modes": 20, "angular_spread": 5e-3, **kwargs})


def test_rng_algorithm_name():
    assert RNG_ALGORITHM == "pcg64-seedseq"


def test_sampling_is_deterministic():
    spec = SourceSpec(n_modes=50, angular_spread=5e-3)
    a = sample_modes(spec, 999, 3)
    b = sample_modes(spec, 999, 3)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.amplitude, b.amplitude)
    c = sample_modes(spec, 1000, 3)
    assert not np.array_equal(a.amplitude, c.amplitude)


def _numpy_generator(master_seed, *key):
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


@pytest.mark.parametrize("index", [0, 255, 256, 257, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1])
@pytest.mark.parametrize("master_seed", [0, 1, 12345, 2 ** 32 + 7, 2 ** 64 - 1])
def test_seed_states_are_numpys(master_seed, index):
    # the bulk hash is bit for bit SeedSequence's: as one row, and as its row
    # of the aligned chunk of 256 that holds it, in both streams
    first = index - index % 256
    chunk = seed_states(master_seed, 1, first, 256)
    assert chunk.shape == (256, 4) and chunk.dtype == np.uint64 and chunk.dtype.isnative
    for stream in (0, 1):
        want = np.random.SeedSequence(master_seed, spawn_key=(stream, index)).generate_state(
            4, np.uint64)
        got = seed_states(master_seed, stream, index, 1)
        assert got.shape == (1, 4) and got.dtype == want.dtype
        assert got[0].tobytes() == want.tobytes()
    assert chunk[index - first].tobytes() == want.tobytes()


def test_negative_shot_index_or_split_chunk_is_refused():
    spec = SourceSpec(n_modes=5, angular_spread=5e-3)
    with pytest.raises(InvalidSpec, match="non-negative"):
        sample_amplitudes(spec, 1, -1)
    with pytest.raises(InvalidSpec, match="non-negative"):
        sample_modes(spec, 1, -1)
    with pytest.raises(InvalidSpec, match="non-negative"):
        seed_states(3, 1, -256, 256)
    # a range across 2**32 would need two key lengths
    with pytest.raises(ValueError):
        seed_states(3, 1, 2 ** 32 - 1, 2)


@pytest.mark.parametrize("n_modes", [1, 7, 24, 200])
@pytest.mark.parametrize("law", ["gaussian", "fixed-modulus"])
def test_draws_are_byte_equal_to_numpys(law, n_modes):
    spec = SourceSpec(n_modes=n_modes, angular_spread=5e-3, amplitude_scale=1.7,
                      amplitude_law=law)
    for shot in (0, 9, 300, 2 ** 32 + 1):
        ra = _numpy_generator(12345, 1, shot)
        if law == "gaussian":
            want = ra.standard_normal(n_modes) + 1j * ra.standard_normal(n_modes)
            want *= spec.amplitude_scale / np.sqrt(2.0)
        else:
            want = spec.amplitude_scale * np.exp(2j * np.pi * ra.random(n_modes))
        got = sample_amplitudes(spec, 12345, shot)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the directions: stream (0, 0)
    rd = _numpy_generator(12345, 0, 0)
    rad = spec.angular_spread * np.sqrt(rd.random(n_modes))
    phi = 2.0 * np.pi * rd.random(n_modes)
    m = sample_modes(spec, 12345, 5)
    assert m.theta.tobytes() == (rad * np.cos(phi)).tobytes()
    assert m.beta.tobytes() == (rad * np.sin(phi)).tobytes()


def test_fixed_directions_share_geometry_not_amplitudes():
    spec = SourceSpec(n_modes=50, angular_spread=5e-3)
    s0 = sample_modes(spec, 42, 0)
    s5 = sample_modes(spec, 42, 5)
    assert np.array_equal(s0.theta, s5.theta)
    assert np.array_equal(s0.beta, s5.beta)
    assert not np.array_equal(s0.amplitude, s5.amplitude)
    # directions are always fixed: there is no field to ask for free ones
    with pytest.raises(TypeError):
        SourceSpec(n_modes=50, angular_spread=5e-3, fixed_directions=False)


def test_directions_within_spread_disc():
    spec = SourceSpec(n_modes=2000, angular_spread=3e-3)
    m = sample_modes(spec, 1, 0)
    rad = np.hypot(m.theta, m.beta)
    assert rad.max() <= 3e-3 + 1e-12
    # uniform over the disc: mean radius = 2/3 spread
    assert rad.mean() == pytest.approx(2.0 / 3.0 * 3e-3, rel=0.03)


def test_gaussian_amplitudes_are_thermal():
    # <I> = scale^2, <I^2>/<I>^2 = 2 for circular complex Gaussian fields
    spec = SourceSpec(n_modes=200, angular_spread=5e-3, amplitude_scale=1.7)
    samples = np.concatenate([np.abs(sample_modes(spec, 7, s).amplitude) ** 2
                              for s in range(100)])
    assert samples.mean() == pytest.approx(1.7 ** 2, rel=0.02)
    assert samples.var() / samples.mean() ** 2 == pytest.approx(1.0, abs=0.05)
    sstats = pytest.importorskip("scipy.stats")
    _, p = sstats.kstest(samples, "expon", args=(0.0, samples.mean()))
    assert p > 0.01


def test_fixed_modulus_amplitudes():
    spec = SourceSpec(n_modes=100, angular_spread=5e-3, amplitude_scale=0.5,
                      amplitude_law="fixed-modulus")
    m = sample_modes(spec, 7, 0)
    assert np.allclose(np.abs(m.amplitude), 0.5, atol=1e-14)


def test_single_mode_on_axis_is_constant():
    m = ModeSet(theta=np.array([0.0]), beta=np.array([0.0]),
                amplitude=np.array([0.3 + 0.4j]))
    f = field_from_modes(m, _plane(width=64))
    assert np.allclose(f.grid, 0.3 + 0.4j)


def test_two_mode_fringe_period():
    # modes at +-theta give a cosine fringe of period lam / (2 sin theta)
    theta = 2e-3
    lam = 1064e-9
    m = ModeSet(theta=np.array([theta, -theta]), beta=np.zeros(2),
                amplitude=np.array([1.0 + 0j, 1.0 + 0j]))
    plane = _plane(width=256, pitch=16e-6, lam=lam)
    inten = np.abs(field_from_modes(m, plane).grid) ** 2
    # fringes run along y (axis 1); measure the period from the FFT peak
    line = inten[0, :] - inten[0, :].mean()
    freqs = np.fft.rfftfreq(line.size, plane.pitch)
    peak = freqs[np.argmax(np.abs(np.fft.rfft(line)))]
    assert 1.0 / peak == pytest.approx(lam / (2 * np.sin(theta)), rel=0.05)


def test_field_linearity_and_concatenate():
    spec = SourceSpec(n_modes=30, angular_spread=5e-3)
    a = sample_modes(spec, 11, 0)
    b = sample_modes(spec, 13, 0)
    plane = _plane(width=64)
    fa = field_from_modes(a, plane).grid
    fb = field_from_modes(b, plane).grid
    ab = ModeSet(theta=np.concatenate([a.theta, b.theta]),
                 beta=np.concatenate([a.beta, b.beta]),
                 amplitude=np.concatenate([a.amplitude, b.amplitude]))
    fab = field_from_modes(ab, plane).grid
    assert np.allclose(fab, fa + fb, atol=1e-9 * np.abs(fab).max())


def test_speckle_intensity_histogram_is_exponential():
    # fully developed speckle at N=200: spatial intensity over pixels
    # follows the thermal law; KS D below the 5% critical value
    spec = SourceSpec(n_modes=200, angular_spread=5e-3)
    m = sample_modes(spec, 2026, 0)
    plane = _plane(width=256, pitch=16e-6)
    inten = np.abs(field_from_modes(m, plane).grid) ** 2
    # neighbouring pixels are correlated (speckle grain); subsample well
    # beyond the grain size so the KS test sees independent draws
    sub = inten[::8, ::8].ravel()
    sstats = pytest.importorskip("scipy.stats")
    d, _ = sstats.kstest(sub, "expon", args=(0.0, sub.mean()))
    assert d < 1.36 / np.sqrt(sub.size)


def _binned_intensity(m, f_lens, pitch=16e-6, width=256):
    shape = (width, width)
    return bin_intensities(fourier_bin_index(m, f_lens, pitch, shape),
                           np.abs(m.amplitude) ** 2, shape)


def test_fourier_bin_index_formula():
    # a plane wave along (theta, beta) focuses at (f sin beta, f cos beta sin theta)
    spec = SourceSpec(n_modes=20, angular_spread=5e-3)
    m = sample_modes(spec, 3, 0)
    ix = np.rint(0.15 * np.sin(m.beta) / 16e-6).astype(int) + 64
    iy = np.rint(0.15 * np.cos(m.beta) * np.sin(m.theta) / 16e-6).astype(int) + 64
    assert np.array_equal(fourier_bin_index(m, 0.15, 16e-6, (128, 128)), ix * 128 + iy)


def test_fourier_intensity_single_mode_single_pixel(geometry):
    m = ModeSet(theta=np.array([1.1e-3]), beta=np.array([-0.7e-3]),
                amplitude=np.array([2.0 - 1.0j]))
    out = _binned_intensity(m, geometry.lens_fourier_f)
    assert np.count_nonzero(out) == 1
    assert out.max() == pytest.approx(5.0)
    ix, iy = np.unravel_index(np.argmax(out), out.shape)
    f = geometry.lens_fourier_f
    assert ix == round(f * np.sin(-0.7e-3) / 16e-6) + 128
    assert iy == round(f * np.cos(-0.7e-3) * np.sin(1.1e-3) / 16e-6) + 128


def test_fourier_intensity_total_weight(geometry):
    # one more mode, tilted 30 mrad, lands 281 px off axis: its index is -1
    # and bin_intensities drops its weight
    m = sample_modes(SourceSpec(n_modes=100, angular_spread=5e-3), 5, 0)
    tilted = ModeSet(theta=np.append(m.theta, 0.03), beta=np.append(m.beta, 0.0),
                     amplitude=np.append(m.amplitude, 10.0))
    index = fourier_bin_index(tilted, geometry.lens_fourier_f, 16e-6, (256, 256))
    assert index[-1] == -1 and (index[:-1] >= 0).all()
    out = _binned_intensity(tilted, geometry.lens_fourier_f)
    assert out.sum() == pytest.approx(np.sum(np.abs(m.amplitude) ** 2))


def test_fourier_intensity_equals_mode_by_mode_sum(geometry):
    # a small grid and a wide spread: modes share bins and fall off the grid
    m = sample_modes(SourceSpec(n_modes=300, angular_spread=4e-3), 5, 1)
    f = geometry.lens_fourier_f
    ix = np.rint(f * np.sin(m.beta) / 16e-6).astype(int) + 16
    iy = np.rint(f * np.cos(m.beta) * np.sin(m.theta) / 16e-6).astype(int) + 16
    on = (ix >= 0) & (ix < 32) & (iy >= 0) & (iy < 32)
    assert 0 < on.sum() < 300 and len(set(zip(ix[on], iy[on]))) < on.sum()
    assert np.array_equal(fourier_bin_index(m, f, 16e-6, (32, 32)) == -1, ~on)
    p = np.abs(m.amplitude) ** 2
    want = np.zeros((32, 32))
    for n in np.flatnonzero(on):
        want[ix[n], iy[n]] += p[n]
    assert np.array_equal(_binned_intensity(m, f, width=32), want)


def test_fourier_intensity_matches_propagated_field(geometry):
    # cross-validation: binned mode positions coincide with the bright
    # pixels of |fourier_plane(field_from_modes)|^2
    from twmghost.propagation import fourier_plane

    spec = SourceSpec(n_modes=5, angular_spread=4e-3)
    m = sample_modes(spec, 17, 0)
    plane = _plane(width=256, pitch=16e-6)
    field = field_from_modes(m, plane)
    prop = fourier_plane(field, geometry.lens_fourier_f)
    inten = np.abs(prop.grid) ** 2
    floor = np.median(inten)
    index = fourier_bin_index(m, geometry.lens_fourier_f, prop.pitch, prop.shape)
    assert (index >= 0).all()
    for ix, iy in zip(*np.unravel_index(index, prop.shape)):
        patch = inten[max(ix - 1, 0):ix + 2, max(iy - 1, 0):iy + 2]
        # each mode position lands on a bright spot of the propagated field
        assert patch.max() > 100 * floor
