import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twmghost.errors import SamplingViolation
from twmghost.geometry import InteractionGeometry, WaveVector, unit_vectors
from twmghost.propagation import (
    ScalarField,
    fourier_plane,
    free_propagate,
    lens_image_2f2f,
)


def _gaussian_field(width=256, pitch=10e-6, w0=0.3e-3, lam=1064e-9):
    x = (np.arange(width) - width // 2) * pitch
    rho2 = x[:, None] ** 2 + x[None, :] ** 2
    return ScalarField(np.exp(-rho2 / w0 ** 2), pitch, lam)


def test_field_validation():
    # a field of any 2-D shape carries an intensity (a binned coherent image);
    # the transforms take power-of-two sides alone
    odd = ScalarField(np.zeros((100, 100)), 1e-5, 1e-6)
    with pytest.raises(SamplingViolation, match="power-of-two"):
        free_propagate(odd, 0.1)
    with pytest.raises(SamplingViolation, match="power-of-two"):
        fourier_plane(odd, 0.15)
    for shape in [(64,), (0, 0)]:
        with pytest.raises(SamplingViolation, match="2-D and not empty"):
            ScalarField(np.zeros(shape), 1e-5, 1e-6)
    with pytest.raises(SamplingViolation):
        ScalarField(np.zeros((64, 64)), -1e-5, 1e-6)
    bad = np.zeros((64, 64))
    bad[0, 0] = np.nan
    with pytest.raises(SamplingViolation):
        ScalarField(bad, 1e-5, 1e-6)


@pytest.mark.parametrize("pitch, wavelength", [
    (np.nan, 1e-6), (np.inf, 1e-6), (0.0, 1e-6), (1e-5, np.nan), (1e-5, np.inf), (1e-5, -1e-6),
])
def test_field_rejects_non_finite_and_out_of_range(pitch, wavelength):
    # NaN passes a check written as x <= 0
    with pytest.raises(SamplingViolation, match="positive and finite"):
        ScalarField(np.zeros((64, 64)), pitch, wavelength)


def test_coords_centered():
    f = _gaussian_field(width=64)
    x, y = f.coords()
    assert x[32] == 0.0 and y[32] == 0.0
    assert x[33] - x[32] == pytest.approx(f.pitch)


def test_power_riemann_sum():
    f = _gaussian_field()
    # closed form: integral of exp(-2 rho^2/w0^2) = pi w0^2 / 2
    expected = np.pi * (0.3e-3) ** 2 / 2
    assert f.power() == pytest.approx(expected, rel=1e-6)


def test_free_propagate_conserves_power():
    f = _gaussian_field()
    for dist in (0.01, 0.05, 0.2):
        out = free_propagate(f, dist)
        assert out.power() == pytest.approx(f.power(), rel=1e-3)


def test_free_propagate_zero_distance_identity():
    f = _gaussian_field()
    out = free_propagate(f, 0.0)
    assert np.array_equal(out.grid, f.grid)


def test_free_propagate_plane_wave_global_phase():
    # a uniform field is a DC eigenmode: only the exp(-i k z) factor applies
    f = ScalarField(np.ones((64, 64), dtype=complex), 16e-6, 1064e-9)
    z = 0.03
    out = free_propagate(f, z)
    expected = np.exp(-2j * np.pi / 1064e-9 * z)
    assert np.allclose(out.grid, expected, atol=1e-10)


def test_free_propagate_ramp_eigenmode():
    # a discrete ramp at grid frequency f0 is an eigenmode of the angular
    # spectrum with eigenvalue exp(i pi lam z f0^2) exp(-i k z)
    width, pitch, lam, z = 128, 16e-6, 1064e-9, 0.02
    m = 9
    f0 = m / (width * pitch)
    x = np.arange(width) * pitch
    ramp = np.exp(2j * np.pi * f0 * x)[:, None] * np.ones(width)[None, :]
    out = free_propagate(ScalarField(ramp, pitch, lam), z)
    eig = np.exp(1j * np.pi * lam * z * f0 ** 2) * np.exp(-2j * np.pi / lam * z)
    assert np.allclose(out.grid, eig * ramp, atol=1e-9)


def test_free_propagate_gaussian_abcd_oracle():
    # closed-form Gaussian beam: w(z) = w0 sqrt(1 + (z/zR)^2), peak 1/(1+(z/zR)^2)^.5
    w0, lam = 0.3e-3, 1064e-9
    zr = np.pi * w0 ** 2 / lam
    f = _gaussian_field(w0=w0, lam=lam)
    for z in (0.5 * zr, zr, 2.0 * zr):
        out = free_propagate(f, z, pad=2)
        wz = w0 * np.sqrt(1 + (z / zr) ** 2)
        mag = np.abs(out.grid)
        assert mag.max() == pytest.approx(w0 / wz, rel=1e-3)
        # 1/e radius of the amplitude along the central row
        x, _ = out.coords()
        row = mag[:, 128] / mag.max()
        measured = np.interp(-np.exp(-1.0), -row[128:], x[128:])  # 1/e crossing
        assert measured == pytest.approx(wz, rel=2e-3, abs=out.pitch)


def test_free_propagate_gaussian_1_over_e():
    w0, lam = 0.3e-3, 1064e-9
    zr = np.pi * w0 ** 2 / lam
    f = _gaussian_field(w0=w0, lam=lam)
    out = free_propagate(f, zr, pad=2)
    x, _ = out.coords()
    row = np.abs(out.grid[:, 128]) / np.abs(out.grid).max()
    crossing = x[128:][np.argmin(np.abs(row[128:] - np.exp(-1)))]
    assert crossing == pytest.approx(w0 * np.sqrt(2), rel=0.02)


def _free_propagate_2d_kernel(field, distance, pad):
    """Angular-spectrum propagation as one 2-D expression: fft2 of the padded
    grid, times the 2-D band-limited transfer function, ifft2 and crop."""
    lam = field.wavelength
    k = 2.0 * np.pi / lam
    grid = field.grid
    w0, h0 = grid.shape
    if pad > 1:
        w, h = pad * w0, pad * h0
        big = np.zeros((w, h), dtype=complex)
        big[(w - w0) // 2:(w + w0) // 2, (h - h0) // 2:(h + h0) // 2] = grid
        grid = big
    w, h = grid.shape
    fx = np.fft.fftfreq(w, field.pitch)
    fy = np.fft.fftfreq(h, field.pitch)
    kern = np.exp(1j * np.pi * lam * distance * (fx[:, None] ** 2 + fy[None, :] ** 2))
    flim_x = w * field.pitch / (2.0 * lam * distance)
    flim_y = h * field.pitch / (2.0 * lam * distance)
    kern = kern * (np.abs(fx[:, None]) <= flim_x) * (np.abs(fy[None, :]) <= flim_y)
    out = np.fft.ifft2(np.fft.fft2(grid) * kern) * np.exp(-1j * k * distance)
    if pad > 1:
        out = out[(w - w0) // 2:(w + w0) // 2, (h - h0) // 2:(h + h0) // 2]
    return out


def _free_propagate_separable(field, distance, pad):
    """free_propagate written out plainly, each step a new array: the rows
    padded, filtered and cropped, then the columns likewise."""
    lam = field.wavelength
    k = 2.0 * np.pi / lam
    w0, h0 = field.grid.shape
    w, h = pad * w0, pad * h0
    r0, c0 = (w - w0) // 2, (h - h0) // 2

    def factor(n):
        fr = np.fft.fftfreq(n, field.pitch)
        return np.where(np.abs(fr) <= n * field.pitch / (2.0 * lam * distance),
                        np.exp(1j * np.pi * lam * distance * fr ** 2), 0.0)

    rows = np.pad(field.grid.astype(complex), ((0, 0), (c0, h - h0 - c0)))
    rows = np.fft.ifft(np.fft.fft(rows, axis=1) * factor(h), axis=1)[:, c0:c0 + h0]
    cols = np.pad(rows, ((r0, w - w0 - r0), (0, 0)))
    kx = factor(w) * np.exp(-1j * k * distance)
    return np.fft.ifft(np.fft.fft(cols, axis=0) * kx[:, None], axis=0)[r0:r0 + w0]


def _lens_image_2d_chirps(obj, g):
    """lens_image_2f2f with each quadratic phase a 2-D exp and the centered
    DFT as fftshift(ifft2(ifftshift(u)))."""
    k3, d, f = g.k3.magnitude, g.d, g.f
    x, y = obj.coords()
    u = obj.grid * np.exp(0.5j * k3 * (f - d) / (d * f) * (x[:, None] ** 2 + y[None, :] ** 2))
    spec = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(u))) * u.size * obj.pitch ** 2
    w, h = obj.shape
    pitch_out = g.k3.wavelength / g.k3.index * d / (w * obj.pitch)
    xo = (np.arange(w) - w // 2) * pitch_out
    yo = (np.arange(h) - h // 2) * pitch_out
    rho2_out = xo[:, None] ** 2 + yo[None, :] ** 2
    return (k3 / (2j * np.pi * d)) * np.exp(0.5j * k3 * rho2_out / d) * spec


def _test_fields(rng, pitch=10e-6):
    """A square real Gaussian and a 64 x 32 complex speckle field."""
    speckle = rng.standard_normal((64, 32)) + 1j * rng.standard_normal((64, 32))
    return _gaussian_field(width=64, pitch=pitch), ScalarField(speckle, pitch, 1064e-9)


@pytest.mark.parametrize("pad", [1, 2])
def test_free_propagate_in_place_is_bit_identical(rng, pad):
    fields = _test_fields(rng)
    # and a 16 x 8 speckle field, narrower than one band of lines either way
    narrow = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    for field in fields + (ScalarField(narrow, 10e-6, 1064e-9),):
        for z in (1e-3, 0.3):
            got = free_propagate(field, z, pad=pad).grid
            want = _free_propagate_separable(field, z, pad)
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("pad", [1, 2])
def test_separable_transforms_match_the_2d_formulas(rng, pad):
    # the 1-D factors and passes change only the last bits
    for field in _test_fields(rng):
        for z in (1e-3, 0.3):
            got = free_propagate(field, z, pad=pad).grid
            want = _free_propagate_2d_kernel(field, z, pad)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    g = _small_geometry()
    for field, tol in zip(_test_fields(rng, pitch=52e-6), (1e-14, None)):
        obj = replace(field, grid=field.grid.astype(complex), wavelength=532e-9)
        out = lens_image_2f2f(obj, g)
        got, want = out.grid, _lens_image_2d_chirps(obj, g)
        if tol is None:
            # the speckle is as bright at the edges, where the chirps reach
            # about 90 rad and either form rounds the phase by eps times that
            x, y = obj.coords()
            xo, yo = out.coords()
            k3, d, f = g.k3.magnitude, g.d, g.f
            phase = 0.5 * k3 * (abs(f - d) / (d * f) * (x.min() ** 2 + y.min() ** 2)
                                + (xo.min() ** 2 + yo.min() ** 2) / d)
            tol = 4 * np.finfo(float).eps * phase
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        got = fourier_plane(field, 0.15).grid
        k = 2 * np.pi / field.wavelength
        want = (np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(field.grid))) * field.grid.size
                * field.pitch ** 2 * (k / (2j * np.pi * 0.15)))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_free_propagate_memory_is_one_padded_axis_at_a_time():
    # 256^2 at pad 2: the padded 2-D grid and kernel of the 2-D method peaked
    # at 10.6 MB, the padded rows and columns (2 MB each) at 4.2 MB; the
    # output (1 MB) and one band of 32 padded lines (0.26 MB) peak at 1.5 MB
    field = _gaussian_field(width=256)
    tracemalloc.start()
    try:
        free_propagate(field, 0.2, pad=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_free_propagate_rejects_negative_distance():
    with pytest.raises(SamplingViolation):
        free_propagate(_gaussian_field(), -0.1)


def test_fourier_plane_parseval():
    f = _gaussian_field()
    out = fourier_plane(f, 0.15)
    assert out.power() == pytest.approx(f.power(), rel=1e-10)


def test_fourier_plane_tilt_position():
    # tilted plane wave exp(-i k (ux x + uy y)) focuses at
    # (f sin(beta), f cos(beta) sin(theta))
    width, pitch, lam, fl = 256, 16e-6, 1064e-9, 0.15
    k = 2 * np.pi / lam
    theta, beta = 1.5e-3, -2.2e-3
    ux, uy, _ = unit_vectors(theta, beta)
    x = (np.arange(width) - width // 2) * pitch
    ramp = np.exp(-1j * k * (ux * x[:, None] + uy * x[None, :]))
    out = fourier_plane(ScalarField(ramp, pitch, lam), fl)
    ix, iy = np.unravel_index(np.argmax(np.abs(out.grid)), out.shape)
    xo, yo = out.coords()
    assert xo[ix] == pytest.approx(fl * np.sin(beta), abs=out.pitch)
    assert yo[iy] == pytest.approx(fl * np.cos(beta) * np.sin(theta), abs=out.pitch)


def test_fourier_plane_linearity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    b = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    fa = fourier_plane(ScalarField(a, 16e-6, 1064e-9), 0.15).grid
    fb = fourier_plane(ScalarField(b, 16e-6, 1064e-9), 0.15).grid
    fab = fourier_plane(ScalarField(a + 2j * b, 16e-6, 1064e-9), 0.15).grid
    assert np.allclose(fab, fa + 2j * fb, atol=1e-10)


def test_fourier_plane_airy_first_null():
    # circular aperture of diameter D: first intensity null at 1.22 lam f / D
    width, pitch, lam, fl = 512, 10e-6, 1064e-9, 0.3
    diam = 0.6e-3
    x = (np.arange(width) - width // 2) * pitch
    rho = np.hypot(x[:, None], x[None, :])
    ap = (rho <= diam / 2).astype(complex)
    out = fourier_plane(ScalarField(ap, pitch, lam), fl)
    prof = np.abs(out.grid[width // 2 :, width // 2]) ** 2
    j = 1
    while not (prof[j] < prof[j - 1] and prof[j] <= prof[j + 1]):
        j += 1
    # parabolic refinement around the first local minimum
    num = prof[j - 1] - prof[j + 1]
    den = prof[j - 1] - 2 * prof[j] + prof[j + 1]
    null = (j + 0.5 * num / den) * out.pitch
    assert null == pytest.approx(1.22 * lam * fl / diam, rel=0.05)


def _small_geometry():
    k1 = WaveVector(1064e-9, 1.0)
    k2 = WaveVector(1064e-9, 1.0)
    k3 = WaveVector(532e-9, 1.0)
    return InteractionGeometry(k1, k2, k3, crystal_length=4e-3,
                               f=0.3, d=0.4, s2=0.2,
                               lens_fourier_f=0.15)


def test_lens_image_quadrature_oracle():
    # brute-force Fresnel sum for a handful of output pixels
    g = _small_geometry()
    rng = np.random.default_rng(5)
    width, pitch = 64, 52e-6
    grid = np.zeros((width, width), dtype=complex)
    # sparse random sources keep the occupied aperture small (chirp-safe)
    for _ in range(12):
        grid[rng.integers(20, 44), rng.integers(20, 44)] = rng.normal() + 1j * rng.normal()
    obj = ScalarField(grid, pitch, 532e-9)
    out = lens_image_2f2f(obj, g)

    k3, d, f = g.k3.magnitude, g.d, g.f
    x, y = obj.coords()
    chirped = grid * np.exp(0.5j * k3 * (f - d) / (d * f)
                            * (x[:, None] ** 2 + y[None, :] ** 2))
    xo, yo = out.coords()
    for ix, iy in [(32, 32), (10, 50), (40, 22), (0, 0)]:
        kernel = np.exp(1j * k3 * (x[:, None] * xo[ix] + y[None, :] * yo[iy]) / d)
        val = (k3 / (2j * np.pi * d)) * np.exp(0.5j * k3 * (xo[ix] ** 2 + yo[iy] ** 2) / d) \
            * np.sum(chirped * kernel) * pitch ** 2
        assert abs(out.grid[ix, iy] - val) <= 1e-10 * np.abs(out.grid).max()


def test_lens_image_output_pitch():
    g = _small_geometry()
    obj = ScalarField(np.zeros((256, 256), dtype=complex), 51.953125e-6, 532e-9)
    obj.grid[128, 128] = 1.0
    out = lens_image_2f2f(obj, g)
    assert out.pitch == pytest.approx(532e-9 * 0.4 / (256 * 51.953125e-6))
    assert out.pitch == pytest.approx(16e-6, rel=1e-3)


def test_lens_image_chirp_sampling_guard():
    # a bright field filling the whole coarse object grid aliases the input chirp
    g = _small_geometry()
    obj = ScalarField(np.ones((256, 256), dtype=complex), 52e-6, 532e-9)
    with pytest.raises(SamplingViolation):
        lens_image_2f2f(obj, g)
