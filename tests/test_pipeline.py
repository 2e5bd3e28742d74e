import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from twmghost import framestack, pipeline
from twmghost.chaotic_source import (ModeSet, SourceSpec, bin_intensities, fourier_bin_index,
                                     sample_amplitudes, sample_modes)
from twmghost.cli import main as cli_main
from twmghost.config import load_config
from twmghost.errors import ImageClipped, InvalidSpec, ModesOffGrid, ShapeMismatch
from twmghost.geometry import geometric_factor, unit_vectors
from twmghost.pipeline import (
    ChaoticExperiment,
    DetectorSpec,
    ObjectMask,
    ShotRecord,
    _energy_kept,
    _idlers,
    _kernel_rows,
    _shift_zero_fill,
    apply_detector,
    coherent_field,
    coherent_image,
    object_pitch_for_detector,
)
from twmghost.propagation import ScalarField
from twmghost.statistics import correlate, reference_pairs


def _idler_angles(theta, beta, g):
    """Angles (theta2, beta2) of each seed mode's idler k3 - k1n, by arctan2
    and arcsin of the wavevector, with the pump k3 on axis."""
    k1 = g.k1.magnitude
    kx = -k1 * np.sin(beta)
    ky = -k1 * np.cos(beta) * np.sin(theta)
    kz = g.k3.magnitude - k1 * np.cos(beta) * np.cos(theta)
    return np.arctan2(ky, kz), np.arcsin(kx / np.sqrt(kx ** 2 + ky ** 2 + kz ** 2))


def _image_offsets(theta2, beta2, g, pitch):
    """Detector pixel offsets s2 (sin b2, cos b2 sin t2) / pitch of idlers
    along (theta2, beta2), rounded."""
    return (np.rint(g.s2 * np.sin(beta2) / pitch).astype(int),
            np.rint(g.s2 * np.cos(beta2) * np.sin(theta2) / pitch).astype(int))


def _per_mode_shot(mask, g, modes, shot, det=None):
    """Independent oracle for ChaoticExperiment.shots: builds the imaging chain
    from scratch and sums one shifted copy per mode, its offset written out
    from the idler angles."""
    det = det or DetectorSpec()
    base = coherent_field(mask, g)
    base_image = np.abs(base.grid) ** 2
    seed = unit_vectors(modes.theta, modes.beta)
    idler, accept = _idlers(seed, g)
    fge = geometric_factor(seed, idler)
    px, py = _image_offsets(*_idler_angles(modes.theta, modes.beta, g), g, base.pitch)
    i2 = np.zeros_like(base_image)
    for n in range(len(modes.theta)):
        i2 += (np.abs(modes.amplitude[n]) ** 2 * accept[n] * fge[n] ** 2
               * _shift_zero_fill(base_image, px[n], py[n]))
    index = fourier_bin_index(modes, g.lens_fourier_f, base.pitch, base_image.shape)
    i1 = bin_intensities(index, np.abs(modes.amplitude) ** 2, base_image.shape)
    return ShotRecord(i1=apply_detector(i1, det), i2=apply_detector(i2, det),
                      shot_index=shot)


def _acceptance(theta, g):
    """Acceptance weight of one in-plane seed mode at angle theta."""
    return float(_idlers(unit_vectors(np.array([theta]), np.array([0.0])), g)[1][0])


# -- masks and detector model -------------------------------------------------

def test_object_mask_validation():
    with pytest.raises(InvalidSpec):
        ObjectMask(np.array([[0.5, 1.5]]), 1e-5)
    with pytest.raises(InvalidSpec):
        ObjectMask(np.array([[-0.1, 0.5]]), 1e-5)


def test_detector_spec_validation():
    with pytest.raises(InvalidSpec):
        DetectorSpec(bit_depth=10)
    with pytest.raises(InvalidSpec):
        DetectorSpec(pixel_binning=0)
    # apply_detector clips only when it quantizes, so the level would be ignored
    with pytest.raises(InvalidSpec, match="saturation_level needs a bit_depth"):
        DetectorSpec(saturation_level=1.0)


@pytest.mark.parametrize("level", [-1.0, np.nan, np.inf])
def test_detector_spec_rejects_saturation_level(level):
    # NaN passes a check written as x < 0
    with pytest.raises(InvalidSpec, match="saturation_level"):
        DetectorSpec(bit_depth=12, saturation_level=level)


def test_object_pitch_for_detector(geometry):
    p = object_pitch_for_detector(geometry, 256, 16e-6)
    # inverse of the single-FFT pitch relation
    assert 532e-9 * 0.4 / (256 * p) == pytest.approx(16e-6)


def test_apply_detector_bypass():
    i = np.random.default_rng(0).random((8, 8))
    out = apply_detector(i, DetectorSpec())
    assert out is i                                   # the ideal detector makes no copy


def test_apply_detector_quantization():
    i = np.linspace(0.0, 2.0, 64).reshape(8, 8)
    det = DetectorSpec(bit_depth=12, saturation_level=1.0)
    out = apply_detector(i, det)
    assert out.max() == pytest.approx(1.0)            # clipped at saturation
    steps = np.unique(np.rint(out / (1.0 / 4095)))
    assert np.allclose(out * 4095, np.rint(out * 4095), atol=1e-9)
    assert steps.size <= 4096


def test_apply_detector_binning():
    i = np.ones((8, 8))
    out = apply_detector(i, DetectorSpec(pixel_binning=2))
    assert out.shape == (4, 4)
    assert np.allclose(out, 4.0)                      # photon-count preserving


def test_coherent_image_reports_binned_pitch(mask, geometry):
    plain = coherent_image(mask, geometry)
    binned = coherent_image(mask, geometry, det=DetectorSpec(pixel_binning=2))
    assert binned.shape == (plain.shape[0] // 2, plain.shape[1] // 2)
    assert binned.pitch == 2 * plain.pitch
    assert binned.grid.sum() == pytest.approx(plain.grid.sum(), rel=1e-12)


# -- acceptance filter --------------------------------------------------------

def test_phase_matching_filter_on_axis_is_unity(geometry):
    assert _acceptance(0.0, geometry) == pytest.approx(1.0, abs=1e-9)


def test_phase_matching_filter_decreases_with_angle(geometry):
    _, ws = _idlers(unit_vectors(np.array([0.0, 5e-3, 10e-3, 15e-3]), np.zeros(4)), geometry)
    assert all(a > b for a, b in zip(ws, ws[1:]))
    assert all(0.0 <= w <= 1.0 for w in ws)


def test_phase_matching_filter_sinc_form(geometry):
    # oracle: recompute sinc^2(dk L / 2) from the wavevector triangle
    t = 6e-3
    k1 = geometry.k1.magnitude
    k2 = geometry.k2.magnitude
    u1 = np.array([0.0, np.sin(t), np.cos(t)])
    dk = np.linalg.norm(np.array([0.0, 0.0, geometry.k3.magnitude]) - k1 * u1) - k2
    arg = 0.5 * dk * geometry.crystal_length
    expected = (np.sin(arg) / arg) ** 2
    got = _acceptance(t, geometry)
    assert got == pytest.approx(expected, rel=1e-10)


# -- coherent chain -----------------------------------------------------------

def test_coherent_image_unit_magnification_inverted(mask, geometry):
    img = coherent_image(mask, geometry)
    # the object holes sit at radius spacing/sqrt(3); the image is inverted
    # with |magnification| 1, so the detector-plane peaks sit at the same
    # physical radius with flipped signs
    obj = mask.transmission
    inten = img.grid
    x_obj = (np.arange(obj.shape[0]) - obj.shape[0] // 2) * mask.pitch
    x_img, y_img = img.coords()
    # centroid comparison: image centroid = - object centroid
    tot = inten.sum()
    cx = (inten.sum(axis=1) @ x_img) / tot
    cy = (inten.sum(axis=0) @ y_img) / tot
    ox_c = (obj.sum(axis=1) @ x_obj) / obj.sum()
    oy_c = (obj.sum(axis=0) @ x_obj) / obj.sum()
    assert cx == pytest.approx(-ox_c, abs=img.pitch)
    assert cy == pytest.approx(-oy_c, abs=img.pitch)


def test_coherent_image_point_inversion(geometry):
    # single off-axis hole images to the mirrored position within 1 px
    width = 256
    det_pitch = 16e-6
    p = object_pitch_for_detector(geometry, width, det_pitch)
    t = np.zeros((width, width))
    t[128 + 10, 128 + 5] = 1.0
    img = coherent_image(ObjectMask(t, p), geometry)
    ix, iy = np.unravel_index(np.argmax(img.grid), img.shape)
    # unit magnification: object offset (10, 5) * p maps to -(10, 5) * p
    assert abs((ix - 128) * det_pitch - (-10 * p)) <= det_pitch
    assert abs((iy - 128) * det_pitch - (-5 * p)) <= det_pitch


# -- chaotic chain ------------------------------------------------------------

def test_single_mode_shot_is_scaled_coherent_image(mask, geometry):
    # N=1 on-axis: i2 equals the coherent image scaled by |a|^2
    m = ModeSet(theta=np.array([0.0]), beta=np.array([0.0]),
                amplitude=np.array([1.7 - 0.4j]))
    rec = _per_mode_shot(mask, geometry, m, 0)
    base = coherent_image(mask, geometry).grid
    assert np.allclose(rec.i2, abs(1.7 - 0.4j) ** 2 * base, rtol=1e-9)


def test_incoherent_additivity(mask, geometry):
    spec = SourceSpec(n_modes=4, angular_spread=5e-3)
    a = sample_modes(spec, 21, 0)
    b = sample_modes(spec, 22, 0)
    ab = ModeSet(theta=np.concatenate([a.theta, b.theta]),
                 beta=np.concatenate([a.beta, b.beta]),
                 amplitude=np.concatenate([a.amplitude, b.amplitude]))
    ia = _per_mode_shot(mask, geometry, a, 0).i2
    ib = _per_mode_shot(mask, geometry, b, 0).i2
    iab = _per_mode_shot(mask, geometry, ab, 0).i2
    assert np.allclose(iab, ia + ib, atol=1e-12 * max(iab.max(), 1e-300))


def test_experiment_matches_one_off_shot(mask, geometry):
    spec = SourceSpec(n_modes=16, angular_spread=5e-3)
    exp = ChaoticExperiment(mask, geometry, spec, 314)
    rec_fast = next(exp.shots(1, start=2))
    rec_slow = _per_mode_shot(mask, geometry, sample_modes(exp.spec, exp.master_seed, 2), 2)
    assert np.allclose(rec_fast.i2, rec_slow.i2, rtol=1e-9)
    assert np.array_equal(rec_fast.i1, rec_slow.i1)


def _grid_config(width, n_modes):
    return load_config(None, {("grid", "width"): width, ("grid", "height"): width,
                              ("source", "n_modes"): n_modes})


# (width, n_modes, FFT path): the copy-stack product is cheaper for few modes
# on a small grid, the FFT convolution for many modes
BOTH_PATHS = [(64, 20, False), (256, 200, True), (256, 2000, True)]


def _assert_matches_per_mode_sum(exp, cfg, mask, shot):
    rec = next(exp.shots(1, start=shot))
    # the experiment's own draw, which a test may have patched
    modes = pipeline.sample_modes(exp.spec, exp.master_seed, shot)
    want = _per_mode_shot(mask, cfg.geometry, modes, shot)
    assert np.abs(rec.i2 - want.i2).max() <= 1e-12 * np.abs(want.i2).max()
    assert rec.i2.min() >= 0.0
    assert np.array_equal(rec.i1, want.i1)


@pytest.mark.parametrize("width, n_modes, fft", BOTH_PATHS)
def test_shot_matches_per_mode_sum_on_both_paths(width, n_modes, fft):
    cfg = _grid_config(width, n_modes)
    mask = cfg.load_object_mask()
    exp = ChaoticExperiment(mask, cfg.geometry, cfg.source, cfg.master_seed)
    assert (exp.flat_stack is None) == fft
    _assert_matches_per_mode_sum(exp, cfg, mask, 3)


@pytest.mark.parametrize("width, n_modes, fft", BOTH_PATHS[:2])
def test_mode_past_grid_edge_adds_nothing(monkeypatch, width, n_modes, fft):
    # mode 0 tilted to 30 mrad: its image lands 375 px off axis, past the
    # edge, with acceptance weight 0.008, enough to show if it wrapped around
    def tilted(spec, master_seed, shot_index):
        m = sample_modes(spec, master_seed, shot_index)
        return dataclasses.replace(m, theta=np.concatenate([[0.03], m.theta[1:]]))

    monkeypatch.setattr(pipeline, "sample_modes", tilted)
    cfg = _grid_config(width, n_modes)
    mask = cfg.load_object_mask()
    with pytest.warns(ImageClipped):
        exp = ChaoticExperiment(mask, cfg.geometry, cfg.source, cfg.master_seed)
    assert exp.energy_kept[0] <= 1e-12
    assert abs(exp.py[0]) >= width and exp.accept[0] > 1e-3
    assert (exp.flat_stack is None) == fft
    if fft:
        assert 0 not in exp.kept and max(exp.pad) < 2 * width
    _assert_matches_per_mode_sum(exp, cfg, mask, 1)


@pytest.mark.parametrize("width, n_modes, spread, clipped", [
    (128, 40, "2e-3", "3 of 40 mode copies keep less than 99% of the image energy on "
                      "the grid, the worst 88.9%"),
    (128, 24, "1e-3", None),    # the small-frames benchmark workload
    (256, 200, "5e-3", None),   # the shipped defaults
])
def test_clipped_image_energy_warns_once(width, n_modes, spread, clipped):
    cfg = load_config(None, {("grid", "width"): width, ("grid", "height"): width,
                             ("source", "n_modes"): n_modes,
                             ("source", "angular_spread"): spread})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                                cfg.master_seed)
    # each mode's kept fraction, against the zero-fill shift itself
    kept = [_shift_zero_fill(exp.base_image, exp.px[n], exp.py[n]).sum()
            for n in range(n_modes)]
    assert np.abs(exp.energy_kept - np.array(kept) / exp.base_image.sum()).max() <= 1e-12
    messages = [str(w.message) for w in caught if w.category is ImageClipped]
    assert messages == ([clipped] if clipped else [])
    assert (exp.energy_kept.min() < 0.99) == bool(clipped)


def test_copies_shifted_off_the_grid_keep_plus_zero():
    # a copy shifted a whole grid side off along one axis keeps nothing,
    # whatever its shift along the other: the summed-area differences leave
    # round-off of either sign there, and the shares are clipped to +0.0
    cfg = load_config(None, {("grid", "width"): 64, ("grid", "height"): 64})
    image = np.abs(coherent_field(cfg.load_object_mask(), cfg.geometry).grid) ** 2
    along = np.arange(-64, 65)
    for side in (64, -64, 13334, -13334):
        for dx, dy in ((along, np.full_like(along, side)), (np.full_like(along, side), along)):
            kept = _energy_kept(image, dx, dy)
            assert np.array_equal(kept, np.zeros_like(kept)) and not np.signbit(kept).any()


@pytest.mark.parametrize("key, value", [("s2", 64), ("n1", 2)])
def test_clipped_warning_never_reads_minus_zero(key, value):
    # every copy of these 64 x 64 runs lands off the grid, one of them 10
    # pixels off axis along x
    cfg = load_config(None, {("grid", "width"): 64, ("grid", "height"): 64,
                             ("source", "n_modes"): 20, ("geometry", key): value})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                                cfg.master_seed)
    assert exp.kept.size == 0 and exp.energy_kept.max() == 0.0
    messages = [str(w.message) for w in caught if w.category is ImageClipped]
    assert len(messages) == 1 and messages[0].endswith("the worst 0.0%")


@pytest.mark.parametrize("overrides", [
    {},
    {("source", "n_modes"): 2000},
    {("grid", "width"): 128, ("grid", "height"): 128, ("source", "n_modes"): 24,
     ("source", "angular_spread"): "1e-3"},
    {("grid", "width"): 64, ("grid", "height"): 64, ("source", "n_modes"): 20,
     ("run", "coherent_sum"): "true"},
    {("grid", "width"): 64, ("grid", "height"): 64, ("source", "n_modes"): 20,
     ("detector", "bit_depth"): 12, ("detector", "pixel_binning"): 2},
], ids=["paper-default", "wideband-modes", "small-frames", "coherent-sum-64", "detector-64"])
def test_valid_runs_raise_nothing_under_the_stage_guards(overrides):
    # set-up runs each stage with numpy raising on overflow, invalid values
    # and division by zero: the benchmark configs and the 64 x 64 coherent
    # sum and binning 12-bit detector of CI's chain set up, and make eight
    # finite shots, with no floating-point error and no numpy warning
    cfg = load_config(None, overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.simplefilter("error", RuntimeWarning)
        exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                                cfg.master_seed, det=cfg.detector,
                                coherent_sum=cfg.coherent_sum)
        records = list(exp.shots(8))
    assert exp.kept.size and exp.i1_lit.size
    assert all(np.isfinite(r.i1).all() and np.isfinite(r.i2).all() and r.i2.any()
               for r in records)


def test_modes_off_the_fourier_grid_warn_once():
    # the 64 x 64 run of the CLI tests: 5 of its 20 modes focus off the i1
    # grid; the bins dropped are the modes that i1_bin marks -1
    cfg = load_config(None, {("grid", "width"): 64, ("grid", "height"): 64,
                             ("source", "n_modes"): 20})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                                cfg.master_seed)
    messages = [str(w.message) for w in caught if w.category is ModesOffGrid]
    assert messages == ["5 of 20 modes focus off the 64 x 64 Fourier grid: i1 misses their "
                        "intensity, i2 still holds their image copies"]
    assert int(np.count_nonzero(exp.i1_bin < 0)) == 5


def test_fft_shot_is_never_negative(monkeypatch, mask, geometry):
    # a base image exactly zero off a square: FFT round-off there has both
    # signs, and no intensity may come out negative
    def square(*args, **kwargs):
        f = coherent_field(*args, **kwargs)
        grid = np.zeros(f.shape, dtype=complex)
        grid[96:160, 96:160] = 1.0
        return ScalarField(grid, f.pitch, f.wavelength)

    monkeypatch.setattr(pipeline, "coherent_field", square)
    exp = ChaoticExperiment(mask, geometry, SourceSpec(n_modes=200, angular_spread=5e-3), 12345)
    assert exp.flat_stack is None
    a2 = np.abs(sample_modes(exp.spec, exp.master_seed, 0).amplitude) ** 2
    want = sum(a2[n] * exp.expected_image(n) for n in range(200))
    i2 = next(exp.shots(1)).i2
    assert i2.min() >= 0.0 and (want == 0).any()
    assert np.abs(i2 - want).max() <= 1e-12 * want.max()


def _full_grid_kernel(exp, shot):
    """The shot's impulse map on the whole padded grid: each kept mode's
    weighted intensity at its offset, wrapped modulo the grid."""
    p = np.abs(sample_amplitudes(exp.spec, exp.master_seed, shot)) ** 2
    nx, ny = exp.pad
    kernel = np.zeros(exp.pad)
    np.add.at(kernel, (exp.px[exp.kept] % nx, exp.py[exp.kept] % ny),
              p[exp.kept] * exp.mode_weight[exp.kept])
    return kernel


def _irfft2_cropped(kernel_hat, exp):
    w, h = exp.base_image.shape
    return np.maximum(np.fft.irfft2(kernel_hat * exp.base_hat, exp.pad)[:w, :h], 0)


@pytest.mark.parametrize("off_grid", [[], [0], slice(None)],
                         ids=["all-kept", "one-mode-left-out", "none-kept"])
def test_fft_shot_is_bit_identical_to_full_grid_formula(monkeypatch, off_grid):
    # the FFT path transforms only the kernel rows that hold impulses and
    # inverts only the rows it keeps; each line it does transform goes
    # through the same 1-D transform as in rfft2 / irfft2, so the bytes match
    def tilted(spec, master_seed, shot_index):
        m = sample_modes(spec, master_seed, shot_index)
        theta = m.theta.copy()
        theta[off_grid] = 0.03   # 375 px off axis, past the grid edge
        return dataclasses.replace(m, theta=theta)

    monkeypatch.setattr(pipeline, "sample_modes", tilted)
    cfg = _grid_config(256, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ImageClipped)
        exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                                cfg.master_seed)
    assert exp.flat_stack is None
    px, py = exp.px[exp.kept], exp.py[exp.kept]
    if off_grid == []:
        # offsets of both signs: the negative ones wrap to the far end of the grid
        assert (px < 0).any() and (px > 0).any() and (py < 0).any() and (py > 0).any()
        assert len(exp.kernel_rows) < exp.pad[0]
    elif off_grid == [0]:
        assert 0 not in exp.kept and len(exp.kept) == 199
    else:
        assert exp.kept.size == 0 and exp.kernel_rows.size == 0
    for rec in exp.shots(3):
        want = _irfft2_cropped(np.fft.rfft2(_full_grid_kernel(exp, rec.shot_index), exp.pad),
                               exp)
        assert np.array_equal(rec.i2, want)
        assert want.any() == (exp.kept.size > 0)


def test_full_grid_comparison_sees_the_axis_order():
    # the same transform with its axes taken in the other order agrees to
    # round-off but not in every bit, so the comparison above would catch it
    cfg = _grid_config(256, 200)
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source, cfg.master_seed)
    kernel = _full_grid_kernel(exp, 0)
    want = _irfft2_cropped(np.fft.rfft2(kernel), exp)
    ny = exp.pad[1]
    swapped = np.fft.fft(np.fft.fft(kernel, axis=0), axis=1)[:, :ny // 2 + 1]
    got = _irfft2_cropped(swapped, exp)
    assert np.abs(got - want).max() <= 1e-12 * want.max()
    assert not np.array_equal(got, want)


@pytest.mark.parametrize("px", [
    np.random.default_rng(1).integers(-400, 400, 2000),   # offsets of both signs
    np.array([-3, 317, 5, -323, 5, 0, 320, -640]),        # rows that collide mod 320
    np.array([-7]),                                      # a single impulse
    np.full(50, 12),                                     # many impulses in one row
    np.array([], dtype=int),                             # no impulse at all
], ids=["random", "collisions", "one-impulse", "one-row", "empty"])
def test_kernel_rows_match_np_unique(px):
    nx, ny = 320, 324
    py = np.random.default_rng(2).integers(-400, 400, len(px))
    rows, index = _kernel_rows(px, py, nx, ny)
    # the reference: the sorted distinct rows and the inverse of np.unique
    want_rows, rank = np.unique(px % nx, return_inverse=True)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(index, rank * ny + py % ny)
    assert rows.dtype.kind == index.dtype.kind == "i"


@pytest.mark.filterwarnings("ignore::twmghost.errors.ImageClipped")
@pytest.mark.filterwarnings("ignore::twmghost.errors.ModesOffGrid")
@pytest.mark.parametrize("n_modes, fft", [(200, True), (20, False)], ids=["fft", "copy-stack"])
def test_setup_and_shots_never_call_np_unique(monkeypatch, n_modes, fft):
    cfg = _grid_config(64, n_modes)
    mask = cfg.load_object_mask()

    def refused(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refused)
    exp = ChaoticExperiment(mask, cfg.geometry, cfg.source, cfg.master_seed)
    assert (exp.flat_stack is None) == fft
    framestack.write_stack(os.devnull, exp.shots(10), 64, 64, 10, 0, "test", i1_lit=exp.i1_lit)


# (n_modes, DetectorSpec keywords, coherent_sum); at 64^2, 5 of the 20
# modes fall off the Fourier grid
LIT_CONFIGS = {
    "ideal": (20, {}, False),
    "ideal-fft": (200, {}, False),
    "bit-depth-12": (20, {"bit_depth": 12}, False),
    "binning-2": (20, {"pixel_binning": 2}, False),
    "binning-3": (200, {"pixel_binning": 3}, False),   # 4 modes land in the dropped edge bins
    "coherent-sum": (20, {}, True),
    "binning-2-bit-depth-12": (20, {"pixel_binning": 2, "bit_depth": 12}, False),
}


@pytest.mark.filterwarnings("ignore::twmghost.errors.ImageClipped")
@pytest.mark.filterwarnings("ignore::twmghost.errors.ModesOffGrid")
@pytest.mark.parametrize("config", LIT_CONFIGS)
def test_i1_is_zero_off_its_lit_pixels_and_the_trailer_is_dense(tmp_path, config):
    n_modes, det, coherent_sum = LIT_CONFIGS[config]
    cfg = _grid_config(64, n_modes)
    det = DetectorSpec(**det)
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source, cfg.master_seed,
                            det=det, coherent_sum=coherent_sum)
    w, h = det.output_shape(64, 64)
    n = 12
    records = list(exp.shots(n))
    lit = exp.i1_lit
    lit_somewhere = np.zeros(w * h, dtype=bool)
    for rec in records:
        lit_somewhere |= rec.i1.ravel() != 0
    # the pixels some shot lights are the lit set: none outside it, and none
    # of it dark in every shot
    assert np.array_equal(np.flatnonzero(lit_somewhere), lit)
    assert 0 < len(lit) < w * h
    # the trailer summed at the lit pixels equals a dense pass over the
    # frames read back
    path = tmp_path / "lit.twmg"
    framestack.write_stack(path, records, w, h, n, 0, "test", i1_lit=lit)
    moments = framestack.Moments.of(framestack.iter_frames(path, "i1"))
    raw = path.read_bytes()
    assert raw[-16 * w * h:] == moments.s1.tobytes() + moments.s2.tobytes()
    # written without i1_lit, the records take the dense sum: the same stack
    # for the same frames, and a frame lit off the set still counts everywhere
    framestack.write_stack(tmp_path / "plain.twmg", records, w, h, n, 0, "test")
    assert (tmp_path / "plain.twmg").read_bytes() == raw
    plain = [ShotRecord(rec.i1 + 1.0, rec.i2, rec.shot_index) for rec in records]
    framestack.write_stack(tmp_path / "dense.twmg", plain, w, h, n, 0, "test")
    dense = framestack.Moments.of(rec.i1 for rec in plain)
    assert (tmp_path / "dense.twmg").read_bytes()[-16 * w * h:] == (dense.s1.tobytes()
                                                                     + dense.s2.tobytes())


def _count_spans(monkeypatch):
    """A list that gets one entry for each i1 frame written as a lit span."""
    spans = []
    write_span = framestack._write_span

    def counted(fh, frame, lit):
        spans.append(len(lit))
        write_span(fh, frame, lit)

    monkeypatch.setattr(framestack, "_write_span", counted)
    return spans


@pytest.mark.filterwarnings("ignore::twmghost.errors.ImageClipped")
@pytest.mark.filterwarnings("ignore::twmghost.errors.ModesOffGrid")
@pytest.mark.parametrize("n_modes, det, coherent_sum", [
    (20, {}, False), (200, {}, False), (20, {}, True),
    (20, {"pixel_binning": 2, "bit_depth": 12}, False),
], ids=["copy-stack", "fft", "coherent-sum", "binning-2-bit-depth-12"])
def test_span_written_stack_equals_its_dense_rewrite(tmp_path, monkeypatch, n_modes, det,
                                                      coherent_sum):
    # every shot's i1 is written as its lit span; the same records written
    # without i1_lit, and the records read back written again, have each i1
    # written whole as the span of every pixel: the same stack
    cfg = _grid_config(64, n_modes)
    det = DetectorSpec(**det)
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source, cfg.master_seed,
                            det=det, coherent_sum=coherent_sum)
    w, h = det.output_shape(64, 64)
    n = 10
    spans = _count_spans(monkeypatch)
    path = tmp_path / "span.twmg"
    framestack.write_stack(path, exp.shots(n), w, h, n, 0, "test", i1_lit=exp.i1_lit)
    assert spans == [len(exp.i1_lit)] * n
    framestack.write_stack(tmp_path / "plain.twmg", exp.shots(n), w, h, n, 0, "test")
    framestack.write_stack(tmp_path / "dense.twmg", framestack.iter_shots(path), w, h, n, 0,
                           "test")
    # each write without i1_lit wrote one whole-frame span per shot
    assert spans == [len(exp.i1_lit)] * n + [w * h] * 2 * n
    assert path.read_bytes() == (tmp_path / "plain.twmg").read_bytes()
    assert path.read_bytes() == (tmp_path / "dense.twmg").read_bytes()


def _makes_holes(directory) -> bool:
    """Whether a file on `directory` written past a 1 MiB gap uses fewer
    blocks than its size: whether its file system keeps unwritten ranges
    as holes."""
    probe = directory / "probe"
    with open(probe, "wb") as fh:
        fh.seek(1 << 20)
        fh.write(b"x")
    st = os.stat(probe)
    probe.unlink()
    return st.st_blocks * 512 < st.st_size


@pytest.mark.filterwarnings("ignore::twmghost.errors.ImageClipped")
def test_small_frames_stack_leaves_the_unlit_i1_bytes_unwritten(tmp_path):
    # 128^2, 24 modes in a narrow cone: the lit span covers a few of i1's
    # 32 pages, and the rest of each i1 frame is a hole in the file
    if not _makes_holes(tmp_path):
        pytest.skip("the file system under tmp_path allocates unwritten ranges: no holes")
    cfg = load_config(None, {("grid", "width"): 128, ("grid", "height"): 128,
                             ("source", "n_modes"): 24, ("source", "angular_spread"): 1e-3})
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source, cfg.master_seed)
    n = 40
    path = tmp_path / "span.twmg"
    framestack.write_stack(path, exp.shots(n), 128, 128, n, 0, "test", i1_lit=exp.i1_lit)
    st = os.stat(path)
    assert st.st_blocks * 512 < st.st_size
    framestack.write_stack(tmp_path / "dense.twmg", framestack.iter_shots(path), 128, 128, n,
                           0, "test")
    assert path.read_bytes() == (tmp_path / "dense.twmg").read_bytes()


def test_writer_sums_lit_i1_without_a_square_scratch():
    # given the FFT experiment's i1_lit, the writer sums i1 in lit-length
    # vectors and holds one frame, the trailer's, at the end
    w = 256
    cfg = _grid_config(w, 200)
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source, cfg.master_seed)
    assert exp.flat_stack is None
    records = list(exp.shots(4))
    framestack.write_stack(os.devnull, records, w, w, 4, 0, "test", i1_lit=exp.i1_lit)  # warm-up
    tracemalloc.start()
    try:
        framestack.write_stack(os.devnull, records, w, w, 4, 0, "test", i1_lit=exp.i1_lit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * w * w) <= 1.25


@pytest.mark.parametrize("coherent_sum", [False, True])
def test_every_record_of_a_block_matches_per_mode_sum(coherent_sum):
    # the copy-stack paths make 8 shots in one product: check all 8 of
    # block 1 against the mode-by-mode oracle (its incoherent sum only)
    cfg = _grid_config(64, 20)
    mask = cfg.load_object_mask()
    spec = cfg.source if not coherent_sum else dataclasses.replace(cfg.source, n_modes=1)
    exp = ChaoticExperiment(mask, cfg.geometry, spec, cfg.master_seed,
                            coherent_sum=coherent_sum)
    assert exp.flat_stack is not None and exp.block == 8
    records = list(exp.shots(8, start=8))
    assert [r.shot_index for r in records] == list(range(8, 16))
    for rec in records:
        want = _per_mode_shot(mask, cfg.geometry,
                              sample_modes(exp.spec, exp.master_seed, rec.shot_index),
                              rec.shot_index)
        assert np.abs(rec.i2 - want.i2).max() <= 1e-12 * np.abs(want.i2).max()
        assert np.array_equal(rec.i1, want.i1)


@pytest.mark.filterwarnings("ignore::twmghost.errors.ImageClipped",
                            "ignore::twmghost.errors.ModesOffGrid")
@pytest.mark.parametrize("width, n_modes, spread, fft", [
    (128, 24, "1e-3", False), (64, 20, None, False), (64, 200, None, True)],
    ids=["small-frames", "copy-stack-64", "fft-64"])
def test_map_is_the_mode_space_sum(width, n_modes, spread, fft):
    # ideal detector, incoherent sum: shot k's i2 is sum_n p_kn expected_image(n)
    # with p_kn = |a_kn|^2, so over a one-mode reference bin the map is
    # sum_n c_n expected_image(n), c_n the 1/n covariance of the reference
    # trace with p_n.  It holds only if every i2 comes from its own shot's
    # draw: 300 shots cross the seed chunk boundary at shot 256
    overrides = {("grid", "width"): width, ("grid", "height"): width,
                 ("source", "n_modes"): n_modes}
    if spread:
        overrides[("source", "angular_spread")] = spread
    cfg = load_config(None, overrides)
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source, cfg.master_seed)
    assert (exp.flat_stack is None) == fft
    lit = exp.i1_bin[exp.i1_bin >= 0]
    single = lit[np.bincount(lit)[lit] == 1]
    ref = divmod(int(single[0]), width)
    assert len(exp.bin_modes(ref)) == 1
    n = 300
    g = correlate(reference_pairs(exp.shots(n), ref))
    trace = np.array([rec.i1[ref] for rec in exp.shots(n)])
    p = np.abs([sample_amplitudes(exp.spec, exp.master_seed, k) for k in range(n)]) ** 2
    c = ((trace - trace.mean())[:, None] * (p - p.mean(axis=0))).mean(axis=0)
    want = sum(c[m] * exp.expected_image(m) for m in range(n_modes))
    assert np.abs(g - want).max() <= 1e-12 * np.abs(g).max()


@pytest.mark.filterwarnings("ignore::twmghost.errors.ImageClipped",
                            "ignore::twmghost.errors.ModesOffGrid")
def test_a_negative_shot_index_is_refused():
    cfg = _grid_config(64, 20)
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source, cfg.master_seed)
    with pytest.raises(InvalidSpec, match="non-negative"):
        list(exp.shots(2, start=-1))


@pytest.mark.filterwarnings("ignore::twmghost.errors.ImageClipped")
def test_shots_make_only_the_blocks_they_yield(monkeypatch):
    # no shot asked for makes no block; shots 7 and 8 straddle blocks 0 and 1
    cfg = _grid_config(64, 20)
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source, cfg.master_seed)
    assert exp.flat_stack is not None and exp.block == 8
    made = []
    block = exp._block

    def counted(b):
        made.append(b)
        return block(b)

    monkeypatch.setattr(exp, "_block", counted)
    for n_shots in (0, -3):
        assert list(exp.shots(n_shots, start=5)) == []
    assert made == []
    assert [rec.shot_index for rec in exp.shots(2, start=7)] == [7, 8]
    assert made == [0, 1]


@pytest.mark.filterwarnings("ignore::twmghost.errors.ImageClipped")
@pytest.mark.parametrize("n_modes, coherent_sum, fft",[(200, False, True), (20, False, False),
                                                     (20, True, False)],
                         ids=["fft", "copy-stack", "coherent-sum"])
def test_detector_applies_once_to_each_record(n_modes, coherent_sum, fft):
    # 10 shots: on the copy stack a whole block of 8 and part of the next
    cfg = _grid_config(64, n_modes)
    mask = cfg.load_object_mask()
    det = DetectorSpec(pixel_binning=2, bit_depth=12)
    ideal, detected = (ChaoticExperiment(mask, cfg.geometry, cfg.source, cfg.master_seed,
                                         det=d, coherent_sum=coherent_sum)
                       for d in (None, det))
    assert (detected.flat_stack is None) == fft
    for plain, rec in zip(ideal.shots(10), detected.shots(10)):
        assert rec.i1.shape == rec.i2.shape == (32, 32)
        assert np.array_equal(rec.i1, apply_detector(plain.i1, det))
        assert np.array_equal(rec.i2, apply_detector(plain.i2, det))
    # the mode-by-mode oracle's i1 through the same detector
    want = _per_mode_shot(mask, cfg.geometry, sample_modes(cfg.source, cfg.master_seed, 9), 9, det)
    assert np.array_equal(rec.i1, want.i1)


def test_one_shot_run_repeats_shot_zero_on_fft_path(tmp_path):
    ini = tmp_path / "fft.ini"
    ini.write_text("[grid]\nwidth = 64\nheight = 64\n\n[source]\nn_modes = 200\n")
    cfg = load_config(str(ini))
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source, cfg.master_seed)
    assert exp.flat_stack is None
    first = []
    for shots in ("1", "12"):
        out = tmp_path / shots
        assert cli_main(["simulate-chaotic", "--config", str(ini), "--shots", shots,
                         "--out", str(out)]) == 0
        rec = next(framestack.iter_shots(out / "frames.twmg"))
        first.append(rec.i1.tobytes() + rec.i2.tobytes())
    assert first[0] == first[1]


@pytest.mark.parametrize("overrides, n_shots, setup_budget, loop_budget", [
    # 2000 modes at 256^2, FFT shots: set-up holds one band of padded lines
    ({("source", "n_modes"): 2000}, 8, 8.0, 3.5),
    # 24 modes at 128^2, copy-stack shots in blocks of 8
    ({("grid", "width"): 128, ("grid", "height"): 128, ("source", "n_modes"): 24,
      ("source", "angular_spread"): 1e-3}, 32, None, 10.0),
], ids=["wideband-modes", "small-frames"])
def test_simulate_holds_few_frames(overrides, n_shots, setup_budget, loop_budget):
    # traced peaks in frames of 8 W H bytes: set-up's, and the shot loop's
    # above the memory set-up leaves live, which holds one block of shots
    # (the previous block is freed before the next is made) and the
    # writer's lit-length moment vectors, given the run's i1_lit
    cfg = load_config(None, {("run", "master_seed"): 12345, **overrides})
    mask = cfg.load_object_mask()
    w = cfg.width

    def setup():
        return ChaoticExperiment(mask, cfg.geometry, cfg.source, cfg.master_seed)

    setup()    # warm-up: imports and first-call caches
    tracemalloc.start()
    try:
        exp = setup()
        live, setup_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        framestack.write_stack(os.devnull, exp.shots(n_shots), w, w, n_shots, 0, "test",
                               i1_lit=exp.i1_lit)
        loop_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    frame = 8 * w * w
    if setup_budget is not None:
        assert setup_peak / frame <= setup_budget
    assert (loop_peak - live) / frame <= loop_budget


def test_mode_offsets_match_image_offset(mask, geometry):
    # the image offset s2 (sin b2, cos b2 sin t2) of each idler, from angles
    spec = SourceSpec(n_modes=32, angular_spread=5e-3)
    exp = ChaoticExperiment(mask, geometry, spec, 99)
    m = sample_modes(spec, 99, 0)
    px, py = _image_offsets(*_idler_angles(m.theta, m.beta, geometry), geometry, exp.pitch)
    assert np.array_equal(exp.px, px)
    assert np.array_equal(exp.py, py)
    assert np.abs(px).max() > 0 and np.abs(py).max() > 0


def test_conjugate_offsets_oppose_seed_tilt(mask, geometry):
    # degenerate collinear phase matching: the idler direction mirrors the
    # seed tilt, so image offsets are anti-correlated with the mode angles
    spec = SourceSpec(n_modes=64, angular_spread=5e-3)
    exp = ChaoticExperiment(mask, geometry, spec, 5)
    m = sample_modes(spec, 5, 0)
    theta2, beta2 = _idler_angles(m.theta, m.beta, geometry)
    assert np.all(theta2 * m.theta <= 1e-18)
    assert np.corrcoef(m.theta, theta2)[0, 1] < -0.99
    assert np.corrcoef(m.beta, beta2)[0, 1] < -0.99
    # and so are the offsets of the experiment's own idler vectors
    assert np.corrcoef(m.beta, exp.px)[0, 1] < -0.99
    assert np.corrcoef(np.cos(m.beta) * np.sin(m.theta), exp.py)[0, 1] < -0.99


def test_expected_image_is_shifted_base(mask, geometry):
    spec = SourceSpec(n_modes=8, angular_spread=5e-3)
    exp = ChaoticExperiment(mask, geometry, spec, 7)
    img = exp.expected_image(3)
    assert img.shape == exp.base_image.shape
    assert img.max() == pytest.approx(exp.mode_weight[3] * exp.base_image.max())


def test_reference_mode_roundtrip(mask, geometry):
    spec = SourceSpec(n_modes=16, angular_spread=5e-3)
    exp = ChaoticExperiment(mask, geometry, spec, 8)
    index = fourier_bin_index(sample_modes(spec, 8, 0), geometry.lens_fourier_f, exp.pitch,
                              exp.base_image.shape)
    n = 6
    assert exp.bin_modes(divmod(int(index[n]), 256)).tolist() == [n]


def test_bin_modes_on_default_config(mask, geometry, cfg):
    # every mode that feeds an i1 pixel, not the nearest one: the auto
    # reference bin of the default run holds two modes, and the unlit corner none
    exp = ChaoticExperiment(mask, geometry, cfg.source, cfg.master_seed)
    assert exp.bin_modes((99, 132)).tolist() == [97, 112]
    assert exp.bin_modes((0, 0)).size == 0
    with pytest.raises(ShapeMismatch):
        exp.bin_modes((256, 0))
    on = np.flatnonzero(exp.i1_bin >= 0)
    assert on.size > 0
    for n in on:
        assert n in exp.bin_modes(divmod(int(exp.i1_bin[n]), cfg.height))


def test_i1_carries_mode_intensities(mask, geometry):
    spec = SourceSpec(n_modes=40, angular_spread=5e-3)
    exp = ChaoticExperiment(mask, geometry, spec, 23)
    rec = next(exp.shots(1))
    m = sample_modes(spec, 23, 0)
    assert rec.i1.sum() == pytest.approx(np.sum(np.abs(m.amplitude) ** 2))


def test_ensemble_mean_is_weighted_blur(mask, geometry):
    # <i2> over shots converges to sum_n <|a_n|^2> * shifted copies,
    # computed here by direct summation as an independent oracle
    spec = SourceSpec(n_modes=24, angular_spread=5e-3)
    exp = ChaoticExperiment(mask, geometry, spec, 51)
    n_shots = 400
    mean = np.zeros_like(exp.base_image)
    for rec in exp.shots(n_shots):
        mean += rec.i2
    mean /= n_shots
    expected = np.sum([exp.expected_image(n) for n in range(spec.n_modes)], axis=0)
    # relative agreement at the 1/sqrt(n_shots) statistical level
    num = np.linalg.norm(mean - expected)
    assert num / np.linalg.norm(expected) < 3.0 / np.sqrt(n_shots)


def test_coherent_sum_mode_single_mode_agrees(mask, geometry):
    # with one mode there are no cross terms: both modes agree exactly
    spec = SourceSpec(n_modes=1, angular_spread=5e-3)
    inc = ChaoticExperiment(mask, geometry, spec, 88, coherent_sum=False)
    coh = ChaoticExperiment(mask, geometry, spec, 88, coherent_sum=True)
    assert np.allclose(next(inc.shots(1)).i2, next(coh.shots(1)).i2, rtol=1e-9)


def _coherent_sum_oracle(mask, g, modes, weight, sign=-1):
    """|sum_n conj(a_n) sqrt(w_n) exp(sign i k2 (x sin b2 + y cos b2 sin t2))
    shift(base, p_n)|^2, the coherent-sum i2 of one shot written out from
    the idler angles."""
    base = coherent_field(mask, g)
    x, y = base.coords()
    theta2, beta2 = _idler_angles(modes.theta, modes.beta, g)
    px, py = _image_offsets(theta2, beta2, g, base.pitch)
    field = np.zeros(base.shape, dtype=complex)
    for n in range(len(modes.theta)):
        phase = (x[:, None] * np.sin(beta2[n])
                 + y[None, :] * np.cos(beta2[n]) * np.sin(theta2[n]))
        field += (np.conj(modes.amplitude[n]) * np.sqrt(weight[n])
                  * np.exp(sign * 1j * g.k2.magnitude * phase)
                  * _shift_zero_fill(base.grid, px[n], py[n]))
    return np.abs(field) ** 2


def test_coherent_sum_shot_matches_written_out_sum(mask, geometry):
    # three modes whose copies overlap: the cross terms carry the relative
    # phase ramps of the idlers, which one mode (|ramp|^2 = 1) or the
    # ensemble mean (the cross terms average out) cannot see
    spec = SourceSpec(n_modes=3, angular_spread=5e-4)
    exp = ChaoticExperiment(mask, geometry, spec, 41, coherent_sum=True)
    m = sample_modes(spec, 41, 0)
    expected = _coherent_sum_oracle(mask, geometry, m, exp.mode_weight)
    got = next(exp.shots(1)).i2
    assert np.max(np.abs(got - expected)) < 1e-12 * expected.max()
    # the check can tell the ramps' sign
    flipped = _coherent_sum_oracle(mask, geometry, m, exp.mode_weight, sign=1)
    assert np.max(np.abs(flipped - expected)) > 1e-2 * expected.max()


def test_coherent_sum_ensemble_mean_matches_incoherent(mask, geometry):
    # cross terms average to zero over shots (random phases)
    spec = SourceSpec(n_modes=6, angular_spread=5e-3)
    inc = ChaoticExperiment(mask, geometry, spec, 31, coherent_sum=False)
    coh = ChaoticExperiment(mask, geometry, spec, 31, coherent_sum=True)
    n = 300
    mi = sum(rec.i2 for rec in inc.shots(n)) / n
    mc = sum(rec.i2 for rec in coh.shots(n)) / n
    assert np.linalg.norm(mc - mi) / np.linalg.norm(mi) < 5.0 / np.sqrt(n)
