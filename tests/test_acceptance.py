"""End-to-end acceptance criteria.

Each test prints one [PASS]/[FAIL] line on the real stdout (bypassing
pytest capture) and then asserts, so a plain `pytest -v` run shows the
verdict of every criterion even when later ones fail.
"""

import itertools
import sys
import time

import numpy as np
import pytest

from twmghost import framestack, masks
from twmghost.chaotic_source import (RNG_ALGORITHM, SourceSpec, bin_intensities,
                                     fourier_bin_index, sample_amplitudes, sample_modes)
from twmghost.cli import main as cli_main
from twmghost.config import load_config
from twmghost.pipeline import ChaoticExperiment, coherent_image
from twmghost.statistics import (
    CovarianceAccumulator,
    auto_reference_pixel,
    correlate,
    jackknife_error,
    reference_pairs,
    snr,
    thermal_test,
)
from twmghost.twm_core import (
    CoupledAmplitudes,
    GainParams,
    evolve_matched,
    evolve_mismatched,
    ode_oracle,
)

from setup_cases import SHOT_CFGS


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def experiment(mask, geometry, cfg):
    return ChaoticExperiment(mask, geometry, cfg.source, cfg.master_seed)


@pytest.fixture(scope="module")
def reference(experiment, cfg):
    """Auto reference pixel from the first shots, and the image it tracks.

    A Fourier bin can hold more than one mode (the covariance map then
    recovers a superposition of differently shifted copies); the reference
    is therefore the brightest bin fed by a single mode, i.e. a clean
    speckle of the reference arm.
    """
    probe = list(experiment.shots(50))
    mean_i1 = np.mean([s.i1 for s in probe], axis=0)
    index = fourier_bin_index(sample_modes(experiment.spec, experiment.master_seed, 0),
                              experiment.g.lens_fourier_f, experiment.pitch,
                              (cfg.width, cfg.height))
    counts = np.bincount(index[index >= 0], minlength=cfg.width * cfg.height)
    # the automatic pick, from the frames alone, is a single-mode bin too
    auto = auto_reference_pixel(framestack.Moments.of(s.i1 for s in probe))
    fed = experiment.bin_modes(auto).size
    assert fed == 1, f"auto reference {auto} is fed by {fed} modes"
    unique = [n for n, b in enumerate(index) if b >= 0 and counts[b] == 1]
    mode = max(unique, key=lambda n: mean_i1.flat[index[n]])
    ref = divmod(int(index[mode]), cfg.height)
    expected = experiment.expected_image(mode)
    return ref, mode, expected


def test_criterion_1_closed_form_vs_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    n = 1000
    r = rng.uniform(0.1, 1.0, n)
    g = rng.uniform(0.0, 1.0, n) / r          # g |a3| r in [0, 1]
    dk = rng.uniform(0.0, 20.0, n) / r        # dk r in [0, 20]
    a3 = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    p = GainParams(g=g, a3=a3, dk=dk,
                   proj1=rng.uniform(0.7, 1.0, n), proj2=rng.uniform(0.7, 1.0, n), r=r)
    c0 = CoupledAmplitudes(rng.normal(size=n) + 1j * rng.normal(size=n),
                           rng.normal(size=n) + 1j * rng.normal(size=n))
    closed = evolve_mismatched(c0, p)
    num = ode_oracle(c0, p)
    scale = np.maximum(np.maximum(np.abs(closed.a1), np.abs(closed.a2)), 1.0)
    err = np.maximum(np.abs(closed.a1 - num.a1), np.abs(closed.a2 - num.a2)) / scale

    # phase-matched branch with geometric factor, against the same oracle
    fgeo = rng.uniform(1.0, 1.3, n)
    pm = GainParams(g=g, a3=a3, dk=0.0, r=r)
    closed_m = evolve_matched(c0, pm, fgeo=fgeo)
    num_m = ode_oracle(c0, GainParams(g=g, a3=a3, dk=0.0, r=fgeo * r))
    scale_m = np.maximum(np.maximum(np.abs(closed_m.a1), np.abs(closed_m.a2)), 1.0)
    err_m = np.maximum(np.abs(closed_m.a1 - num_m.a1),
                       np.abs(closed_m.a2 - num_m.a2)) / scale_m
    dt = time.monotonic() - t0
    worst = max(err.max(), err_m.max())
    _report(1, "closed forms vs ODE oracle over 1000 draws, rel err <= 1e-8, < 10 s",
            bool(worst <= 1e-8 and dt < 10.0), f"max rel err {worst:.2e}, {dt:.1f} s")


def test_criterion_2_manley_rowe():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        c0 = CoupledAmplitudes(rng.normal() + 1j * rng.normal(),
                               rng.normal() + 1j * rng.normal())
        p = GainParams(g=rng.uniform(0, 2), a3=np.exp(1j * rng.uniform(0, 2 * np.pi)),
                       r=rng.uniform(0, 1))
        out = evolve_matched(c0, p, fgeo=rng.uniform(1.0, 1.2))
        before = abs(c0.a1) ** 2 - abs(c0.a2) ** 2
        after = abs(out.a1) ** 2 - abs(out.a2) ** 2
        worst = max(worst, abs(after - before) / max(abs(before), 1.0))
    _report(2, "Manley-Rowe |a1|^2 - |a2|^2 conserved to 1e-10 over 100 inputs",
            bool(worst <= 1e-10), f"max rel drift {worst:.2e}")


def _hole_centroids(arr: np.ndarray, pitch: float, threshold: float):
    ndimage = pytest.importorskip("scipy.ndimage")
    lab, n = ndimage.label(arr > threshold)
    sizes = ndimage.sum_labels(np.ones_like(lab), lab, range(1, n + 1))
    order = np.argsort(sizes)[::-1][:3]
    cent = np.array(ndimage.center_of_mass(arr, lab, [int(i) + 1 for i in order]))
    w = arr.shape[0]
    return (cent - w // 2) * pitch, n


def test_criterion_3_unit_magnification(mask, geometry):
    t0 = time.monotonic()
    img = coherent_image(mask, geometry)
    obj_c, _ = _hole_centroids(mask.transmission, mask.pitch, 0.5)
    img_c, n_img = _hole_centroids(img.grid, img.pitch, 0.5 * img.grid.max())
    ok = n_img >= 3
    detail = []
    if ok:
        # inverted, unit magnification: each image hole at minus an object hole
        for oc in obj_c:
            d = np.linalg.norm(img_c - (-oc), axis=1).min()
            detail.append(f"{d * 1e6:.1f} um")
            ok = ok and d <= 16e-6
        # pairwise spacing preserved within one detector pixel
        for i in range(3):
            for j in range(i + 1, 3):
                so = np.linalg.norm(obj_c[i] - obj_c[j])
                match = np.abs([np.linalg.norm(img_c[a] - img_c[b])
                                for a in range(3) for b in range(a + 1, 3)]) - so
                ok = ok and np.abs(match).min() <= 16e-6
    dt = time.monotonic() - t0
    ok = ok and dt < 30.0
    _report(3, "coherent three-hole image has unit magnification, inverted, < 30 s",
            bool(ok), f"hole position residuals {', '.join(detail)}; {dt:.1f} s")


def test_criterion_4_thermal_statistics(cfg, geometry):
    spec = cfg.source
    shape = (cfg.width, cfg.height)
    n_ok = 0
    runs = 20
    for k in range(runs):
        seed = 9000 + k
        m0 = sample_modes(spec, seed, 0)
        index = fourier_bin_index(m0, geometry.lens_fourier_f, cfg.pitch, shape)
        # spatial: occupied Fourier-plane bins of one shot
        i1 = bin_intensities(index, np.abs(m0.amplitude) ** 2, shape)
        spatial = thermal_test(i1[i1 > 0])
        # temporal: one fixed single-mode bin followed over 2000 shots
        counts = np.bincount(index[index >= 0], minlength=shape[0] * shape[1])
        unique = next(n for n, b in enumerate(index) if b >= 0 and counts[b] == 1)
        sel = index == index[unique]
        trace = np.empty(2000)
        for s in range(2000):
            trace[s] = np.sum(np.abs(sample_amplitudes(spec, seed, s)[sel]) ** 2)
        temporal = thermal_test(trace)
        if spatial.p_value > 0.01 and temporal.p_value > 0.01:
            n_ok += 1
    _report(4, "spatial and temporal I1 histograms thermal (KS, 1% level) "
               "in >= 95% of 20 seeded runs",
            bool(n_ok >= 19), f"{n_ok}/20 runs passed")


def _inverted_detector_mask(cfg) -> np.ndarray:
    """The object mask rendered on the detector grid at unit magnification,
    inverted the way the optics invert it: x -> -x on the centred grid, i.e.
    about index w//2 (a bare [::-1] would mirror about (w - 1)/2)."""
    det_mask = masks.three_holes(width=cfg.width, pitch=cfg.pitch,
                                 hole_diameter=cfg.hole_diameter,
                                 spacing=cfg.hole_spacing)
    return np.roll(det_mask.transmission[::-1, ::-1], 1, axis=(0, 1))


def _null_sigma(a: np.ndarray, b: np.ndarray) -> float:
    """Standard deviation of the Pearson correlation of two independent,
    spatially autocorrelated fields on the same grid.

    var(rho) = sum_tau r_a(tau) r_b(tau) / N (Bartlett 1935; Clifford,
    Richardson & Hemon, Biometrics 45, 123, 1989), with r the biased sample
    autocorrelation, computed by FFT zero-padded to 2W x 2H so that lags do
    not wrap.  For white fields only r(0) = 1 survives and this is
    1/sqrt(N); 1/sigma^2 is the effective number of independent samples.
    """
    shape = tuple(2 * n for n in a.shape)

    def acf(x):
        x = x - x.mean()
        return np.fft.irfft2(np.abs(np.fft.rfft2(x, shape)) ** 2, shape) / np.sum(x * x)

    return float(np.sqrt(np.sum(acf(a) * acf(b)) / a.size))


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.corrcoef(a.ravel(), b.ravel())[0, 1])


def test_null_sigma_white_and_smoothed_noise(cfg, rng):
    ndimage = pytest.importorskip("scipy.ndimage")
    n = cfg.width * cfg.height
    white = _null_sigma(rng.normal(size=(cfg.width, cfg.height)),
                        rng.normal(size=(cfg.width, cfg.height)))
    assert abs(white * np.sqrt(n) - 1.0) <= 0.05
    # smoothed noise independent of the comparator: the Monte-Carlo spread
    # of rho over the draws matches the predicted null spread
    comp = _inverted_detector_mask(cfg)
    for width in (2.0, 6.0, 15.0):
        fields = [ndimage.gaussian_filter(rng.normal(size=comp.shape), width, mode="wrap")
                  for _ in range(250)]
        spread = np.std([_pearson(f, comp) for f in fields])
        predicted = np.mean([_null_sigma(f, comp) for f in fields[:10]])
        assert abs(spread / predicted - 1.0) <= 0.20, (width, spread, predicted)


def test_criterion_5_single_shot_carries_no_image(experiment, mask, geometry, cfg):
    # Single-shot I2 and the comparator are both spatially autocorrelated
    # (mm-scale blur, 16 px holes), so the null spread of rho is set by the
    # effective sample size, not by 1/sqrt(n_pixels), which is its
    # white-noise limit.
    comp = _inverted_detector_mask(cfg)
    n_shots = 100
    ratios, n_eff = [], []
    for rec in experiment.shots(n_shots):
        i2 = rec.i2
        sigma = _null_sigma(i2, comp)
        ratios.append(abs(_pearson(i2, comp)) / sigma)
        n_eff.append(sigma ** -2)
    frac = float(np.mean(np.array(ratios) < 3.0))
    # positive control: an image that does carry the object fails the bound
    coh = coherent_image(mask, geometry).grid
    coh_ratio = abs(_pearson(coh, comp)) / _null_sigma(coh, comp)
    _report(5, "single-shot I2 cross-correlation with the object mask "
               "|rho| < 3*sigma_null (Bartlett/Clifford effective-N) in >= 90% of shots",
            bool(frac >= 0.90 and coh_ratio > 3.0),
            f"frac {frac:.2f}, median N_eff {np.median(n_eff):.0f}, "
            f"max |rho|/sigma_null {max(ratios):.2f}, coherent control {coh_ratio:.1f}")


def test_criterion_6_correlation_recovery(experiment, reference):
    t0 = time.monotonic()
    ref, mode, expected = reference
    g = correlate(reference_pairs(experiment.shots(1000), ref))
    rho = float(np.corrcoef(g.ravel(), expected.ravel())[0, 1])
    desc = ("1000-shot G map: Pearson > 0.8 with the expected image and the "
            "three holes are the three largest components, < 5 min")
    # the Pearson part needs no scipy: it fails here, before the centroids'
    # scipy import can skip the test
    if not rho > 0.8:
        _report(6, desc, False, f"Pearson {rho:.3f}")
    g_cent, n_comp = _hole_centroids(g, 16e-6, 0.5 * g.max())
    e_cent, _ = _hole_centroids(expected, 16e-6, 0.5 * expected.max())
    holes_ok = n_comp >= 3 and all(
        np.linalg.norm(g_cent - ec, axis=1).min() <= 5 * 16e-6 for ec in e_cent)
    dt = time.monotonic() - t0
    _report(6, desc, bool(holes_ok and dt < 300.0),
            f"Pearson {rho:.3f}, components {n_comp}, {dt:.0f} s")


def test_criterion_7_snr_scaling(experiment, reference):
    ref, mode, expected = reference
    # the support must cover the full image footprint (including the
    # diffraction-broadened hole edges): signal pixels left "outside" put a
    # floor under the noise estimate and flatten the scaling
    support = expected > 1e-3 * expected.max()
    ns, values, acc = [125, 250, 500, 1000], [], CovarianceAccumulator()
    for x, i2 in reference_pairs(experiment.shots(1000), ref):
        acc.add(x, i2)
        if acc.n in ns:
            values.append(snr(acc.result(), support))
    slope = np.polyfit(np.log(ns), np.log(values), 1)[0]
    _report(7, "SNR grows as sqrt(n): fitted exponent 0.5 +/- 0.1 over "
               "{125, 250, 500, 1000} shots",
            bool(abs(slope - 0.5) <= 0.1),
            "exponent %.3f, SNR %s" % (slope, [f"{v:.1f}" for v in values]))


def test_criterion_8_thread_determinism(tmp_path):
    # what leaves the shot loop free to be split among workers: a stack and
    # its G map are byte-identical however the shots are asked for.  The CLI
    # run against a stack written from shots(3), shots(7, 3) and
    # shots(2, 10), which cut the copy stack's blocks of 8 in the middle, on
    # each shot path and the binning 12-bit detector
    chunks = ((0, 3), (3, 7), (10, 2))
    differ = []
    for path, text in SHOT_CFGS.items():
        ini = tmp_path / f"{path}.ini"
        ini.write_text(text)
        cfg = load_config(str(ini))
        assert sum(n for _, n in chunks) == cfg.shots
        whole, chunked = tmp_path / path / "whole", tmp_path / path / "chunked"
        assert cli_main(["simulate-chaotic", "--config", str(ini), "--out", str(whole)]) == 0
        exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                                cfg.master_seed, det=cfg.detector,
                                coherent_sum=cfg.coherent_sum)
        width, height = cfg.detector.output_shape(cfg.width, cfg.height)
        chunked.mkdir(parents=True)
        framestack.write_stack(chunked / "frames.twmg",
                               itertools.chain.from_iterable(exp.shots(n, start)
                                                             for start, n in chunks),
                               width, height, cfg.shots, cfg.master_seed, RNG_ALGORITHM,
                               i1_lit=exp.i1_lit)
        for run in (whole, chunked):
            assert cli_main(["reconstruct", str(run / "frames.twmg"),
                             "--out", str(run / "rec")]) == 0
        gmap = np.loadtxt(whole / "rec" / "correlation_map.csv", delimiter=",")
        assert gmap.shape == (width, height)
        differ += [f"{path} {name}" for name in ("frames.twmg", "rec/correlation_map.csv")
                   if (whole / name).read_bytes() != (chunked / name).read_bytes()]
    _report(8, "a stack and its G map are byte-identical however the shots are chunked, "
               "on the copy-stack, FFT, coherent-sum and binning 12-bit paths",
            not differ, ", ".join(differ))


@pytest.mark.parametrize("n_frames", [1, 8, 256])
def test_fixed_modulus_pick_does_not_move_with_frame_count(experiment, geometry, cfg,
                                                           n_frames):
    # every bin holds unit-modulus modes, so none varies and several tie for
    # brightest up to round-off; the pick must not depend on how many frames
    spec = SourceSpec(n_modes=cfg.source.n_modes,
                      angular_spread=cfg.source.angular_spread,
                      amplitude_law="fixed-modulus")
    shape = experiment.base_image.shape
    index = fourier_bin_index(sample_modes(spec, cfg.master_seed, 0), geometry.lens_fourier_f,
                              experiment.pitch, shape)
    ref = auto_reference_pixel(framestack.Moments.of(
        bin_intensities(index, np.abs(sample_amplitudes(spec, cfg.master_seed, k)) ** 2, shape)
        for k in range(n_frames)))
    assert ref == (98, 148)


def test_criterion_9_zero_variance_control(mask, geometry, cfg):
    spec = SourceSpec(n_modes=cfg.source.n_modes,
                      angular_spread=cfg.source.angular_spread,
                      amplitude_law="fixed-modulus")
    exp = ChaoticExperiment(mask, geometry, spec, cfg.master_seed,
                            coherent_sum=True)
    # i1 is the binned mode intensities alone, so the reference bin needs no
    # i2 frame; G and its error then come from one pass over the shots
    shape = exp.base_image.shape
    index = fourier_bin_index(sample_modes(spec, cfg.master_seed, 0), geometry.lens_fourier_f,
                              exp.pitch, shape)
    ref = auto_reference_pixel(framestack.Moments.of(
        bin_intensities(index, np.abs(sample_amplitudes(spec, cfg.master_seed, k)) ** 2, shape)
        for k in range(256)))
    g, se = jackknife_error(reference_pairs(exp.shots(256), ref))
    g = np.abs(g)
    ok = bool(ref == (98, 148) and np.all(g <= 5.0 * se))
    worst = float(np.divide(g, se, out=np.zeros_like(g), where=se > 0).max())
    _report(9, "deterministic mode amplitudes: |G| stays below 5x the "
               "jackknife error everywhere",
            ok, f"ref pixel {ref}, max |G| {g.max():.2e}, max 5*se {5 * se.max():.2e}, "
                f"worst |G|/se {worst:.2f}")
