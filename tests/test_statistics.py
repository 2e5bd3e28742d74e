import time
import tracemalloc

import numpy as np
import pytest

from twmghost import framestack
from twmghost.errors import InsufficientSamples, ShapeMismatch
from twmghost.framestack import Moments
from twmghost.pipeline import ShotRecord
from twmghost.statistics import (
    BRIGHTEST_TIE,
    THERMAL_CONTRAST_FLOOR,
    CovarianceAccumulator,
    _lilliefors_sf,
    auto_reference_pixel,
    correlate,
    jackknife_error,
    reference_pairs,
    snr,
    thermal_test,
)


def _correlate(shots, ref):
    return correlate(reference_pairs(shots, ref))


def _pick(frames):
    return auto_reference_pixel(Moments.of(frames))


def _synthetic_shots(rng, n=60, w=16, coupled=False):
    """Exponential i1/i2 ensembles; `coupled` copies the reference value
    into a block of i2 so the covariance there is known."""
    shots = []
    for s in range(n):
        i1 = rng.exponential(1.0, size=(w, w))
        i2 = rng.exponential(1.0, size=(w, w))
        if coupled:
            i2[2:6, 2:6] = i1[3, 3]
        shots.append(ShotRecord(i1=i1, i2=i2, shot_index=s))
    return shots


def test_correlate_against_direct_covariance(rng):
    shots = _synthetic_shots(rng, n=40)
    ref = (3, 3)
    g = _correlate(shots, ref)
    i1r = np.array([s.i1[ref] for s in shots])
    i2 = np.array([s.i2 for s in shots])
    direct = (i2 * i1r[:, None, None]).mean(axis=0) - i1r.mean() * i2.mean(axis=0)
    assert np.allclose(g, direct, atol=1e-12)


def test_correlate_recovers_self_covariance(rng):
    shots = _synthetic_shots(rng, n=400, coupled=True)
    g = _correlate(shots, (3, 3))
    i1r = np.array([s.i1[3, 3] for s in shots])
    var = i1r.var()  # 1/n convention matches the accumulator
    assert np.allclose(g[2:6, 2:6], var, atol=1e-12)
    # uncoupled pixels stay near zero
    assert np.abs(g[10:, 10:]).max() < 5.0 / np.sqrt(400)


def test_accumulator_streaming_equals_batch(rng):
    shots = _synthetic_shots(rng, n=25)
    acc = CovarianceAccumulator()
    for s in shots:
        acc.add(s.i1[5, 7], s.i2)
    g = acc.result()
    assert g.tobytes() == _correlate(shots, (5, 7)).tobytes()
    # the sums are those of the plain per-shot expressions with x shifted by
    # the first shot's value, bit for bit
    x0 = float(shots[0].i1[5, 7])
    s1, s2, s12 = 0.0, np.zeros((16, 16)), np.zeros((16, 16))
    for s in shots:
        x = float(s.i1[5, 7]) - x0
        s1 += x
        s2 += s.i2
        s12 += x * s.i2
    assert acc.n == 25 and acc.x0 == x0 and acc.s1 == s1
    assert acc.s2.tobytes() == s2.tobytes() and acc.s12.tobytes() == s12.tobytes()


def test_accumulator_errors(rng):
    acc = CovarianceAccumulator()
    with pytest.raises(InsufficientSamples, match="need at least 2 shots, got 0"):
        acc.result()
    acc.add(1.0, np.ones((4, 4)))
    with pytest.raises(ShapeMismatch):
        acc.add(1.0, np.ones((8, 8)))
    # the reference pixel must lie on i1; a negative index must not wrap
    shots = [ShotRecord(i1=np.ones((4, 4)), i2=np.ones((4, 4)), shot_index=k) for k in range(3)]
    for ref in ((4, 0), (-1, 0)):
        with pytest.raises(ShapeMismatch):
            _correlate(shots, ref)


def test_auto_reference_pixel(rng):
    # bins fed by two and three thermal modes are brighter (mean 2 and 3) but
    # have contrast 1/sqrt(2) and 1/sqrt(3); the single-mode bin (contrast 1)
    # is the reference
    shots = []
    for s in range(400):
        i1 = np.zeros((16, 16))
        i1[3, 5] = rng.exponential(1.0)
        i1[9, 4] = rng.exponential(1.0, size=2).sum()
        i1[12, 1] = rng.exponential(1.0, size=3).sum()
        shots.append(ShotRecord(i1=i1, i2=i1.copy(), shot_index=s))
    assert _pick(s.i1 for s in shots) == (3, 5)
    assert _pick(s.i2 for s in shots) == (3, 5)
    # deterministic intensities: no bin varies, so the brightest is picked
    frame = np.zeros((16, 16))
    frame[3, 5], frame[9, 4] = 1.0, 2.0
    assert _pick(frame.copy() for _ in range(20)) == (9, 4)
    with pytest.raises(InsufficientSamples, match="no frames"):
        _pick([])


def test_brightest_pixel_ties_go_to_the_first():
    # two bins equally bright up to round-off: the first in row-major order
    # is picked, whichever of them the last bits favour
    for later in (2.0 + 4e-16, 2.0 - 4e-16):
        frame = np.zeros((16, 16))
        frame[3, 5], frame[9, 4], frame[12, 1] = 2.0, later, 1.0
        assert _pick(frame.copy() for _ in range(20)) == (3, 5)
    frame[9, 4] = 2.0 * (1 + 1e-8)
    assert _pick(frame.copy() for _ in range(20)) == (9, 4)
    assert _pick(np.zeros((4, 4)) for _ in range(3)) == (0, 0)


def _whole_frame_pick(s1, s2, n):
    """The auto reference pixel by its formula on whole W x H maps."""
    mean = s1 / n
    sd = np.sqrt(np.maximum(s2 / n - mean * mean, 0.0))
    contrast = np.divide(sd, mean, out=np.zeros_like(sd), where=mean > 0)
    if contrast.max() > THERMAL_CONTRAST_FLOOR:
        flat = np.argmax(contrast)
    else:
        flat = np.argmax(mean >= mean.max() * (1.0 - BRIGHTEST_TIE))
    return tuple(int(v) for v in np.unravel_index(int(flat), s1.shape))


def _moments(s1, s2, n):
    moments = Moments()
    moments.n, moments.s1, moments.s2 = n, s1, s2
    return moments


def _stored_moments(tmp_path, frames):
    """The trailer-backed moments of a stack whose i1 frames are `frames`."""
    path = tmp_path / "pick.twmg"
    w, h = frames[0].shape
    framestack.write_stack(path, (ShotRecord(i1=f, i2=f, shot_index=k)
                                  for k, f in enumerate(frames)), w, h, len(frames), 0, "x")
    return framestack.arm_moments(path, "i1")


# W = 45 rows is a multiple of none of the band heights; 1000 is one band
BAND_HEIGHTS = [1, 7, 32, 1000]


@pytest.mark.parametrize("band_rows", BAND_HEIGHTS)
def test_banded_pick_equals_whole_frame_formula(tmp_path, monkeypatch, rng, band_rows):
    monkeypatch.setattr(framestack, "_BAND_ROWS", band_rows)
    for trial in range(20):
        n = int(rng.integers(1, 30))
        frames = rng.exponential(1.0, size=(n, 45, 13)) * rng.integers(0, 2, size=(45, 13))
        if trial % 4 == 3:     # deterministic intensities: the brightest-bin fallback
            frames[:] = frames[0]
        streamed = Moments.of(frames)
        want = _whole_frame_pick(streamed.s1, streamed.s2, n)
        assert auto_reference_pixel(streamed) == want
        assert auto_reference_pixel(_stored_moments(tmp_path, frames)) == want
        # random sums, not the moments of any frames: contrasts of every size
        s1 = rng.exponential(1.0, size=(45, 13)) * rng.integers(0, 2, size=(45, 13))
        s2 = s1 * s1 / n * rng.uniform(0.5, 3.0, size=(45, 13))
        assert auto_reference_pixel(_moments(s1, s2, n)) == _whole_frame_pick(s1, s2, n)


@pytest.mark.parametrize("band_rows", BAND_HEIGHTS)
def test_banded_pick_ties_and_fallback_across_bands(tmp_path, monkeypatch, rng, band_rows):
    monkeypatch.setattr(framestack, "_BAND_ROWS", band_rows)
    # the last row of the first band and the first row of the next (the last
    # two rows when there is one band)
    edge = min(band_rows, 44) - 1

    def pick(frames):
        frames = np.asarray(frames, dtype=float)
        streamed = auto_reference_pixel(Moments.of(frames))
        assert auto_reference_pixel(_stored_moments(tmp_path, frames)) == streamed
        return streamed

    # equal maxima on both sides of the boundary: the first in row-major
    # order wins, though its column is the later one
    frames = rng.exponential(1.0, size=(50, 45, 13)) + 20.0
    frames[:, edge, 9] = frames[:, edge + 1, 2] = rng.exponential(1.0, size=50)
    assert pick(frames) == (edge, 9)
    frames[:, edge, 9] += 20.0
    assert pick(frames) == (edge + 1, 2)
    # no pixel varies: the brightest, its maximum in a later band
    frame = np.ones((45, 13))
    frame[44, 7] = 5.0
    assert pick([frame] * 3) == (44, 7)
    # within BRIGHTEST_TIE of it, across bands: the first in row-major order
    frame[edge, 11] = 5.0 * (1.0 - BRIGHTEST_TIE / 2)
    assert pick([frame] * 3) == (edge, 11)
    frame[0, 1] = 5.0 * (1.0 - BRIGHTEST_TIE / 2)
    assert pick([frame] * 3) == (0, 1)
    # just outside the tie: the brightest again
    frame[0, 1] = frame[edge, 11] = 5.0 * (1.0 - 2 * BRIGHTEST_TIE)
    assert pick([frame] * 3) == (44, 7)
    # an all-dark frame: the first pixel
    assert pick([np.zeros((45, 13))] * 3) == (0, 0)
    with pytest.raises(InsufficientSamples, match="no frames"):
        auto_reference_pixel(Moments())


def test_banded_pick_follows_whole_frame_on_non_finite_sums(monkeypatch):
    # a NaN anywhere makes the whole frame's maxima NaN: the pick is the
    # first pixel, in whichever band the NaN lies
    monkeypatch.setattr(framestack, "_BAND_ROWS", 7)
    s1 = np.arange(1.0, 1.0 + 45 * 13).reshape(45, 13)
    s2 = s1 * s1 * 2.0
    for bad in ((0, 0), (20, 4), (44, 12)):
        for total in (s1, s2):
            spoiled = total.copy()
            spoiled[bad] = np.nan
            sums = (spoiled, s2) if total is s1 else (s1, spoiled)
            assert auto_reference_pixel(_moments(*sums, 5)) == _whole_frame_pick(*sums, 5)


def test_thermal_test_accepts_exponential(rng):
    fit = thermal_test(rng.exponential(2.5, size=5000))
    assert fit.p_value > 0.01
    assert fit.fitted_mean == pytest.approx(2.5, rel=0.1)
    assert fit.counts.sum() == 5000


def test_thermal_test_rejects_gaussian(rng):
    samples = np.abs(rng.normal(5.0, 0.3, size=5000))
    fit = thermal_test(samples)
    assert fit.p_value < 1e-6


@pytest.mark.parametrize("power", [1.0, 2.0])
def test_thermal_test_matches_scipy_kstest(rng, power):
    sstats = pytest.importorskip("scipy.stats")
    # thermal samples, and squared ones the test rejects; goodness_of_fit
    # draws the fitted-mean null by Monte Carlo, so its p is held to 4 of its
    # standard errors, plus 0.005 for the table's own draws and interpolation
    draws = 2000
    for n in (100, 1000, 5000):
        samples = rng.exponential(1.0, size=n) ** power
        fit = thermal_test(samples)
        ref = sstats.kstest(samples, "expon", args=(0.0, samples.mean()))
        assert abs(fit.ks_statistic - ref.statistic) <= 1e-15
        mc = sstats.goodness_of_fit(sstats.expon, samples, known_params={"loc": 0.0},
                                    statistic="ks", n_mc_samples=draws, random_state=n)
        assert mc.statistic == pytest.approx(fit.ks_statistic, rel=1e-12)
        se = np.sqrt(mc.pvalue * (1.0 - mc.pvalue) / draws)
        assert abs(fit.p_value - mc.pvalue) <= 4.0 * se + 0.005, (n, fit.p_value, mc.pvalue)


@pytest.mark.parametrize("n", [100, 300, 2000])
def test_thermal_test_is_calibrated(n):
    # exactly thermal samples are rejected at each level at its nominal
    # rate, within 3 binomial standard errors of 2000 draws
    draws = 2000
    rng = np.random.default_rng(n)
    p = np.array([thermal_test(rng.exponential(1.0, size=n)).p_value for _ in range(draws)])
    for level in (0.01, 0.05, 0.10):
        rate = float(np.mean(p < level))
        assert abs(rate - level) <= 3.0 * np.sqrt(level * (1.0 - level) / draws), (level, rate)


@pytest.mark.parametrize("shape, n, floor", [(1.3, 300, 0.40), (1.15, 2000, 0.80)])
def test_thermal_test_rejects_gamma_law(shape, n, floor):
    # gamma laws near the exponential: at the 1 % level the Kolmogorov null
    # of a fully specified law rejected 18 % and 55 % of these draws, the
    # fitted-mean null 55 % and 86 %
    rng = np.random.default_rng(int(shape * 100) + n)
    p = np.array([thermal_test(rng.gamma(shape, size=n)).p_value for _ in range(300)])
    assert np.mean(p < 0.01) >= floor


def _d(n, dstar):
    # the KS distance D whose Stephens statistic at n is dstar
    root = np.sqrt(n)
    return 0.2 / n + dstar / (root + 0.26 + 0.5 / root)


def test_thermal_test_null_matches_stephens_points():
    # Stephens (1974), exponential with the mean fitted: the upper 15, 10, 5,
    # 2.5 and 1 % points of D*, which the table meets to 0.02
    n = 400
    for dstar, level in ((0.926, 0.15), (0.990, 0.10), (1.094, 0.05), (1.190, 0.025),
                         (1.308, 0.01)):
        low, high = (_lilliefors_sf(n, _d(n, dstar + step)) for step in (-0.02, 0.02))
        assert low > level > high, (dstar, low, high)


def test_thermal_test_p_value_edges():
    # p is 1 at D = 0 and below the first knot, falls through the table, and
    # past its last knot still reads far-tail rejections, down to 0
    n = 400
    p = [_lilliefors_sf(n, _d(n, dstar)) for dstar in (0.3, 1.0, 1.6, 2.5, 40.0)]
    assert _lilliefors_sf(n, 0.0) == p[0] == 1.0
    assert p[1] > p[2] > 1e-4 and 1e-6 > p[3] > p[4] == 0.0


def test_thermal_test_needs_samples(rng):
    with pytest.raises(InsufficientSamples):
        thermal_test(rng.exponential(1.0, size=50))


def test_thermal_test_last_bit_range_is_insufficient():
    # 100 x 1.0 and 100 x the next double: too narrow a range for 50 bins
    samples = np.repeat([1.0, np.nextafter(1.0, 2.0)], 100)
    with pytest.raises(InsufficientSamples, match="samples span 1 to 1.0000000000000002"):
        thermal_test(samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_thermal_test_non_finite_samples_are_insufficient(rng, bad):
    # a NaN or inf sample is named as such, not as too narrow a range
    samples = rng.exponential(1.0, size=200)
    samples[17] = bad
    with pytest.raises(InsufficientSamples, match="1 of 200 samples are not finite"):
        thermal_test(samples)


def test_jackknife_matches_brute_force(rng):
    shots = _synthetic_shots(rng, n=15)
    ref = (3, 3)
    _, se = jackknife_error(reference_pairs(shots, ref))
    n = len(shots)
    full = [_correlate([s for j, s in enumerate(shots) if j != i], ref) for i in range(n)]
    loo = np.array(full)
    mean_loo = loo.mean(axis=0)
    brute = np.sqrt((n - 1) / n * np.sum((loo - mean_loo) ** 2, axis=0))
    assert np.allclose(se, brute, rtol=1e-8, atol=1e-14)


def test_jackknife_independence_bound(rng):
    # for independent ensembles the covariance stays within 5 jackknife
    # errors everywhere (seeded; ~0.999^256 chance level per pixel)
    shots = _synthetic_shots(rng, n=200)
    g, se = jackknife_error(reference_pairs(iter(shots), (8, 8)))
    # G comes from the same sums as correlate's
    assert g.tobytes() == _correlate(shots, (8, 8)).tobytes()
    assert np.all(np.abs(g) < 5.0 * se)


def _centred_jackknife(x, y):
    """Leave-one-out SE with each covariance taken about its own means."""
    n = len(x)
    loo = []
    for i in range(n):
        keep = np.arange(n) != i
        xc = x[keep] - x[keep].mean()
        loo.append(np.tensordot(xc, y[keep] - y[keep].mean(axis=0), 1) / (n - 1))
    loo = np.array(loo)
    return np.sqrt((n - 1) / n * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))


def test_near_constant_reference(rng):
    # x = c plus a few ulps: the covariance is of the ulp-level variation,
    # which unshifted sums of x i2 lose to the round-off of c <i2>; i2 sits
    # on a large offset, which the error sums lose unless i2 is shifted too
    n, c = 40, 3.0
    x = c + rng.integers(-4, 5, n) * np.spacing(c)
    y = 1e4 + rng.exponential(1.0, size=(n, 16, 16))
    y[:, 2:6, 2:6] += 1e15 * (x - c)[:, None, None]
    shots = [ShotRecord(i1=np.full((4, 4), xv), i2=yv, shot_index=k)
             for k, (xv, yv) in enumerate(zip(x, y))]
    want = np.tensordot(x - x.mean(), y - y.mean(axis=0), 1) / n
    g_jack, se = jackknife_error(reference_pairs(shots, (1, 1)))
    for g in (_correlate(shots, (1, 1)), g_jack):
        assert np.abs(g - want).max() <= 1e-9 * np.abs(want).max()
    brute = _centred_jackknife(x, y)
    assert np.abs(se - brute).max() <= 1e-9 * brute.max()


def test_jackknife_memory_is_bounded_in_shots():
    def shots(n):
        rng = np.random.default_rng(5)
        for k in range(n):
            yield ShotRecord(i1=rng.exponential(1.0, size=(32, 32)),
                             i2=rng.exponential(1.0, size=(32, 32)), shot_index=k)

    def peak(n):
        tracemalloc.start()
        try:
            jackknife_error(reference_pairs(shots(n), (3, 3)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)   # the first call also traces allocations made once per process
    assert peak(400) <= peak(50) + 32 * 32 * 8


def test_jackknife_requires_enough_shots(rng):
    with pytest.raises(InsufficientSamples):
        jackknife_error(reference_pairs(_synthetic_shots(rng, n=5), (0, 0)))


def test_snr_of_the_running_map_equals_the_batch_formula(rng):
    shots = _synthetic_shots(rng, n=120, coupled=True)
    support = np.zeros((16, 16), dtype=bool)
    support[2:6, 2:6] = True
    acc, got = CovarianceAccumulator(), {}
    for x, i2 in reference_pairs(shots, (3, 3)):
        acc.add(x, i2)
        if acc.n in (30, 120):
            got[acc.n] = snr(acc.result(), support)
    for n, value in got.items():
        i1r = np.array([s.i1[3, 3] for s in shots[:n]])
        i2 = np.array([s.i2 for s in shots[:n]])
        g = (i2 * i1r[:, None, None]).mean(axis=0) - i1r.mean() * i2.mean(axis=0)
        outside = g[~support]
        assert value == pytest.approx((g[support].mean() - outside.mean()) / outside.std())
    # a genuinely coupled block should stand far above the floor
    assert got[120] > 5.0


@pytest.mark.parametrize("fill, side", [(True, "outside"), (False, "inside")])
def test_snr_refuses_a_support_with_an_empty_side(rng, fill, side):
    g = _correlate(_synthetic_shots(rng, n=20), (3, 3))
    with pytest.raises(InsufficientSamples, match=f"no map pixels {side} the support"):
        snr(g, np.full(g.shape, fill))


def test_snr_refuses_a_support_of_another_shape(rng):
    g = _correlate(_synthetic_shots(rng, n=20), (3, 3))
    with pytest.raises(ShapeMismatch, match="support shape"):
        snr(g, np.ones((8, 16), dtype=bool))
