import time
import tracemalloc

import numpy as np
import pytest

from twmghost.errors import InsufficientSamples, ShapeMismatch
from twmghost.framestack import Moments
from twmghost.pipeline import ShotRecord
from twmghost.statistics import (
    CovarianceAccumulator,
    _ks_sf,
    auto_reference_pixel,
    correlate,
    jackknife_error,
    reference_pairs,
    snr_report,
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


def test_thermal_test_accepts_exponential(rng):
    fit = thermal_test(rng.exponential(2.5, size=5000))
    assert fit.p_value > 0.01
    assert fit.fitted_mean == pytest.approx(2.5, rel=0.1)
    assert fit.counts.sum() == 5000


def test_thermal_test_rejects_gaussian(rng):
    samples = np.abs(rng.normal(5.0, 0.3, size=5000))
    fit = thermal_test(samples)
    assert fit.p_value < 1e-6


def _in_pelz_good_region(n, d):
    # where scipy's kstwo.sf uses the asymptotic Pelz-Good series
    return n > 140 and n * d * d < 2.2 and n * d ** 1.5 > 1.4


@pytest.mark.parametrize("n", [100, 140, 141, 500, 2000, 10_000])
def test_ks_sf_matches_scipy_kstwo(n):
    kstwo = pytest.importorskip("scipy.stats").kstwo
    # n d^2 through the Durbin branch (incl. n d <= 1) and both tail cut-offs,
    # then the edges n d <= 0.5, d >= 0.5 and d = 1
    nd2 = np.concatenate([[0.3 / n, 1.0 / n], np.linspace(0.05, 6.0, 40), [18.0, 50.0, 300.0]])
    d = np.concatenate([np.sqrt(nd2 / n), [0.4 / n, 0.5, 0.75, 0.99, 1.0]])
    for di in d:
        want = float(kstwo.sf(di, n))
        rel = 1e-4 if _in_pelz_good_region(n, di) else 1e-10
        assert _ks_sf(n, float(di)) == pytest.approx(want, rel=rel, abs=1e-300), (n, di)


@pytest.mark.parametrize("n", [200_000, 262_144, 1_000_000])
def test_ks_sf_large_n_matches_scipy_kstwo(n):
    # above 1e5 samples (a spatial i2 map of a 512 x 512 frame holds 262144)
    # the CDF off the tail is the Pelz-Good series, as in kstwo; 1e-10 is
    # tight enough to see its 1/n^1.5 term.  The tail's log-space sum keeps
    # about 3e-10 at these n, so it is held to 1e-6
    kstwo = pytest.importorskip("scipy.stats").kstwo
    for nd2 in np.concatenate([np.linspace(0.05, 2.15, 22), [2.3, 4.0]]):
        d = float(np.sqrt(nd2 / n))
        rel = 1e-10 if nd2 < 2.2 else 1e-6
        assert _ks_sf(n, d) == pytest.approx(float(kstwo.sf(d, n)), rel=rel), (n, nd2)


def test_ks_sf_large_n_is_fast():
    # at n d^2 = 2 the Durbin matrix is 1449 x 1449 and its power takes seconds
    n = 262_144
    d = float(np.sqrt(2.0 / n))
    start = time.perf_counter()
    _ks_sf(n, d)
    assert time.perf_counter() - start < 0.05


def test_ks_sf_edges():
    assert _ks_sf(500, 0.5 / 500) == 1.0
    assert _ks_sf(500, 0.1 / 500) == 1.0
    assert _ks_sf(500, 1.0) == 0.0
    assert _ks_sf(500, 1.5) == 0.0
    # n d <= 1 has the closed form P(D_n < d) = n!/n^n (2 n d - 1)^n, which
    # vanishes at large n, so check it at small n
    n, d = 5, 0.8 / 5
    cdf = np.prod(np.arange(1, n + 1) / n * (2 * n * d - 1))
    assert _ks_sf(n, d) == pytest.approx(1.0 - cdf, rel=1e-14)


@pytest.mark.parametrize("power", [1.0, 2.0])
def test_thermal_test_matches_scipy_kstest(rng, power):
    sstats = pytest.importorskip("scipy.stats")
    # thermal samples, and squared ones the test rejects
    for n in (100, 1000, 5000):
        samples = rng.exponential(1.0, size=n) ** power
        fit = thermal_test(samples)
        ref = sstats.kstest(samples, "expon", args=(0.0, samples.mean()))
        assert abs(fit.ks_statistic - ref.statistic) <= 1e-15
        rel = 1e-4 if _in_pelz_good_region(n, fit.ks_statistic) else 1e-10
        assert fit.p_value == pytest.approx(ref.pvalue, rel=rel, abs=1e-300)


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


def test_snr_report_checkpoints(rng):
    shots = _synthetic_shots(rng, n=120, coupled=True)
    support = np.zeros((16, 16), dtype=bool)
    support[2:6, 2:6] = True
    rows = snr_report(reference_pairs(shots, (3, 3)), support, checkpoints=[30, 60, 120])
    assert [r["n_shots"] for r in rows] == [30, 60, 120]
    assert not any(r["low_confidence"] for r in rows)
    # final entry reproduces the batch computation
    g = _correlate(shots, (3, 3))
    inside = g[support].mean()
    outside = g[~support]
    assert rows[-1]["snr"] == pytest.approx((inside - outside.mean()) / outside.std())
    # a genuinely coupled block should stand far above the floor
    assert rows[-1]["snr"] > 5.0


def test_snr_report_appends_final(rng):
    shots = _synthetic_shots(rng, n=50, coupled=True)
    support = np.zeros((16, 16), dtype=bool)
    support[2:6, 2:6] = True
    rows = snr_report(reference_pairs(shots, (3, 3)), support, checkpoints=[20])
    assert [r["n_shots"] for r in rows] == [20, 50]
    rows = snr_report(reference_pairs(shots, (3, 3)), support)
    assert [r["n_shots"] for r in rows] == [50]


def test_snr_report_empty(rng):
    support = np.zeros((16, 16), dtype=bool)
    with pytest.raises(InsufficientSamples, match="need at least 2 shots, got 0"):
        snr_report(reference_pairs([], (0, 0)), support)
