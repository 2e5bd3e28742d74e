"""Thermal-statistics diagnostics and intensity-correlation reconstruction.

The reconstruction estimator is the plain sample covariance (1/n
normalization) between the intensity at one reference pixel of the seed's
Fourier map and every pixel of the generated-field image map:

    G(x2, y2) = <I1(ref) I2(x2, y2)> - <I1(ref)> <I2(x2, y2)>

`CovarianceAccumulator` is the one place that sums (reference value x, i2)
pairs.  It sums x - x0, with x0 the first shot's x, so that a near-constant
reference gives G at the round-off of its variation, not of its mean.
Accumulation is strictly sequential in shot order (double precision), so
results are bit-identical regardless of how shots were produced.

Every estimator (`correlate`, `jackknife_error`, `snr_report`) takes such
pairs: `reference_pairs` makes them from shot records, and the
`reconstruct` command from a stack's i1 pixel trace beside its i2 frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientSamples, ShapeMismatch
from .framestack import Moments, ShotRecord


@dataclass
class HistogramFit:
    bin_edges: np.ndarray
    counts: np.ndarray
    fitted_mean: float
    ks_statistic: float
    p_value: float


class CovarianceAccumulator:
    """Streaming accumulator of the covariance map between a reference value
    x (the i1 intensity at the reference pixel) and the i2 map, fed (x, i2)
    pairs in shot order.  It keeps n, s1 = sum(x - x0), s2 = sum(i2) and
    s12 = sum((x - x0) i2), with x0 the first x."""

    def __init__(self):
        self.n, self.x0, self.s1 = 0, 0.0, 0.0
        self.s2 = self.s12 = self.shape = self._scratch = None

    def add(self, x: float, i2: np.ndarray):
        if self.shape is None:
            self.shape = i2.shape
            self.x0 = float(x)
            self.s2, self.s12 = np.zeros(self.shape), np.zeros(self.shape)
            self._scratch = np.empty(self.shape)
        elif i2.shape != self.shape:
            raise ShapeMismatch(f"shot {self.n}: i2 shape {i2.shape} != {self.shape}")
        x = float(x) - self.x0
        self.n += 1
        self.s1 += x
        self.s2 += i2
        self.s12 += np.multiply(x, i2, out=self._scratch)

    def result(self) -> np.ndarray:
        """The map G so far; it allocates only G (the product of the means
        is formed in the scratch frame), and the accumulator takes further
        shots after it.  Fewer than 2 shots, or a map with non-finite pixels
        (the stack held NaN or inf), is an InsufficientSamples."""
        if self.n < 2:
            raise InsufficientSamples(f"need at least 2 shots, got {self.n}")
        g = self.s12 / self.n
        means = np.divide(self.s2, self.n, out=self._scratch)
        means *= self.s1 / self.n
        g -= means
        bad = g.size - int(np.count_nonzero(np.isfinite(g)))
        if bad:
            raise InsufficientSamples(
                f"{bad} of {g.size} correlation map pixels are not finite (NaN or inf): "
                f"the reference trace or the i2 frames hold non-finite samples")
        return g


class JackknifeAccumulator(CovarianceAccumulator):
    """A CovarianceAccumulator that also sums what the jackknife error of G
    needs (Efron & Stein, Ann. Stat. 9, 586 (1981)).  With X, Y the
    deviations of x, y from their means, leaving shot i out gives the
    covariance g_i = (n G - n X_i Y_i / m) / m over m = n - 1 shots, so the
    variance (m/n) sum (g_i - <g>)^2 is n / m^3 (sum X^2 Y^2 - n G^2): exact
    from the sums of x^2 and, per pixel, of y, y^2, x y, x^2 y, x y^2 and
    x^2 y^2, kept for x - x0 and y = i2 less the first shot's i2."""

    def add(self, x: float, i2: np.ndarray):
        super().add(x, i2)
        if self.n == 1:
            self.y0, self.sxx, self.sums = i2.copy(), 0.0, np.zeros((6,) + self.shape)
        x = float(x) - self.x0
        y = np.subtract(i2, self.y0, out=self._scratch)
        yy = y * y
        self.sxx += x * x
        for total, term in zip(self.sums, (y, yy, x * y, x * x * y, x * yy, x * x * yy)):
            total += term

    def standard_error(self) -> np.ndarray:
        """Jackknife standard error of the covariance map, per pixel."""
        if self.n < 2:
            raise InsufficientSamples(f"need at least 2 shots, got {self.n}")
        n, m = self.n, self.n - 1
        sy, syy, sxy, sxxy, sxyy, sxxyy = self.sums
        mx, my = self.s1 / n, sy / n
        g = sxy / n - mx * my
        x2y2 = (sxxyy - 2 * my * sxxy - 2 * mx * sxyy + my * my * self.sxx + mx * mx * syy
                + 4 * mx * my * sxy - 3 * n * (mx * my) ** 2)
        return np.sqrt(np.maximum(n / m ** 3 * (x2y2 - n * g * g), 0.0))


def reference_pairs(shots: Iterable[ShotRecord], ref_pixel: tuple[int, int]):
    """(i1 at ref_pixel, i2) of each shot record, in iteration order; a
    ref_pixel off the i1 frame (a negative index too) is a ShapeMismatch."""
    r = (int(ref_pixel[0]), int(ref_pixel[1]))
    for shot in shots:
        w, h = shot.i1.shape
        if not (0 <= r[0] < w and 0 <= r[1] < h):
            raise ShapeMismatch(f"ref_pixel {r} outside i1 shape {shot.i1.shape}")
        yield shot.i1[r], shot.i2


def _fed(acc: CovarianceAccumulator, pairs: Iterable[tuple[float, np.ndarray]]):
    """`acc` once it has taken every (reference value, i2) pair, in order."""
    for x, i2 in pairs:
        acc.add(x, i2)
    return acc


def correlate(pairs: Iterable[tuple[float, np.ndarray]]) -> np.ndarray:
    """Covariance map G over (reference value, i2) pairs, in their order."""
    return _fed(CovarianceAccumulator(), pairs).result()


def jackknife_error(pairs: Iterable[tuple[float, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Covariance map G and its leave-one-out standard error per pixel, from
    the sums of one streaming pass over the (reference value, i2) pairs."""
    acc = _fed(JackknifeAccumulator(), pairs)
    if acc.n < 10:
        raise InsufficientSamples(f"jackknife needs >= 10 shots, got {acc.n}")
    return acc.result(), acc.standard_error()


# A pixel whose intensity never changes reads a contrast of about sqrt(eps),
# 1e-8, from the round-off of sum(I^2)/n - <I>^2; a thermal bin fed by M
# modes reads 1/sqrt(M).
THERMAL_CONTRAST_FLOOR = 1e-4

# means within this relative distance of the largest count as equally
# bright: bins fed by the same number of unit-modulus modes differ in the
# last bits of their sums
BRIGHTEST_TIE = 1e-9


def auto_reference_pixel(moments: Moments) -> tuple[int, int]:
    """Pixel of highest temporal contrast sigma/<I> among pixels with <I> > 0,
    from per-pixel sums of I and I^2 over n frames (`framestack.arm_moments`
    of a stack, or `Moments.of(frames)`).

    A Fourier bin (arm i1) fed by one thermal mode has contrast 1, one fed
    by M modes 1/sqrt(M) (Goodman, Speckle Phenomena in Optics), so this is
    a single-mode bin, whose covariance map is one copy of the image, not a
    superposition of shifted copies.  When no pixel varies (deterministic
    mode intensities) it is the brightest pixel: the first in row-major
    order among those within BRIGHTEST_TIE of the largest mean, so that
    round-off in the sums cannot move the pick with the frame count.
    """
    n = moments.n
    if n == 0:
        raise InsufficientSamples("no frames")
    mean = moments.s1 / n
    # sd, then the contrast, formed in place in one frame
    contrast = moments.s2 / n
    contrast -= mean * mean
    np.maximum(contrast, 0.0, out=contrast)
    np.sqrt(contrast, out=contrast)
    lit = mean > 0
    np.divide(contrast, mean, out=contrast, where=lit)
    contrast[~lit] = 0.0
    if contrast.max() > THERMAL_CONTRAST_FLOOR:
        flat = np.argmax(contrast)
    else:
        flat = np.argmax(mean >= mean.max() * (1.0 - BRIGHTEST_TIE))
    idx = np.unravel_index(int(flat), mean.shape)
    return (int(idx[0]), int(idx[1]))


# fewest samples thermal_test accepts, and the bins of the histogram it returns
MIN_SAMPLES = 100
_HISTOGRAM_BINS = 50


def thermal_test(samples) -> HistogramFit:
    """Kolmogorov-Smirnov test of the samples against the thermal law
    P(I) = exp(-I/<I>)/<I> with <I> the sample mean, which must be > 0."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < MIN_SAMPLES:
        raise InsufficientSamples(f"need >= {MIN_SAMPLES} samples, got {samples.size}")
    bad = int(np.count_nonzero(~np.isfinite(samples)))
    if bad:
        raise InsufficientSamples(
            f"{bad} of {samples.size} samples are not finite (NaN or inf): no thermal law to fit")
    mean = float(samples.mean())
    if mean <= 0:
        raise InsufficientSamples(f"sample mean {mean:.17g} <= 0: no thermal law to fit")
    n = samples.size
    cdf = -np.expm1(-np.sort(samples) / mean)
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    p = _ks_sf(n, float(ks))
    try:
        counts, edges = np.histogram(samples, bins=_HISTOGRAM_BINS)
    except ValueError:   # the range is narrower than _HISTOGRAM_BINS steps of the float grid
        raise InsufficientSamples(
            f"samples span {samples.min():.17g} to {samples.max():.17g}, too narrow a "
            f"range to split into {_HISTOGRAM_BINS} histogram bins") from None
    return HistogramFit(bin_edges=edges, counts=counts, fitted_mean=mean,
                       ks_statistic=float(ks), p_value=float(p))


# the Durbin matrix power is kept in range by exact power-of-two rescaling
_SCALE_EXP = 128
_SCALE = 2.0 ** _SCALE_EXP
# above this many samples the CDF off the tail is the Pelz-Good series, as
# in Simard & L'Ecuyer and scipy's kstwo: the Durbin matrix would take
# seconds (1449 x 1449 at n = 262144, n d^2 = 2), and the series is off by
# O(1/n^2)
_ASYMPTOTIC_N = 100_000


def _ks_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided one-sample Kolmogorov-Smirnov statistic.

    Branches as in Simard & L'Ecuyer, J. Stat. Softw. 39(11) (2011): in the
    tail, twice the one-sided Birnbaum-Tingey probability (Miller's
    approximation, exact for d >= 0.5); elsewhere one minus the CDF, which
    is the exact Durbin-matrix CDF of Marsaglia, Tsang & Wang, J. Stat.
    Softw. 8(18) (2003), whose cost grows as (2 ceil(n d))^3 log n, up to
    n = _ASYMPTOTIC_N, and the Pelz-Good asymptotic series above it.
    """
    if d >= 1.0:
        return 0.0
    if n * d <= 0.5:
        return 1.0
    nd2 = n * d * d
    if d >= 0.5 or nd2 > 4.0 or (n > 140 and nd2 >= 2.2):
        # P(D+_n >= d) = d sum_j C(n,j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1)
        j = np.arange(int(np.floor(n * (1.0 - d))) + 1)
        lg = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
        with np.errstate(divide="ignore"):
            log_terms = (lg[n] - lg[j] - lg[n - j]
                         + (n - j) * np.log(np.maximum(1.0 - d - j / n, 0.0))
                         + (j - 1) * np.log(d + j / n))
        return min(1.0, 2.0 * d * float(np.exp(log_terms).sum()))
    if n > _ASYMPTOTIC_N:
        return min(1.0, max(0.0, 1.0 - _pelz_good_cdf(n, d)))
    # d = (k - h)/n with 0 <= h < 1; P(D_n < d) = n!/n^n (H^n)[k-1, k-1]
    k = int(np.ceil(n * d))
    h = k - n * d
    m = 2 * k - 1
    fac = np.ones(m + 1)                  # fac[i] = 1/i!, underflowing to 0
    for i in range(1, m + 1):
        fac[i] = fac[i - 1] / i
    v = (1.0 - h ** np.arange(1, m + 1)) * fac[1:]
    v[-1] = (1.0 + max(2.0 * h - 1.0, 0.0) ** m - 2.0 * h ** m) * fac[m]
    H = np.zeros((m, m))
    for i in range(1, m):
        H[i - 1:, i] = fac[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = v[::-1]
    power, expnt, h_expnt, e = np.eye(m), 0, 0, n
    while True:
        if e % 2:
            power = power @ H
            expnt += h_expnt
            if power[k - 1, k - 1] > _SCALE:
                power /= _SCALE
                expnt += _SCALE_EXP
        e //= 2
        if not e:
            break
        H = H @ H
        h_expnt *= 2
        if H[k - 1, k - 1] > _SCALE:
            H /= _SCALE
            h_expnt += _SCALE_EXP
    p = power[k - 1, k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if p < 1.0 / _SCALE:
            p *= _SCALE
            expnt -= _SCALE_EXP
    return min(1.0, max(0.0, 1.0 - math.ldexp(p, expnt)))


def _pelz_good_cdf(n: int, d: float) -> float:
    """P(D_n < d) ~ K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n^1.5, z = d sqrt(n).

    The Li-Chien / Korolyuk expansion in the small-z form of Pelz & Good,
    J. R. Stat. Soc. B 38, 152 (1976), as given by Simard & L'Ecuyer (2011):
    theta sums over odd m = 2k - 1 of exp(-pi^2 m^2 / (8 z^2)), plus sums over
    all k of exp(-pi^2 k^2 / (2 z^2)) in K2 and K3.
    """
    z = d * math.sqrt(n)
    z2 = z * z
    k = np.arange(1, math.ceil(16.0 * z / math.pi) + 1, dtype=float)
    m2 = (2.0 * k - 1.0) ** 2 * (math.pi ** 2 / 4.0)     # (pi m / 2)^2
    odd = np.exp(-m2 / (2.0 * z2))
    all_k = (math.pi * k) ** 2
    even = all_k * np.exp(-all_k / (2.0 * z2))
    k0 = odd.sum() / z
    k1 = ((m2 - z2) * odd).sum() / (6.0 * z ** 4)
    k2 = (((6.0 * z2 + 2.0) * z2 * z2 + (2.0 * z2 - 5.0) * z2 * m2 + (1.0 - 2.0 * z2) * m2 * m2)
          * odd).sum() / (72.0 * z ** 7) - even.sum() / (36.0 * z ** 3)
    k3 = ((-(30.0 + 90.0 * z2) * z2 ** 3 + (135.0 - 96.0 * z2) * z2 * z2 * m2
           + (212.0 * z2 - 60.0) * z2 * m2 * m2 + (5.0 - 30.0 * z2) * m2 ** 3)
          * odd).sum() / (6480.0 * z ** 10) + ((3.0 * z2 - all_k) * even).sum() / (216.0 * z ** 6)
    return math.sqrt(2.0 * math.pi) * float(k0 + (k1 + (k2 + k3 / math.sqrt(n)) / math.sqrt(n))
                                             / math.sqrt(n))


def _snr_row(acc: CovarianceAccumulator, support: np.ndarray) -> dict:
    g = acc.result()
    inside, outside = g[support], g[~support]
    sd = float(outside.std())
    snr = float((inside.mean() - outside.mean()) / sd) if sd else 0.0
    return {"n_shots": acc.n, "snr": snr, "low_confidence": acc.n < 10}


def snr_report(pairs: Iterable[tuple[float, np.ndarray]], support: np.ndarray,
               checkpoints: Sequence[int] | None = None) -> list[dict]:
    """Reconstruction SNR at increasing shot counts, in one streaming pass.

    SNR = (mean G inside `support` - mean G outside) / std(G outside), with
    `support` a boolean map of the expected object footprint on the image
    grid (including the reference-mode shift).  The covariance map is
    snapshotted from the running accumulator at each requested checkpoint;
    the full-ensemble value is always reported last.  Entries with fewer
    than 10 shots are flagged low-confidence; fewer than 2 in all is an
    InsufficientSamples.
    """
    support = np.asarray(support, dtype=bool)
    cps = set(int(c) for c in checkpoints) if checkpoints else None
    acc = CovarianceAccumulator()
    out = []
    for x, i2 in pairs:
        acc.add(x, i2)
        if cps is not None and acc.n in cps and acc.n >= 2:
            out.append(_snr_row(acc, support))
    if not out or out[-1]["n_shots"] != acc.n:
        out.append(_snr_row(acc, support))
    return out
