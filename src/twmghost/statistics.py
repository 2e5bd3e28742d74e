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

`correlate` and `jackknife_error` take such pairs: `reference_pairs` makes
them from shot records, and the `reconstruct` command from a stack's i1
pixel trace beside its i2 frames.  `snr` scores a map G, such as a running
`result()`, against the object's footprint.

`thermal_test` checks that intensities follow the thermal (exponential) law
of their own mean.  Its Kolmogorov-Smirnov p-value is the fitted-mean null
of Lilliefors (JASA 64, 387 (1969)), read from one table in Stephens'
modified statistic (JASA 69, 730 (1974)), which holds for every n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    """`acc` once it has taken every (reference value, i2) pair, in order;
    each pair is dropped before the next is pulled, so that a stream of
    frames read one at a time has one in flight."""
    for x, i2 in pairs:
        acc.add(x, i2)
        del x, i2
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


def _contrast(s1: np.ndarray, s2: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and temporal contrast sigma/<I> (0 where <I> <= 0) of pixels
    whose sums of I and I^2 over n frames are s1 and s2."""
    mean = s1 / n
    # sd, then the contrast, formed in place in one array
    contrast = s2 / n
    contrast -= mean * mean
    np.maximum(contrast, 0.0, out=contrast)
    np.sqrt(contrast, out=contrast)
    lit = mean > 0
    np.divide(contrast, mean, out=contrast, where=lit)
    contrast[~lit] = 0.0
    return mean, contrast


def auto_reference_pixel(moments: Moments) -> tuple[int, int]:
    """Pixel of highest temporal contrast sigma/<I> among pixels with <I> > 0,
    from per-pixel sums of I and I^2 over n frames (`framestack.arm_moments`
    of a stack, or `Moments.of(frames)`), walked a band of rows at a time.

    A Fourier bin (arm i1) fed by one thermal mode has contrast 1, one fed
    by M modes 1/sqrt(M) (Goodman, Speckle Phenomena in Optics), so this is
    a single-mode bin, whose covariance map is one copy of the image, not a
    superposition of shifted copies; of equal maxima the first in row-major
    order wins.  When no pixel varies (deterministic mode intensities) it is
    the brightest pixel: the first in row-major order among those within
    BRIGHTEST_TIE of the largest mean, so that round-off in the sums cannot
    move the pick with the frame count.  That threshold needs the largest
    mean of all bands, so this case walks the bands a second time.  The
    pick is the whole-frame formula's, NaN sums included.
    """
    n = moments.n
    if n == 0:
        raise InsufficientSamples("no frames")
    peak = brightest = -np.inf
    flat = 0
    for row, s1, s2 in moments.bands():
        width = s1.shape[1]
        mean, contrast = _contrast(s1, s2, n)
        top = contrast.max()
        if top > peak:
            flat = row * width + int(np.argmax(contrast))
        # np.maximum keeps a NaN, which compares false from then on
        peak, brightest = np.maximum(peak, top), np.maximum(brightest, mean.max())
        # freed before the next band's are formed
        del mean, contrast
    if not peak > THERMAL_CONTRAST_FLOOR:
        least = brightest * (1.0 - BRIGHTEST_TIE)
        flat = 0
        for row, s1, _ in moments.bands():
            bright = s1 / n >= least
            if bright.any():
                flat = row * width + int(np.argmax(bright))
                break
    return divmod(flat, width)


# fewest samples thermal_test accepts, and the bins of the histogram it returns
MIN_SAMPLES = 100
_HISTOGRAM_BINS = 50

# (Stephens' D*, upper-tail probability p) knots of the Lilliefors null,
# made by tests/lilliefors_table.py: 4e6 seeded draws at n = 400.  Stephens'
# published 15-1 % points are 0.926, 0.990, 1.094, 1.190 and 1.308
_D_STAR, _P = np.array([
    (0.3367, 0.999), (0.3939, 0.99), (0.4267, 0.975), (0.4586, 0.95), (0.5003, 0.9),
    (0.5584, 0.8), (0.6062, 0.7), (0.6514, 0.6), (0.6974, 0.5), (0.7474, 0.4),
    (0.8052, 0.3), (0.8784, 0.2), (0.9265, 0.15), (0.9900, 0.1), (1.0896, 0.05),
    (1.1808, 0.025), (1.2921, 0.01), (1.3706, 0.005), (1.4453, 0.0025), (1.5371, 0.001),
    (1.6018, 0.0005)]).T
_LOG_P = np.log(_P)


def _lilliefors_sf(n: int, d: float) -> float:
    """P(D >= d) for the Kolmogorov-Smirnov distance D of n exponential
    samples from the exponential law of their own mean, Lilliefors' null.
    Stephens' D* = (D - 0.2/n)(sqrt(n) + 0.26 + 0.5/sqrt(n)) makes that law
    almost independent of n, so log p is interpolated in D* between the
    knots; p is 1 below the first, and above the last log p goes on linearly
    in D*^2, at the slope of the last two knots."""
    root = np.sqrt(n)
    dstar = (d - 0.2 / n) * (root + 0.26 + 0.5 / root)
    if dstar <= _D_STAR[0]:
        return 1.0
    if dstar <= _D_STAR[-1]:
        return float(np.exp(np.interp(dstar, _D_STAR, _LOG_P)))
    slope = (_LOG_P[-1] - _LOG_P[-2]) / (_D_STAR[-1] ** 2 - _D_STAR[-2] ** 2)
    return float(np.exp(_LOG_P[-1] + slope * (dstar ** 2 - _D_STAR[-1] ** 2)))


def thermal_test(samples) -> HistogramFit:
    """Kolmogorov-Smirnov test of the samples against the thermal law
    P(I) = exp(-I/<I>)/<I> with <I> the sample mean, which must be > 0.  The
    mean is fitted from the samples themselves, so the p-value is Lilliefors'
    (`_lilliefors_sf`), not Kolmogorov's, which would read far too high."""
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
    p = _lilliefors_sf(n, float(ks))
    try:
        counts, edges = np.histogram(samples, bins=_HISTOGRAM_BINS)
    except ValueError:   # the range is narrower than _HISTOGRAM_BINS steps of the float grid
        raise InsufficientSamples(
            f"samples span {samples.min():.17g} to {samples.max():.17g}, too narrow a "
            f"range to split into {_HISTOGRAM_BINS} histogram bins") from None
    return HistogramFit(bin_edges=edges, counts=counts, fitted_mean=mean,
                       ks_statistic=float(ks), p_value=float(p))


def snr(g: np.ndarray, support: np.ndarray) -> float:
    """(mean G inside `support` - mean G outside) / std(G outside), 0 where G
    outside does not vary, with `support` a boolean map of the expected
    object footprint on G's grid (including the reference-mode shift).  A
    support of another shape, or one with an empty side, is refused."""
    support = np.asarray(support, dtype=bool)
    if support.shape != g.shape:
        raise ShapeMismatch(f"support shape {support.shape} != map shape {g.shape}")
    inside, outside = g[support], g[~support]
    if not (inside.size and outside.size):
        side = "outside" if inside.size else "inside"
        raise InsufficientSamples(f"no map pixels {side} the support: no SNR to form")
    sd = float(outside.std())
    return float((inside.mean() - outside.mean()) / sd) if sd else 0.0
