"""Generator of the null table that `statistics.thermal_test` reads.

With the exponential's mean fitted from the samples, the null law of the
Kolmogorov-Smirnov distance D is Lilliefors' (JASA 64, 387 (1969)), not
Kolmogorov's.  Stephens' modified statistic

    D* = (D - 0.2/n) (sqrt(n) + 0.26 + 0.5/sqrt(n))

makes it almost independent of n (JASA 69, 730 (1974)), so one table of
(D*, p) knots serves every n.  This script draws seeded samples of exactly
exponential data at one n, computes D as `thermal_test` does and prints the
D* that each tail probability in P_KNOTS cuts off, the knots of
`statistics._D_STAR` and `_P`:

    python tests/lilliefors_table.py

It takes about half a minute.  Stephens' published upper-tail points for
this case are D* = 0.926, 0.990, 1.094, 1.190 and 1.308 at 15, 10, 5, 2.5
and 1 %.
"""

from __future__ import annotations

import numpy as np

SEED = 19740730
N = 400
DRAWS = 4_000_000
CHUNK = 2_500
P_KNOTS = (0.999, 0.99, 0.975, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1,
           0.05, 0.025, 0.01, 0.005, 0.0025, 0.001, 0.0005)


def null_dstar(n: int, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Stephens' D* of `draws` samples of n standard exponentials, each
    tested against the exponential law of its own mean."""
    x = np.sort(rng.exponential(size=(draws, n)), axis=1)
    cdf = -np.expm1(-x / x.mean(axis=1, keepdims=True))
    i = np.arange(1, n + 1)
    d = np.maximum((i / n - cdf).max(axis=1), (cdf - (i - 1) / n).max(axis=1))
    return (d - 0.2 / n) * (np.sqrt(n) + 0.26 + 0.5 / np.sqrt(n))


def knots(n: int = N, draws: int = DRAWS, seed: int = SEED) -> np.ndarray:
    """The D* above which a fraction p of the null draws lies, for each p in
    P_KNOTS."""
    rng = np.random.default_rng(seed)
    dstar = np.concatenate([null_dstar(n, min(CHUNK, draws - start), rng)
                            for start in range(0, draws, CHUNK)])
    return np.quantile(dstar, 1.0 - np.array(P_KNOTS))


if __name__ == "__main__":
    print(f"# D* knots from {DRAWS} null draws at n = {N}, seed {SEED}")
    for p, d in zip(P_KNOTS, knots()):
        print(f"    ({d:.4f}, {p}),")
