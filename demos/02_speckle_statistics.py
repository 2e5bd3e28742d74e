"""Chaotic seed: speckle fields and thermal statistics.

The seed beam is a superposition of a few hundred plane-wave modes with
independent circular-Gaussian amplitudes.  Sampled on a plane it forms a
fully developed speckle pattern whose intensity follows the thermal law
P(I) = exp(-I/<I>)/<I>, both across space (one shot, many pixels) and in
time (one pixel, many shots).

Run from the repository root:  python3 demos/02_speckle_statistics.py
"""

import numpy as np

from twmghost.chaotic_source import (bin_intensities, field_from_modes, fourier_bin_index,
                                     sample_modes)
from twmghost.config import load_config
from twmghost.propagation import ScalarField
from twmghost.statistics import thermal_test

cfg = load_config()
spec = cfg.source
print(f"{spec.n_modes} modes within {spec.angular_spread * 1e3:.1f} mrad")

# --- spatial statistics: one shot, intensity over the pixels -----------------
plane = ScalarField(np.zeros((256, 256)), 16e-6, 1064e-9)
m = sample_modes(spec, master_seed=2026, shot_index=0)
speckle = np.abs(field_from_modes(m, plane).grid) ** 2

# neighbouring pixels share a speckle grain; subsample beyond the grain size
sub = speckle[::8, ::8].ravel()
fit = thermal_test(sub)
print(f"spatial  : {sub.size} samples, <I> = {fit.fitted_mean:.3f}, "
      f"KS D = {fit.ks_statistic:.4f}, p = {fit.p_value:.3f}")

# contrast of fully developed speckle is 1: std(I)/<I> -> 1
print(f"           speckle contrast {speckle.std() / speckle.mean():.3f} (expect ~1)")

# --- temporal statistics: the Fourier-plane arm, one pixel, many shots -------
# On the Fourier plane of the seed arm each mode collapses to one bright
# pixel carrying its instantaneous intensity |a_n|^2.  The directions are the
# same in every shot, so each mode's pixel is worked out once.
index = fourier_bin_index(m, cfg.geometry.lens_fourier_f, plane.pitch, plane.shape)
i1 = bin_intensities(index, np.abs(m.amplitude) ** 2, plane.shape)
px = np.unravel_index(np.argmax(i1), i1.shape)
trace = []
for s in range(2000):
    ms = sample_modes(spec, master_seed=2026, shot_index=s)
    trace.append(bin_intensities(index, np.abs(ms.amplitude) ** 2, plane.shape)[px])
fit = thermal_test(np.array(trace))
print(f"temporal : pixel {px}, 2000 shots, <I> = {fit.fitted_mean:.3f}, "
      f"KS D = {fit.ks_statistic:.4f}, p = {fit.p_value:.3f}")
verdict = "thermal" if fit.p_value > 0.01 else "NOT thermal"
print(f"           verdict at the 1% level: {verdict}")
