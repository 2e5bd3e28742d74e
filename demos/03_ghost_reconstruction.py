"""Ghost imaging through the chaotic channel.

With a chaotic seed, every shot's detected image i2 is a blur of shifted
copies of the object image -- no single shot shows the three holes.  The
Fourier-plane arm i1 watches the per-mode intensities.  Correlating one
reference pixel of i1 against the full i2 map over many shots isolates the
copy belonging to that mode and the object reappears.

Run from the repository root:  python3 demos/03_ghost_reconstruction.py
Outputs land in demo_output/.
"""

from pathlib import Path

import numpy as np

from twmghost import masks
from twmghost.config import load_config
from twmghost.framestack import Moments
from twmghost.pipeline import ChaoticExperiment
from twmghost.statistics import auto_reference_pixel, correlate, reference_pairs, snr_report

out = Path("demo_output")
out.mkdir(exist_ok=True)

cfg = load_config()
n_shots = 400
exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                        cfg.master_seed)

# a single shot: smooth blob, no holes
shot0 = next(exp.shots(1))
rho = np.corrcoef(shot0.i2.ravel(), exp.base_image.ravel())[0, 1]
print(f"single shot vs coherent image: correlation {rho:+.3f} (no structure)")
masks.save_pgm16(out / "single_shot.pgm", shot0.i2)

# pick the highest-contrast reference bin on the Fourier arm and correlate; a
# bin fed by several modes recovers the sum of their shifted copies
ref = auto_reference_pixel(Moments.of(rec.i1 for rec in exp.shots(50)))
modes = exp.bin_modes(ref)
print(f"reference pixel {ref} is fed by {len(modes)} mode(s): {modes.tolist()}")

g = correlate(reference_pairs(exp.shots(n_shots), ref))
expected = sum(exp.expected_image(n) for n in modes)
rho = np.corrcoef(g.ravel(), expected.ravel())[0, 1]
print(f"{n_shots}-shot correlation map vs expected image: Pearson {rho:+.3f}")
masks.save_pgm16(out / "correlation_map.pgm", g)
masks.save_csv(out / "correlation_map.csv", g)

# reconstruction quality grows like sqrt(number of shots)
support = expected > 1e-3 * expected.max()
rows = snr_report(reference_pairs(exp.shots(n_shots), ref), support,
                  checkpoints=[50, 100, 200, 400])
print("shots   SNR")
for r in rows:
    print(f"{r['n_shots']:5d}   {r['snr']:5.1f}")
print(f"wrote single_shot.pgm and correlation_map.pgm to {out}/")
