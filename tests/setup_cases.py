"""The set-ups that the simulate commands must refuse, and the values and
configs of the config sweep: one table, two runners.

`tests/test_cli.py` runs each case of `DEGENERATE_SETUPS` in process through
`cli.main`, and sweeps every config key over `SWEEP_VALUES` on each of
`SWEEP_CFGS`.  Run as a script, this module runs each case through a command
line instead, in a fresh scratch directory, and exits 1 if any fails:

    python tests/setup_cases.py twmghost
    python tests/setup_cases.py python -m twmghost.cli

Either way a case must exit with its code, name its stage or key on stderr,
print no traceback and no numpy RuntimeWarning, and make no `--out`.  It
imports nothing of twmghost, so the script tests the installed package.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

SMALL_CFG = """\
[grid]
width = 64
height = 64

[source]
n_modes = 20

[run]
shots = 12
"""

# the three ways a shot is made: copy-stack product, FFT convolution, coherent sum
SHOT_PATHS = {
    "stack": SMALL_CFG,
    "fft": SMALL_CFG.replace("n_modes = 20", "n_modes = 200"),
    "coherent-sum": SMALL_CFG.replace("shots = 12", "shots = 12\ncoherent_sum = true"),
}

# a binning, quantizing detector on both arms of every shot
BINNED_12_BIT = SMALL_CFG + "\n[detector]\npixel_binning = 2\nbit_depth = 12\n"

# each shot path and the binning 12-bit run
SHOT_CFGS = {**SHOT_PATHS, "binning-2-bit-depth-12": BINNED_12_BIT}

# the sweep's configs: those runs at 4 shots
SWEEP_CFGS = {name: text.replace("shots = 12", "shots = 4") for name, text in SHOT_CFGS.items()}

# each key of the sweep is set to each of these in turn
SWEEP_VALUES = ("0", "-1", "1e-308", "1e-30", "0.5", "1", "2", "64", "1e3", "1e308", "", "nan",
                "inf")

BOTH = ("simulate-chaotic", "simulate-coherent")
CHAOTIC = ("simulate-chaotic",)


class Setup(NamedTuple):
    env: dict       # TWMG_ variables set for the run
    cmds: tuple     # the simulate commands that refuse it
    code: int       # their exit code
    text: str       # the stage or key that stderr names
    ini: str = SMALL_CFG  # the config file
    files: tuple = ()     # (name, bytes) written beside it, in the working directory


# set-up inputs whose run would write an all-zero arm, leave floating-point
# range or read a malformed file: refused in set-up (exit 3) or by their key
# or file (exit 2)
DEGENERATE_SETUPS = {
    # a mask dark at its pitch: no coherent image for either command to build on
    "grid-32": Setup({"TWMG_GRID__WIDTH": "32", "TWMG_GRID__HEIGHT": "32"}, BOTH, 3,
                     "coherent image: no energy on the 32 x 32 grid"),
    "pitch-1e-30": Setup({"TWMG_GRID__PITCH": "1e-30"}, BOTH, 3,
                         "coherent image: no energy on the 64 x 64 grid"),
    # every mode focuses off the Fourier grid, or every image copy off the
    # image grid
    "fourier_f-1e308": Setup({"TWMG_GEOMETRY__FOURIER_F": "1e308"}, CHAOTIC, 3,
                             "Fourier arm (fourier_bin_index) at fourier_f = 1e+308"),
    "s2-2": Setup({"TWMG_GEOMETRY__S2": "2"}, CHAOTIC, 3, "image arm: every mode copy"),
    "s2-64": Setup({"TWMG_GEOMETRY__S2": "64"}, CHAOTIC, 3, "image arm: every mode copy"),
    "s2-1e3": Setup({"TWMG_GEOMETRY__S2": "1e3"}, CHAOTIC, 3, "image arm: every mode copy"),
    "n1-2": Setup({"TWMG_GEOMETRY__N1": "2"}, CHAOTIC, 3, "image arm: every mode copy"),
    # object or output pitches whose chirps leave float range in the lens transform
    "pitch-1e-308": Setup({"TWMG_GRID__PITCH": "1e-308"}, BOTH, 3,
                          "lens transform (lens_image_2f2f) at object_pitch = 3.33e+299"),
    "n3-1e-308": Setup({"TWMG_GEOMETRY__N3": "1e-308"}, BOTH, 3,
                       "lens transform (lens_image_2f2f) at object_pitch = 2.08e+304"),
    "mask_pitch-1e308": Setup({"TWMG_RUN__MASK_PITCH": "1e308"}, BOTH, 3,
                              "lens transform (lens_image_2f2f) at object_pitch = 1e+308"),
    "mask_pitch-3e-162": Setup({"TWMG_RUN__MASK_PITCH": "3e-162"}, BOTH, 3,
                               "lens transform (lens_image_2f2f) at object_pitch = 3e-162"),
    "mask_pitch-1e-160": Setup({"TWMG_RUN__MASK_PITCH": "1e-160"}, BOTH, 3,
                               "lens transform (lens_image_2f2f) at object_pitch = 1e-160"),
    # a mask that fills the object grid aliases the lens chirp
    "hole_diameter-12e-3": Setup({"TWMG_RUN__HOLE_DIAMETER": "12e-3"}, BOTH, 3,
                                 "lens_image_2f2f input: quadratic phase"),
    # free propagation's transfer phase overflows at a long distance, its
    # band limit divides by zero at a short one, and its field is not finite
    # at an idler wavelength that is subnormal
    "s2-1e308": Setup({"TWMG_GEOMETRY__S2": "1e308"}, BOTH, 3,
                      "free propagation (free_propagate) at distance = 1e+308"),
    "s2-1e-320": Setup({"TWMG_GEOMETRY__S2": "1e-320"}, BOTH, 3,
                       "free propagation (free_propagate) at distance = 1e-320"),
    "n2-1e308": Setup({"TWMG_GEOMETRY__N2": "1e308"}, BOTH, 3,
                      "free propagation (free_propagate) at distance = 0.2, "
                      "wavelength = 1.06e-314"),
    # the auto object pitch lambda3 d / (n3 width pitch) underflows to 0 or
    # overflows to inf
    "pitch-1e308": Setup({"TWMG_GRID__PITCH": "1e308"}, BOTH, 2,
                         "[grid] pitch = 1e308 gives the object pitch (mask_pitch = auto) 0 m"),
    "pitch-1e-320": Setup({"TWMG_GRID__PITCH": "1e-320"}, BOTH, 2,
                          "[grid] pitch = 1e-320 gives the object pitch (mask_pitch = auto) "
                          "inf m"),
    # mode amplitudes whose stack sums of i1^2 overflow, or whose frames underflow
    "amplitude_scale-1e308": Setup({"TWMG_SOURCE__AMPLITUDE_SCALE": "1e308"}, BOTH, 2,
                                   "[source] amplitude_scale = 1e+308 is outside "
                                   "1e-50 <= amplitude_scale <= 1e50"),
    "amplitude_scale-1e-200": Setup({"TWMG_SOURCE__AMPLITUDE_SCALE": "1e-200"}, BOTH, 2,
                                    "[source] amplitude_scale = 1e-200 is outside "
                                    "1e-50 <= amplitude_scale <= 1e50"),
    # a non-finite number, a 1 x 1 grid, and a saturation level that the
    # default bit_depth 0 never clips at
    "angular_spread-nan": Setup({"TWMG_SOURCE__ANGULAR_SPREAD": "nan"}, CHAOTIC, 2,
                                "[source] angular_spread"),
    "width-1": Setup({"TWMG_GRID__WIDTH": "1", "TWMG_GRID__HEIGHT": "1"}, BOTH, 2,
                     "[grid] width"),
    "saturation_level-1": Setup({"TWMG_DETECTOR__SATURATION_LEVEL": "1"}, BOTH, 2,
                                "[detector] saturation_level"),
    # a quantization step more than twice the peak of i2, or of both arms,
    # reads 0 at every pixel of the coherent image and of every shot
    "saturation_level-64": Setup({"TWMG_DETECTOR__SATURATION_LEVEL": "64"}, BOTH, 3,
                                 "[detector] saturation_level = 64, bit_depth = 12",
                                 ini=BINNED_12_BIT),
    "saturation_level-1e3": Setup({"TWMG_DETECTOR__SATURATION_LEVEL": "1e3"}, BOTH, 3,
                                  "[detector] saturation_level = 1000, bit_depth = 12",
                                  ini=BINNED_12_BIT),
    "saturation_level-1e308": Setup({"TWMG_DETECTOR__SATURATION_LEVEL": "1e308"}, BOTH, 3,
                                    "[detector] saturation_level = 1e+308, bit_depth = 12",
                                    ini=BINNED_12_BIT),
    # files: free mode directions, a key set twice, a PGM header that is not numbers
    "fixed_directions-false": Setup(
        {}, CHAOTIC, 2, "fixed_directions",
        ini=SMALL_CFG.replace("n_modes = 20", "n_modes = 20\nfixed_directions = false")),
    "duplicate-key": Setup({}, CHAOTIC, 2, "already exists", ini="[run]\nshots = 12\nshots = 13\n"),
    "mask-header-abc": Setup({}, BOTH, 2, "bad.pgm", ini=SMALL_CFG + "mask = bad.pgm\n",
                             files=(("bad.pgm", b"P5\nabc 64\n255\n"),)),
}


def prepare(case: Setup, directory) -> Path:
    """Write the case's config file and its other files into `directory`;
    the config's path."""
    for name, data in case.files:
        Path(directory, name).write_bytes(data)
    config = Path(directory, "setup.ini")
    config.write_text(case.ini)
    return config


def problems(case: Setup, code: int, err: str, out: Path) -> list[str]:
    """What a refused run did wrong: its exit code, stderr and `--out`."""
    found = []
    if code != case.code:
        found.append(f"exit {code}, not {case.code}")
    if case.text not in err:
        found.append(f"stderr does not name {case.text!r}")
    found += [f"stderr holds a {word}" for word in ("Traceback", "RuntimeWarning") if word in err]
    if out.exists():
        found.append(f"{out} was made")
    return found


def run_script(command: list[str]) -> int:
    """Each case through `command` (a `twmghost` command line) in a scratch
    directory; prints each failure, returns 1 if there is one."""
    failed = 0
    for name, case in DEGENERATE_SETUPS.items():
        for cmd in case.cmds:
            with tempfile.TemporaryDirectory() as tmp:
                config = prepare(case, tmp)
                out = Path(tmp, "out")
                proc = subprocess.run(command + [cmd, "--config", str(config), "--out", str(out)],
                                      cwd=tmp, env={**os.environ, **case.env},
                                      capture_output=True, text=True)
                found = problems(case, proc.returncode, proc.stderr, out)
            print(f"{name} {cmd}: {'; '.join(found) or 'refused'}")
            if found:
                print(proc.stderr, end="")
                failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(run_script(sys.argv[1:] or ["twmghost"]))
