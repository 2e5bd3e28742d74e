"""Run configuration: flat key=value sections, env-var overrides, manifest.

Config files are INI-style (section headers, key = value).  Any key can be
overridden from the environment as TWMG_<SECTION>__<KEY> (upper-case).  A
section, key or TWMG_ variable that names no key of DEFAULTS is an
InvalidSpec, so a typo cannot fall back to a default unnoticed.  The
defaults reproduce the desk-scale apparatus: 1064 nm seed, 532 nm pump,
f = 300 mm imaging lens in a 2f-2f layout, 4 mm crystal, 150 mm Fourier
lens, 256 x 256 detector with 16 um pixels.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, field

from .chaotic_source import SourceSpec
from .errors import InvalidSpec
from .geometry import InteractionGeometry, WaveVector
from .pipeline import DetectorSpec, ObjectMask, object_pitch_for_detector
from . import masks

ENV_PREFIX = "TWMG_"

DEFAULTS = {
    "geometry": {
        "lambda1": "1064e-9", "lambda2": "1064e-9", "lambda3": "532e-9",
        "n1": "1.0", "n2": "1.0", "n3": "1.0",
        "crystal_length": "4e-3",
        "f": "0.3", "d": "0.4", "s2": "0.2", "fourier_f": "0.15",
    },
    "source": {
        "n_modes": "200", "angular_spread": "5e-3", "amplitude_scale": "1.0",
        "fixed_directions": "true", "amplitude_law": "gaussian",
    },
    "detector": {"bit_depth": "0", "saturation_level": "0", "pixel_binning": "1"},
    "grid": {"width": "256", "height": "256", "pitch": "16e-6"},
    "run": {
        "shots": "1000", "master_seed": "12345", "mask": "three-holes",
        "mask_pitch": "auto", "hole_diameter": "256e-6", "hole_spacing": "1.2e-3",
        "coherent_sum": "false",
    },
}

# keys of older configs that no longer reach an output: a file may still set
# them, and they are echoed to the manifest, but nothing reads them
RETIRED = {"geometry": ("d_O", "d_F", "fourier_d"), "run": ("output_dir",)}


@dataclass
class RunConfig:
    geometry: InteractionGeometry
    source: SourceSpec
    detector: DetectorSpec
    width: int
    height: int
    pitch: float
    shots: int
    master_seed: int
    mask_name: str
    mask_pitch: float
    hole_diameter: float
    hole_spacing: float
    coherent_sum: bool
    raw: dict = field(default_factory=dict)

    def load_object_mask(self) -> ObjectMask:
        """The object mask on the width x width grid; a mask file of any
        other size is an InvalidSpec."""
        if self.mask_name == masks.BUILTIN_THREE_HOLES:
            return masks.three_holes(width=self.width, pitch=self.mask_pitch,
                                     hole_diameter=self.hole_diameter,
                                     spacing=self.hole_spacing)
        if not os.path.exists(self.mask_name):
            raise InvalidSpec(f"mask file {self.mask_name!r} does not exist")
        mask = masks.load_mask(self.mask_name, pitch=self.mask_pitch)
        if mask.transmission.shape != (self.width, self.height):
            w, h = mask.transmission.shape
            raise InvalidSpec(f"mask file {self.mask_name!r} is {w} x {h} pixels, the grid "
                              f"is {self.width} x {self.height}")
        return mask


def _check_key(sec: str, key: str) -> None:
    if sec not in DEFAULTS:
        raise InvalidSpec(f"unknown configuration section [{sec}]")
    if key not in DEFAULTS[sec] and key not in RETIRED.get(sec, ()):
        raise InvalidSpec(f"unknown configuration key {key!r} in section [{sec}]")


def _merged(path=None) -> dict:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep keys as written
    cp.read_dict(DEFAULTS)
    if path is not None:
        with open(path) as fh:
            cp.read_file(fh)
    for sec in cp.sections():
        for key in cp[sec]:
            _check_key(sec, key)
    env_keys = {f"{ENV_PREFIX}{sec.upper()}__{key.upper()}": (sec, key)
                for sec in DEFAULTS for key in DEFAULTS[sec]}
    for name, val in os.environ.items():
        if name.startswith(ENV_PREFIX):
            if name not in env_keys:
                raise InvalidSpec(f"environment variable {name} names no configuration key")
            sec, key = env_keys[name]
            cp[sec][key] = val
    return {sec: dict(cp[sec]) for sec in cp.sections()}


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, env vars, and
    explicit overrides {(section, key): value} (applied last)."""
    raw = _merged(path)
    for (sec, key), val in (overrides or {}).items():
        _check_key(sec, key)
        raw[sec][key] = str(val)
    try:
        return _build(raw)
    except (KeyError, ValueError) as exc:
        raise InvalidSpec(f"bad configuration: {exc}") from exc


def _build(raw: dict) -> RunConfig:
    gs = raw["geometry"]
    geom = InteractionGeometry(
        k1=WaveVector(float(gs["lambda1"]), float(gs["n1"])),
        k2=WaveVector(float(gs["lambda2"]), float(gs["n2"])),
        k3=WaveVector(float(gs["lambda3"]), float(gs["n3"])),
        crystal_length=float(gs["crystal_length"]), f=float(gs["f"]), d=float(gs["d"]),
        s2=float(gs["s2"]), lens_fourier_f=float(gs["fourier_f"]))
    ss = raw["source"]
    source = SourceSpec(n_modes=int(ss["n_modes"]),
                        angular_spread=float(ss["angular_spread"]),
                        amplitude_scale=float(ss["amplitude_scale"]),
                        fixed_directions=_bool(ss["fixed_directions"]),
                        amplitude_law=ss["amplitude_law"])
    ds = raw["detector"]
    det = DetectorSpec(bit_depth=int(ds["bit_depth"]),
                       saturation_level=float(ds["saturation_level"]),
                       pixel_binning=int(ds["pixel_binning"]))
    grid = raw["grid"]
    width, height, pitch = int(grid["width"]), int(grid["height"]), float(grid["pitch"])
    if height != width:
        raise InvalidSpec(f"grid height {height} != width {width}: only square grids "
                          "are supported")
    if det.pixel_binning > width:
        raise InvalidSpec(f"[detector] pixel_binning = {det.pixel_binning} is larger than "
                          f"the {width}-pixel grid: the binned frames would be empty")
    rs = raw["run"]
    shots, seed = int(rs["shots"]), int(rs["master_seed"])
    # the ranges of the stack header's u32 shot count and u64 seed
    if not 1 <= shots < 2 ** 32:
        raise InvalidSpec(f"[run] shots = {shots} is outside 1 <= shots < 2**32")
    if not 0 <= seed < 2 ** 64:
        raise InvalidSpec(f"[run] master_seed = {seed} is outside 0 <= master_seed < 2**64")
    mask_pitch = rs["mask_pitch"]
    if mask_pitch == "auto":
        mp = object_pitch_for_detector(geom, width, pitch)
    else:
        mp = float(mask_pitch)
        if mp <= 0:
            raise InvalidSpec("mask_pitch must be positive")
    return RunConfig(geometry=geom, source=source, detector=det,
                     width=width, height=height, pitch=pitch,
                     shots=shots, master_seed=seed,
                     mask_name=rs["mask"], mask_pitch=mp,
                     hole_diameter=float(rs["hole_diameter"]),
                     hole_spacing=float(rs["hole_spacing"]),
                     coherent_sum=_bool(rs["coherent_sum"]), raw=raw)


def _bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def manifest_text(cfg: RunConfig, code_version: str, rng_algorithm: str) -> str:
    """Full config echo; a run is replayable from this text alone."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_dict(cfg.raw)
    buf = io.StringIO()
    buf.write(f"# twmghost run manifest\n# code_version = {code_version}\n"
              f"# rng_algorithm = {rng_algorithm}\n")
    cp.write(buf)
    return buf.getvalue()
