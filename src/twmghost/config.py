"""Run configuration: flat key=value sections, env-var overrides, manifest.

Config files are INI-style (section headers, key = value).  Any key can be
overridden from the environment as TWMG_<SECTION>__<KEY> (upper-case).  A
section, key or TWMG_ variable that names no key of DEFAULTS is an
InvalidSpec, so a typo cannot fall back to a default unnoticed.  Values
are taken verbatim: a `%` is an ordinary character.  The
defaults reproduce the desk-scale apparatus: 1064 nm seed, 532 nm pump,
f = 300 mm imaging lens in a 2f-2f layout, 4 mm crystal, 150 mm Fourier
lens, 256 x 256 detector with 16 um pixels.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass, field

from .chaotic_source import SourceSpec
from .errors import InvalidSpec
from .geometry import InteractionGeometry, WaveVector
from .pipeline import DetectorSpec, object_pitch_for_detector
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
        "amplitude_law": "gaussian",
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
# them, and they are echoed to the manifest, but nothing reads them, except
# that mode directions are always fixed, so fixed_directions must be true
RETIRED = {"geometry": ("d_O", "d_F", "fourier_d"), "source": ("fixed_directions",),
           "run": ("output_dir",)}


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

    def load_object_mask(self) -> masks.ObjectMask:
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
    cp = configparser.ConfigParser(interpolation=None)  # values are taken verbatim
    cp.optionxform = str  # keep keys as written
    cp.read_dict(DEFAULTS)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                cp.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise InvalidSpec(f"config file {str(path)!r} is not a valid INI file: "
                              f"{exc}") from None
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


def _float(raw: dict, sec: str, key: str, positive: bool = False) -> float:
    """raw[sec][key] as a finite float, > 0 if `positive`, else an
    InvalidSpec naming the key."""
    text = raw[sec][key]
    try:
        value = float(text)
    except ValueError:
        raise InvalidSpec(f"[{sec}] {key} = {text!r} is not a number") from None
    if not math.isfinite(value):
        raise InvalidSpec(f"[{sec}] {key} = {text} is not finite")
    if positive and not value > 0:
        raise InvalidSpec(f"[{sec}] {key} = {text} must be > 0")
    return value


def _int(raw: dict, sec: str, key: str) -> int:
    """raw[sec][key] as an integer, else an InvalidSpec naming the key."""
    text = raw[sec][key]
    try:
        return int(text)
    except ValueError:
        raise InvalidSpec(f"[{sec}] {key} = {text!r} is not an integer") from None


def _bool(raw: dict, sec: str, key: str) -> bool:
    """raw[sec][key] as a boolean, else an InvalidSpec naming the key."""
    text = raw[sec][key]
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise InvalidSpec(f"[{sec}] {key} = {text!r} is not a boolean")


def _spec(sec: str, cls, *args, **kwargs):
    """cls(*args, **kwargs), its InvalidSpec named by the section: the
    specs' errors start with the key they refuse."""
    try:
        return cls(*args, **kwargs)
    except InvalidSpec as exc:
        raise InvalidSpec(f"[{sec}] {exc}") from None


def _build(raw: dict) -> RunConfig:
    geom = InteractionGeometry(
        k1=WaveVector(_float(raw, "geometry", "lambda1"), _float(raw, "geometry", "n1")),
        k2=WaveVector(_float(raw, "geometry", "lambda2"), _float(raw, "geometry", "n2")),
        k3=WaveVector(_float(raw, "geometry", "lambda3"), _float(raw, "geometry", "n3")),
        crystal_length=_float(raw, "geometry", "crystal_length"),
        f=_float(raw, "geometry", "f"), d=_float(raw, "geometry", "d"),
        s2=_float(raw, "geometry", "s2"), lens_fourier_f=_float(raw, "geometry", "fourier_f"))
    source = _spec("source", SourceSpec, n_modes=_int(raw, "source", "n_modes"),
                   angular_spread=_float(raw, "source", "angular_spread"),
                   amplitude_scale=_float(raw, "source", "amplitude_scale"),
                   amplitude_law=raw["source"]["amplitude_law"])
    if "fixed_directions" in raw["source"] and not _bool(raw, "source", "fixed_directions"):
        raise InvalidSpec(f"[source] fixed_directions = {raw['source']['fixed_directions']} "
                          "is not supported: mode directions are always fixed")
    det = _spec("detector", DetectorSpec, _int(raw, "detector", "bit_depth"),
                _float(raw, "detector", "saturation_level"),
                _int(raw, "detector", "pixel_binning"))
    width, height = _int(raw, "grid", "width"), _int(raw, "grid", "height")
    pitch = _float(raw, "grid", "pitch", positive=True)
    if height != width:
        raise InvalidSpec(f"grid height {height} != width {width}: only square grids "
                          "are supported")
    # the lens transform and free propagation run FFTs of power-of-two sides
    if width < 2 or width & (width - 1):
        raise InvalidSpec(f"[grid] width = {width} is not a power of two of at least 2")
    if det.pixel_binning > width:
        raise InvalidSpec(f"[detector] pixel_binning = {det.pixel_binning} is larger than "
                          f"the {width}-pixel grid: the binned frames would be empty")
    rs = raw["run"]
    shots, seed = _int(raw, "run", "shots"), _int(raw, "run", "master_seed")
    # the ranges of the stack header's u32 shot count and u64 seed
    if not 1 <= shots < 2 ** 32:
        raise InvalidSpec(f"[run] shots = {shots} is outside 1 <= shots < 2**32")
    if not 0 <= seed < 2 ** 64:
        raise InvalidSpec(f"[run] master_seed = {seed} is outside 0 <= master_seed < 2**64")
    if rs["mask_pitch"] == "auto":
        mp = object_pitch_for_detector(geom, width, pitch)
        # lambda3 d / (n3 width pitch) underflows to 0 or overflows to inf
        # at a pitch far enough from the detector's scale
        if not 0 < mp < math.inf:
            raise InvalidSpec(f"[grid] pitch = {raw['grid']['pitch']} gives the object pitch "
                              f"(mask_pitch = auto) {mp:.3g} m, outside floating-point range")
    else:
        mp = _float(raw, "run", "mask_pitch", positive=True)
    return RunConfig(geometry=geom, source=source, detector=det,
                     width=width, height=height, pitch=pitch,
                     shots=shots, master_seed=seed,
                     mask_name=rs["mask"], mask_pitch=mp,
                     hole_diameter=_float(raw, "run", "hole_diameter", positive=True),
                     hole_spacing=_float(raw, "run", "hole_spacing", positive=True),
                     coherent_sum=_bool(raw, "run", "coherent_sum"), raw=raw)


def manifest_text(cfg: RunConfig, code_version: str, rng_algorithm: str) -> str:
    """Full config echo; a run is replayable from this text alone."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_dict(cfg.raw)
    buf = io.StringIO()
    buf.write(f"# twmghost run manifest\n# code_version = {code_version}\n"
              f"# rng_algorithm = {rng_algorithm}\n")
    cp.write(buf)
    return buf.getvalue()
