"""Desk-scale simulation of image transfer through a chaotic channel by
three-wave mixing and intensity-correlation reconstruction."""

__version__ = "0.1.0"

from .chaotic_source import ModeSet, SourceSpec, sample_modes
from .framestack import ShotRecord
from .geometry import Direction, InteractionGeometry, WaveVector
from .masks import ObjectMask
from .pipeline import ChaoticExperiment, DetectorSpec, coherent_image
from .propagation import ScalarField
from .statistics import CorrelationMap, correlate, thermal_test

__all__ = [
    "ChaoticExperiment", "CorrelationMap", "DetectorSpec", "Direction",
    "InteractionGeometry", "ModeSet", "ObjectMask",
    "ScalarField", "ShotRecord", "SourceSpec", "WaveVector",
    "coherent_image", "correlate", "sample_modes",
    "thermal_test",
]
