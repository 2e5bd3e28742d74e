"""Desk-scale simulation of image transfer through a chaotic channel by
three-wave mixing and intensity-correlation reconstruction.

The public names below are imported on first use (PEP 562), so that
`import twmghost` and the stack-reading CLI commands do not load the
simulator.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "ModeSet": "chaotic_source", "SourceSpec": "chaotic_source",
    "sample_modes": "chaotic_source",
    "ShotRecord": "framestack",
    "InteractionGeometry": "geometry", "WaveVector": "geometry",
    "ObjectMask": "masks",
    "ChaoticExperiment": "pipeline", "DetectorSpec": "pipeline", "coherent_image": "pipeline",
    "ScalarField": "propagation",
    "CorrelationMap": "statistics", "correlate": "statistics", "thermal_test": "statistics",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
