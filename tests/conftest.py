import struct

import numpy as np
import pytest

from twmghost import framestack
from twmghost.config import load_config


@pytest.fixture(scope="session")
def cfg():
    """Default run configuration (collinear degenerate geometry, 256x256 grid)."""
    return load_config()


@pytest.fixture(scope="session")
def geometry(cfg):
    return cfg.geometry


@pytest.fixture(scope="session")
def mask(cfg):
    return cfg.load_object_mask()


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def stack_header():
    """Stack header bytes packed by hand from the layout in the framestack docstring."""
    def pack(width, height, n_shots=1, version=framestack.VERSION, name=b"x"):
        return struct.pack("<4sIIIIQI", b"TWMG", version, width, height, n_shots, 0,
                           len(name)) + name
    return pack
