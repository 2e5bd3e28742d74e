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
def as_version_1():
    """Copy a stack as version 1 of the same shots: version field 1, no trailer."""
    def copy(path, out):
        header, _ = framestack.read_header(path)
        raw = bytearray(path.read_bytes()[:-header.trailer_bytes])
        raw[4:8] = (1).to_bytes(4, "little")
        out.write_bytes(bytes(raw))
    return copy
