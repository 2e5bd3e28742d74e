"""Exception and warning types shared across the package."""


class TwmError(Exception):
    """Base class for all errors raised by twmghost."""


class DegenerateGeometry(TwmError):
    """Beam pair is (numerically) counter-propagating; bisector undefined."""


class InvalidSpec(TwmError):
    """A source, geometry or run specification, or a file it names, is invalid."""


class SamplingViolation(TwmError):
    """A field is too coarsely sampled for the requested transform, or a
    set-up stage left floating-point range."""


class NonFiniteField(SamplingViolation):
    """A field holds a NaN or infinite sample."""


class ShapeMismatch(TwmError):
    """Arrays in an ensemble do not share a common shape."""


class InsufficientSamples(TwmError):
    """An estimator or statistical test was given fewer shots or samples than
    it needs, or samples it cannot use."""


class CorruptStack(TwmError):
    """A frame-stack file failed header or size validation."""


class ImageClipped(UserWarning):
    """Mode copies of the image were shifted partly or wholly off the grid."""


class ModesOffGrid(UserWarning):
    """Seed modes focus off the Fourier-plane grid: the reference arm i1
    misses their intensity, which still reaches the image arm i2."""
