"""Exception and warning types shared across the package."""


class TwmError(Exception):
    """Base class for all errors raised by twmghost."""


class DegenerateGeometry(TwmError):
    """Beam pair is (numerically) counter-propagating; bisector undefined."""


class GeometryError(TwmError):
    """Interaction geometry violates a construction invariant."""


class InvalidSpec(TwmError):
    """A source / run specification is out of its valid range."""


class SamplingViolation(TwmError):
    """A field is too coarsely sampled for the requested transform."""


class ShapeMismatch(TwmError):
    """Arrays in an ensemble do not share a common shape."""


class EmptyEnsemble(TwmError):
    """An estimator was given fewer shots than it needs."""


class InsufficientSamples(TwmError):
    """A statistical test was given too few samples, or samples it cannot use."""


class UnreadableFile(TwmError):
    """A file could not be opened or parsed at all."""


class UnsupportedFormat(TwmError):
    """A file parsed, but is not in a supported format/variant."""


class CorruptStack(TwmError):
    """A frame-stack file failed header or size validation."""


class ImageClipped(UserWarning):
    """Mode copies of the image were shifted partly or wholly off the grid."""
