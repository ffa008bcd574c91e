"""Exception types shared across the package."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(EngineError):
    """Malformed domain object or argument."""


class DisjointClassError(EngineError):
    """New classes overlap with classes registered in an earlier session."""


class MissingExampleError(EngineError):
    """A class that must provide examples has none."""


class DimensionMismatchError(EngineError):
    """Operands disagree on vector or matrix dimensions."""


class DegenerateBasisError(EngineError):
    """Basis extraction received no usable directions."""


class MissingSnapshotError(EngineError):
    """An old class has no row in the anchor table."""


class MissingTargetError(EngineError):
    """A novel class lacks its regularization target."""


class MissingEmbeddingError(EngineError):
    """A class needed by a semantic computation has no embedding."""


class DivergenceError(EngineError):
    """Training produced a non-finite loss."""


class ConfigError(EngineError):
    """Invalid run configuration or config file."""


class FormatError(EngineError):
    """Unreadable or mis-versioned data file."""
