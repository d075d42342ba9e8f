"""Exception types shared across the toolkit.

Each class carries the command-line exit code it ends in: 1 for a bad
configuration value or invocation, 2 for bad data, 3 for numeric divergence.
"""


class EvsynthError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class ConfigError(EvsynthError, ValueError):
    """Invalid configuration value or command-line usage."""

    exit_code = 1


class FormatError(EvsynthError):
    """File does not match its declared format (magic, version, truncation)."""


class RangeError(EvsynthError):
    """Value falls outside its admissible range (coords, timestamps)."""


class CollisionError(EvsynthError):
    """Two sparse records map to the same (pixel, timestep) cell."""


class ShapeError(EvsynthError):
    """Arrays whose ranks, shapes or lengths must agree do not."""


class DivergenceError(EvsynthError):
    """Training produced a non-finite loss or weight."""

    exit_code = 3
