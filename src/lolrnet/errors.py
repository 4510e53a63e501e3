"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np

__all__ = [
    "LolrnetError",
    "ConfigError",
    "ConfigParseError",
    "SchemaVersionError",
    "ConfigValidationError",
    "ConvergenceError",
    "DegenerateNetworkError",
]


class LolrnetError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(LolrnetError, ValueError):
    """Base class for configuration document errors."""


class ConfigParseError(ConfigError):
    """The configuration file is not a well-formed document."""


class SchemaVersionError(ConfigError):
    """The configuration declares an unsupported schema version."""


class ConfigValidationError(ConfigError):
    """A configuration value violates an invariant.

    ``field`` holds the path of the offending entry, e.g. ``banks[2].vol``.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ConvergenceError(LolrnetError, RuntimeError):
    """An iterative solver hit its iteration limit.

    Carries the last iterate and the fixed-point (or eigen) residual so
    callers can inspect how close the run got.
    """

    def __init__(self, message: str, last_iterate: np.ndarray, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.last_iterate = last_iterate
        self.residual = residual


class DegenerateNetworkError(LolrnetError, ValueError):
    """A vertex cannot be rank-normalized because its weight degree is zero."""

    def __init__(self, vertex: int, message: str | None = None):
        super().__init__(
            message or f"bank {vertex} (0-based index) has zero outgoing rank "
            "weight; use a positive epsilon regularizer or different weight "
            "coefficients"
        )
        self.vertex = vertex
