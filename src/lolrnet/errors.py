"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np

__all__ = [
    "LolrnetError",
    "InvalidValueError",
    "ConfigError",
    "ConfigParseError",
    "SchemaVersionError",
    "ConfigValidationError",
    "ConvergenceError",
    "DegenerateNetworkError",
]


class LolrnetError(Exception):
    """Base class for errors raised by this package."""


MUST_BE_FINITE = "must be a finite number"


class InvalidValueError(LolrnetError, ValueError):
    """A value breaks an invariant of the object it describes.

    ``field`` is the entry's path within that object, e.g. ``vol[2]``,
    ``liabilities[0][3]`` or ``steps[1].increment``; ``message`` says why.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def is_int(value) -> bool:
    """True for a Python or numpy integer; False for bool, float and NaN."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require(ok, field: str, message: str) -> None:
    """Raise :class:`InvalidValueError` unless ``ok`` holds everywhere.

    ``ok`` is a bool or a bool array; for an array the index of its first
    false entry is appended to ``field`` (``vol`` -> ``vol[2]``).  NaN
    compares false, so a range mask such as ``vol > 0`` rejects NaN too.
    """
    if isinstance(ok, np.ndarray):
        if ok.all():
            return
        index = np.unravel_index(np.argmin(ok), ok.shape)
        field += "".join(f"[{k}]" for k in index)
    elif ok:
        return
    raise InvalidValueError(field, message)


class ConfigError(LolrnetError, ValueError):
    """Base class for configuration document errors."""


class ConfigParseError(ConfigError):
    """The configuration file is not a well-formed document."""


class SchemaVersionError(ConfigError):
    """The configuration declares an unsupported schema version."""


class ConfigValidationError(ConfigError, InvalidValueError):
    """A configuration value violates an invariant.

    ``field`` holds the path of the offending entry in the document, e.g.
    ``banks[2].vol``.
    """


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
