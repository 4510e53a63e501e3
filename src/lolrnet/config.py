"""Configuration documents: loading, validation, and deterministic output.

A network configuration is a JSON document with a declared schema version.
Validation reports the path of every offending field (``banks[2].vol``).
Serialization writes floats with 17 significant digits so that documents
round-trip bit-exactly; infinities appear as the strings ``"inf"`` and
``"-inf"`` because JSON has no literal for them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (ConfigError, ConfigParseError, ConfigValidationError,
                     SchemaVersionError)
from .network import FinancialNetwork
from .ranking import (DEFAULT_DAMPING, QPolicy, RankThresholdsPolicy,
                      RankWeights, UniformPolicy)

__all__ = [
    "SCHEMA_VERSION",
    "NetworkConfig",
    "load_config",
    "dumps_doc",
    "format_number",
    "load_matrix",
    "case_study_path",
    "printed_google_path",
    "resolve_input_path",
]

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# document model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkConfig:
    """Validated configuration document, held as the objects the commands use.

    ``names`` lists the bank names in index order; ``network``, ``weights``
    and ``policy`` are the liabilities network, the rank coefficients and the
    survival-target policy the document describes.
    """

    schema_version: str
    names: tuple[str, ...]
    network: FinancialNetwork
    weights: RankWeights
    policy: QPolicy
    psi_cap: float
    comment: str | None = None

    def to_network(self) -> FinancialNetwork:
        """The liabilities network of the document."""
        return self.network


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # JSON integers are unbounded; one too large for a float is not finite
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigValidationError(field, message)


def _number(doc: dict, field: str, path: str,
            default: float | None = None) -> float:
    if field not in doc and default is not None:
        return default
    _require(field in doc, f"{path}.{field}", "missing")
    _require(_is_number(doc[field]), f"{path}.{field}", "must be a number")
    _require(_is_finite(doc[field]), f"{path}.{field}",
             "must be a finite number")
    return float(doc[field])


def _validate_banks(raw) -> tuple[tuple[str, ...], dict[str, list[float]]]:
    """Bank names and the ``cash``/``drift``/``vol``/``recovery`` columns."""
    _require(isinstance(raw, list) and len(raw) >= 1, "banks",
             "must be a non-empty array")
    names = []
    columns = {"cash": [], "drift": [], "vol": [], "recovery": []}
    for k, entry in enumerate(raw):
        path = f"banks[{k}]"
        _require(isinstance(entry, dict), path, "must be an object")
        _require(isinstance(entry.get("name"), str) and entry["name"],
                 f"{path}.name", "must be a non-empty string")
        cash = _number(entry, "cash", path)
        drift = _number(entry, "drift", path)
        vol = _number(entry, "vol", path)
        recovery = _number(entry, "recovery", path)
        _require(cash >= 0, f"{path}.cash", "must be non-negative")
        _require(vol > 0, f"{path}.vol", "must be strictly positive")
        _require(0 < recovery < 1, f"{path}.recovery",
                 "must lie strictly inside (0, 1)")
        names.append(entry["name"])
        for field, value in zip(columns, (cash, drift, vol, recovery)):
            columns[field].append(value)
    return tuple(names), columns


def _validate_liabilities(raw, n: int) -> np.ndarray:
    _require(isinstance(raw, list) and len(raw) == n, "liabilities",
             f"must be a {n}x{n} array")
    matrix = _liabilities_array(raw, n)
    if matrix is not None:
        return matrix
    # the per-entry loop names the first offending cell
    rows = []
    for i, row in enumerate(raw):
        _require(isinstance(row, list) and len(row) == n,
                 f"liabilities[{i}]", f"must have {n} entries")
        for j, value in enumerate(row):
            _require(_is_number(value), f"liabilities[{i}][{j}]",
                     "must be a number")
            _require(_is_finite(value), f"liabilities[{i}][{j}]",
                     "must be a finite number")
            _require(value >= 0, f"liabilities[{i}][{j}]",
                     "must be non-negative")
            if i == j:
                _require(value == 0, f"liabilities[{i}][{j}]",
                         "diagonal must be zero")
        rows.append([float(v) for v in row])
    return np.array(rows)


def _liabilities_array(raw: list, n: int) -> np.ndarray | None:
    """The liabilities as one float array, or None if any check fails.

    Applies only to a square matrix of plain ints and floats, so a
    conversion never coerces a bool or a string.
    """
    if not all(isinstance(row, list) and len(row) == n
               and set(map(type, row)) <= {int, float} for row in raw):
        return None
    try:
        matrix = np.array(raw, dtype=float)
    except OverflowError:
        return None
    if not (np.isfinite(matrix).all() and (matrix >= 0).all()
            and (np.diagonal(matrix) == 0).all()):
        return None
    return matrix


def _validate_ranking(raw) -> RankWeights:
    _require(isinstance(raw, dict), "ranking", "must be an object")
    c_plus = _number(raw, "c_plus", "ranking")
    c_minus = _number(raw, "c_minus", "ranking")
    damping = _number(raw, "damping", "ranking", default=DEFAULT_DAMPING)
    epsilon = _number(raw, "epsilon", "ranking", default=0.0)
    _require(c_plus >= 0, "ranking.c_plus", "must be non-negative")
    _require(c_minus >= 0, "ranking.c_minus", "must be non-negative")
    _require(abs(c_plus + c_minus - 1.0) <= 1e-12, "ranking.c_minus",
             "c_plus + c_minus must equal 1")
    _require(0 < damping < 1, "ranking.damping",
             "must lie strictly inside (0, 1)")
    _require(epsilon >= 0, "ranking.epsilon", "must be non-negative")
    return RankWeights(c_plus=c_plus, c_minus=c_minus, damping=damping,
                       epsilon=epsilon)


def _validate_policy(raw) -> QPolicy:
    _require(isinstance(raw, dict), "policy", "must be an object")
    kind = raw.get("kind")
    if kind == "uniform":
        q = _number(raw, "q", "policy")
        _require(0 <= q < 1, "policy.q", "must lie in [0, 1)")
        return UniformPolicy(q=q)
    if kind == "rank_thresholds":
        base = _number(raw, "base", "policy")
        _require(0 <= base < 1, "policy.base", "must lie in [0, 1)")
        steps_raw = raw.get("steps")
        _require(isinstance(steps_raw, list), "policy.steps",
                 "must be an array")
        steps = []
        total = base
        previous = -math.inf
        for k, step in enumerate(steps_raw):
            path = f"policy.steps[{k}]"
            _require(isinstance(step, dict), path, "must be an object")
            threshold = _number(step, "threshold", path)
            increment = _number(step, "increment", path)
            _require(threshold > previous, f"{path}.threshold",
                     "thresholds must be strictly ascending")
            _require(increment >= 0, f"{path}.increment",
                     "must be non-negative")
            previous = threshold
            total += increment
            steps.append((threshold, increment))
        _require(total < 1, "policy.steps",
                 "base plus all increments must stay below 1")
        return RankThresholdsPolicy(base=base, steps=tuple(steps))
    raise ConfigValidationError(
        "policy.kind", "must be 'uniform' or 'rank_thresholds'")


def _validate_psi_cap(raw) -> float:
    if raw == "inf":
        return math.inf
    _require(_is_number(raw), "psi_cap",
             "must be a positive number or the string 'inf'")
    _require(_is_finite(raw), "psi_cap", "must be a finite number")
    _require(raw > 0, "psi_cap", "must be positive")
    return float(raw)


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------

def _packaged(name: str) -> Path | None:
    candidate = resources.files("lolrnet").joinpath("data", name)
    return Path(str(candidate)) if candidate.is_file() else None


def resolve_input_path(path: str | Path) -> Path:
    """Resolve an input path, falling back to the bundled data files.

    A bare file name that does not exist in the working directory but
    matches a bundled fixture (``case_study.json``, ``printed_gd.json``)
    resolves to the packaged copy.
    """
    path = Path(path)
    if path.exists():
        return path
    if path.name == str(path):
        packaged = _packaged(path.name)
        if packaged is not None:
            return packaged
    raise ConfigError(f"input file not found: {path}")


def case_study_path() -> Path:
    """Path of the bundled four-bank example configuration."""
    return resolve_input_path("case_study.json")


def printed_google_path() -> Path:
    """Path of the bundled rounded Google-matrix fixture."""
    return resolve_input_path("printed_gd.json")


def load_config(path: str | Path) -> NetworkConfig:
    """Load and validate a configuration document.

    Raises
    ------
    ConfigParseError
        The file is not well-formed JSON.
    SchemaVersionError
        The declared schema version is missing or unsupported.
    ConfigValidationError
        A field violates an invariant; the error names the field path.
    """
    resolved = resolve_input_path(path)
    text = resolved.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{resolved}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{resolved}: top level must be an object")

    version = doc.get("schema_version")
    if version is None:
        raise SchemaVersionError("schema_version missing")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION!r}")

    names, columns = _validate_banks(doc.get("banks"))
    liabilities = _validate_liabilities(doc.get("liabilities"), len(names))
    _require("growth_rate" in doc and _is_number(doc["growth_rate"]),
             "growth_rate", "must be a number")
    _require(_is_finite(doc["growth_rate"]), "growth_rate",
             "must be a finite number")
    _require("horizon" in doc and _is_number(doc["horizon"]), "horizon",
             "must be a positive number")
    _require(_is_finite(doc["horizon"]), "horizon", "must be a finite number")
    _require(doc["horizon"] > 0, "horizon", "must be a positive number")
    weights = _validate_ranking(doc.get("ranking"))
    policy = _validate_policy(doc.get("policy"))
    _require("psi_cap" in doc, "psi_cap", "missing")
    psi_cap = _validate_psi_cap(doc["psi_cap"])
    comment = doc.get("comment")
    if comment is not None:
        _require(isinstance(comment, str), "comment", "must be a string")

    network = FinancialNetwork(liabilities=liabilities, **columns,
                               growth_rate=doc["growth_rate"],
                               horizon=doc["horizon"])
    return NetworkConfig(schema_version=version, names=names,
                         network=network, weights=weights, policy=policy,
                         psi_cap=psi_cap, comment=comment)


def load_matrix(path: str | Path) -> np.ndarray:
    """Load a square matrix from JSON: a bare 2D array or ``{"google": ...}``."""
    resolved = resolve_input_path(path)
    try:
        doc = json.loads(resolved.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{resolved}: {exc}") from exc
    if isinstance(doc, dict):
        doc = doc.get("google")
    matrix = np.asarray(doc, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ConfigError(f"{resolved}: expected a square matrix")
    return matrix


# ---------------------------------------------------------------------------
# deterministic document serialization
# ---------------------------------------------------------------------------

def format_number(value: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.17g}"


def _write_value(value, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, item) in enumerate(value.items()):
            out.append(f"{pad}{json.dumps(key)}: ")
            _write_value(item, out, indent, level + 1)
            out.append(",\n" if k < len(value) - 1 else "\n")
        out.append(f"{close_pad}}}")
    elif (isinstance(value, np.ndarray) and value.ndim == 1 and value.size
          and value.dtype == np.float64 and np.isfinite(value).all()):
        # one %-format for the whole row; "%.17g" is format_number's text
        # for every finite float
        sep = f",\n{pad}"
        template = f"[\n{pad}" + sep.join(["%.17g"] * value.size) \
            + f"\n{close_pad}]"
        out.append(template % tuple(value.tolist()))
    elif isinstance(value, (list, tuple, np.ndarray)):
        if isinstance(value, np.ndarray):
            # a matrix recurses row by row so each row can take the path above
            items = list(value) if value.ndim > 1 else value.tolist()
        else:
            items = list(value)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for k, item in enumerate(items):
            out.append(pad)
            _write_value(item, out, indent, level + 1)
            out.append(",\n" if k < len(items) - 1 else "\n")
        out.append(f"{close_pad}]")
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            out.append("null")
        elif math.isinf(value):
            out.append(json.dumps(format_number(value)))
        else:
            out.append(format_number(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_doc(doc, indent: int = 2) -> str:
    """Serialize to JSON text with deterministic float formatting.

    Finite floats use 17 significant digits; infinities become the strings
    ``"inf"`` / ``"-inf"``.  Key order is preserved, so equal inputs always
    produce byte-identical text.
    """
    out: list[str] = []
    _write_value(doc, out, indent, 0)
    return "".join(out)
