"""Configuration documents: loading, validation, and deterministic output.

A network configuration is a JSON document with a declared schema version.
Strict JSON is parsed by ``orjson``; any other document (NaN or Infinity
literals, a BOM, a malformed one, or one ``orjson`` would read differently)
is parsed by the standard library, so every document gives the values and
errors it always has.  A matrix's cells are type-checked one by one only in
a document holding ``true`` or ``false``; in any other, a ``sum`` per row
rejects a non-number.  Validation reports the path of every offending field
(``banks[2].vol``).  Documents are written by ``orjson``, whose shortest
round-trip floats parse back bit-exactly; JSON has no infinity, so the
commands spell one as the string ``"inf"`` or ``"-inf"``.
:func:`write_doc` streams a document to an open handle one dict entry or
matrix row at a time; :func:`dumps_doc` returns the same text.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from .errors import (MUST_BE_FINITE, ConfigError, ConfigParseError,
                     ConfigValidationError, InvalidValueError,
                     SchemaVersionError, require)
from .network import FinancialNetwork
from .ranking import RankThresholdsPolicy, RankWeights

__all__ = [
    "SCHEMA_VERSION",
    "NetworkConfig",
    "load_config",
    "dumps_doc",
    "write_doc",
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

    names: tuple[str, ...]
    network: FinancialNetwork
    weights: RankWeights
    policy: RankThresholdsPolicy
    psi_cap: float

    def to_network(self) -> FinancialNetwork:
        """The liabilities network of the document."""
        return self.network


# ---------------------------------------------------------------------------
# JSON checks; the domain constructors own every value invariant
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value) -> float:
    # JSON integers are unbounded; one too large for a float reads as +-inf,
    # which the domain's finiteness check then names
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigValidationError(field, message)


def _number(doc: dict, field: str, path: str) -> float:
    value = doc.get(field)
    if type(value) is not float:  # a JSON float needs no check
        _require(field in doc, f"{path}.{field}", "missing")
        _require(_is_number(value), f"{path}.{field}", "must be a number")
    return _float(value)


def _build(doc_path, cls, **fields):
    """``cls(**fields)``, with an invalid value reported at its document path.

    ``doc_path`` maps the field path the constructor names (``vol[2]``) to
    the one in the document (``banks[2].vol``).
    """
    try:
        return cls(**fields)
    except InvalidValueError as exc:
        raise ConfigValidationError(doc_path(exc.field), exc.message) from exc


def _network_path(field: str) -> str:
    # a bank column entry vol[2] is banks[2].vol in the document
    return re.sub(r"^(cash|drift|vol)\[(\d+)\]$", r"banks[\2].\1", field)


def _validate_banks(raw) -> tuple[tuple[str, ...], dict[str, list[float]]]:
    """Bank names and the ``cash``/``drift``/``vol`` columns."""
    _require(isinstance(raw, list) and len(raw) >= 1, "banks",
             "must be a non-empty array")
    names = []
    columns = {"cash": [], "drift": [], "vol": []}
    for k, entry in enumerate(raw):
        path = f"banks[{k}]"
        _require(isinstance(entry, dict), path, "must be an object")
        _require(isinstance(entry.get("name"), str) and entry["name"],
                 f"{path}.name", "must be a non-empty string")
        # documents are UTF-8, which cannot encode a lone surrogate
        _require(not re.search("[\ud800-\udfff]", entry["name"]),
                 f"{path}.name", "must not contain a lone surrogate")
        names.append(entry["name"])
        for field, column in columns.items():
            column.append(_number(entry, field, path))
        if "recovery" in entry:  # ignored, but still checked where present
            value = _number(entry, "recovery", path)
            _require(math.isfinite(value), f"{path}.recovery", MUST_BE_FINITE)
            _require(0 < value < 1, f"{path}.recovery",
                     "must lie strictly inside (0, 1)")
    return tuple(names), columns


def _number_matrix(raw, n: int, path: str, bools: bool) -> np.ndarray:
    """An ``n`` x ``n`` JSON array of numbers as a float array."""
    _require(isinstance(raw, list) and len(raw) == n, path,
             f"must be a {n}x{n} array")
    cells = itertools.chain.from_iterable
    rows = all(isinstance(row, list) and len(row) == n for row in raw)
    try:  # with no bool, which numpy takes, sum raises on any non-number
        numbers = rows and not bools and len(list(map(sum, raw))) == n
    except (TypeError, OverflowError):  # or on an int past float's range
        numbers = False
    if not (numbers or rows and set(map(type, cells(raw))) <= {int, float}):
        # walk the rows to name the first short row or non-number cell
        for i, row in enumerate(raw):
            _require(isinstance(row, list) and len(row) == n,
                     f"{path}[{i}]",
                     f"must have {n} {'entry' if n == 1 else 'entries'}")
            for j, value in enumerate(row):
                _require(_is_number(value), f"{path}[{i}][{j}]",
                         "must be a number")
    try:
        return np.fromiter(cells(raw), float, n * n).reshape(n, n)
    except OverflowError:
        return np.array([[_float(v) for v in row] for row in raw])


def _validate_ranking(raw) -> RankWeights:
    _require(isinstance(raw, dict), "ranking", "must be an object")
    # damping and epsilon are optional; RankWeights holds their defaults
    optional = [field for field in ("damping", "epsilon") if field in raw]
    return _build("ranking.{}".format, RankWeights, **{
        field: _number(raw, field, "ranking")
        for field in ("c_plus", "c_minus", *optional)})


def _validate_policy(raw) -> RankThresholdsPolicy:
    _require(isinstance(raw, dict), "policy", "must be an object")
    kind = raw.get("kind")
    if kind == "uniform":  # a policy without steps; its base is q
        return _build(lambda _: "policy.q", RankThresholdsPolicy,
                      base=_number(raw, "q", "policy"))
    if kind == "rank_thresholds":
        base = _number(raw, "base", "policy")
        steps_raw = raw.get("steps")
        _require(isinstance(steps_raw, list), "policy.steps",
                 "must be an array")
        steps = []
        for k, step in enumerate(steps_raw):
            path = f"policy.steps[{k}]"
            _require(isinstance(step, dict), path, "must be an object")
            steps.append((_number(step, "threshold", path),
                          _number(step, "increment", path)))
        return _build("policy.{}".format, RankThresholdsPolicy,
                      base=base, steps=tuple(steps))
    raise ConfigValidationError(
        "policy.kind", "must be 'uniform' or 'rank_thresholds'")


def _validate_psi_cap(raw) -> float:
    # psi_cap reaches no constructor here, so its invariant lives here
    if raw == "inf":
        return math.inf
    _require(_is_number(raw), "psi_cap",
             "must be a positive number or the string 'inf'")
    value = _float(raw)
    _require(math.isfinite(value), "psi_cap", MUST_BE_FINITE)
    _require(value > 0, "psi_cap", "must be positive")
    return value


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------

def resolve_input_path(path: str | Path) -> Path:
    """Resolve an input path, falling back to the bundled data files.

    A bare file name that does not exist in the working directory but
    matches a bundled fixture (``case_study.json``, ``printed_gd.json``)
    resolves to the copy in the package's ``data`` directory.
    """
    path = Path(path)
    if path.exists():
        return path
    packaged = Path(__file__).parent / "data" / path.name
    if path.name == str(path) and packaged.is_file():
        return packaged
    raise ConfigError(f"input file not found: {path}")


def case_study_path() -> Path:
    """Path of the bundled four-bank example configuration."""
    return resolve_input_path("case_study.json")


def printed_google_path() -> Path:
    """Path of the bundled rounded Google-matrix fixture."""
    return resolve_input_path("printed_gd.json")


# orjson reads an integer literal beyond 64 bits as a float where json reads
# an int, and it builds nested containers by recursing on the C stack, which a
# deep enough document overflows (a 100,000-deep object crashed the process on
# an 8 MiB stack).  A document that may hold either goes to json: one with a
# run of 19 or more digits led by neither a digit nor a '.', or one whose
# count of '[' and '{' bytes, a bound on its depth, exceeds _MAX_OPENERS
_MAX_OPENERS = 10_000
# a digit becomes '0', a '.' stays, and every other byte becomes ' '
_DIGIT_RUNS = bytes(48 if 48 <= c <= 57 else c if c == 46 else 32
                    for c in range(256))
_LONG_INTEGER = b" " + b"0" * 19


def _orjson_reads_as_json(data: bytes) -> bool:
    """Whether ``orjson.loads(data)`` gives what ``json.loads`` would, or
    rejects ``data``."""
    return (data.count(b"[") + data.count(b"{") <= _MAX_OPENERS
            and _LONG_INTEGER not in (b" " + data).translate(_DIGIT_RUNS))


def _read_json(path: str | Path) -> tuple[Path, object, bool]:
    resolved = resolve_input_path(path)
    data = resolved.read_bytes()
    bools = b"true" in data or b"false" in data  # no bool without them
    if _orjson_reads_as_json(data):
        try:
            return resolved, orjson.loads(data), bools
        except orjson.JSONDecodeError:
            pass  # json reads it, or names the fault in its own words
    try:
        return resolved, json.loads(resolved.read_text("utf-8")), bools
    # json stops a deep enough document at the recursion limit
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigParseError(f"{resolved}: {exc}") from exc


def load_config(path: str | Path) -> NetworkConfig:
    """Load and validate a configuration document.

    Raises
    ------
    ConfigParseError
        The file is not UTF-8 or not well-formed JSON.
    SchemaVersionError
        The declared schema version is missing or unsupported.
    ConfigValidationError
        A field violates an invariant; the error names the field path.
    """
    resolved, doc, bools = _read_json(path)
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{resolved}: top level must be an object")

    version = doc.get("schema_version")
    if version is None:
        raise SchemaVersionError("schema_version missing")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION!r}")

    names, columns = _validate_banks(doc.get("banks"))
    liabilities = _number_matrix(doc.get("liabilities"), len(names),
                                 "liabilities", bools)
    _require("growth_rate" in doc and _is_number(doc["growth_rate"]),
             "growth_rate", "must be a number")
    _require("horizon" in doc and _is_number(doc["horizon"]), "horizon",
             "must be a positive number")
    network = _build(_network_path, FinancialNetwork,
                     liabilities=liabilities, **columns,
                     growth_rate=_float(doc["growth_rate"]),
                     horizon=_float(doc["horizon"]))
    weights = _validate_ranking(doc.get("ranking"))
    policy = _validate_policy(doc.get("policy"))
    _require("psi_cap" in doc, "psi_cap", "missing")
    psi_cap = _validate_psi_cap(doc["psi_cap"])
    comment = doc.get("comment")
    _require(comment is None or isinstance(comment, str), "comment",
             "must be a string")

    return NetworkConfig(names=names, network=network, weights=weights,
                         policy=policy, psi_cap=psi_cap)


def load_matrix(path: str | Path, n: int) -> np.ndarray:
    """Load an ``n`` x ``n`` matrix from JSON: a bare 2D array or
    ``{"google": ...}``.

    Every entry must be a finite, strictly positive number.  An error is a
    :class:`ConfigError` that names the file and then the field: the
    0-based cell (``google[1][2]``), the row of the wrong length
    (``google[1]``), or ``google`` for the wrong number of rows.
    """
    resolved, doc, bools = _read_json(path)
    if isinstance(doc, dict):
        doc = doc.get("google")
    try:
        matrix = _number_matrix(doc, n, "google", bools)
        require(np.isfinite(matrix), "google", MUST_BE_FINITE)
        require(matrix > 0, "google", "must be strictly positive")
    except InvalidValueError as exc:
        raise ConfigError(f"{resolved}: {exc}") from exc
    return matrix


# ---------------------------------------------------------------------------
# deterministic document serialization
# ---------------------------------------------------------------------------

# orjson's layout; ndarray.tolist renders the arrays it does not write
# natively, such as a non-contiguous view
_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY


def format_number(value: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly.

    Infinities and NaN read ``inf``, ``-inf`` and ``nan``.
    """
    return "%.17g" % value


def _write_value(value, write, depth: int) -> None:
    """Write orjson's text for ``value`` as it reads ``depth`` levels deep,
    one entry of a non-empty dict or row of a 2-D array at a time."""
    if isinstance(value, dict) and value:
        brackets, items = "{}", ((orjson.dumps(key).decode() + ": ", item)
                                 for key, item in value.items())
    elif isinstance(value, np.ndarray) and value.ndim == 2 and len(value):
        brackets, items = "[]", (("", row) for row in value)
    else:
        # in depth one-item lists, orjson indents it as here; cut them off
        for _ in range(depth):
            value = [value]
        out = orjson.dumps(value, default=np.ndarray.tolist, option=_OPTIONS)
        write(out[depth * (depth + 3):len(out) - depth * (depth + 1)].decode())
        return
    pad = "  " * depth
    lead = brackets[0] + "\n"
    for head, item in items:
        write(lead + pad + "  " + head)
        _write_value(item, write, depth + 1)
        lead = ",\n"
    write("\n" + pad + brackets[1])


def write_doc(doc, handle) -> None:
    """Write ``doc`` to the text ``handle`` as orjson's JSON text, holding
    no more than one dict entry or 2-D array row of it at a time.

    Nesting is indented by two spaces per level and key order is kept, so
    equal inputs give byte-identical text.  Floats are written in shortest
    round-trip form (a ``float32`` in float32's), text as UTF-8, and NaN
    and infinities as ``null``.
    """
    _write_value(doc, handle.write, 0)


def dumps_doc(doc) -> str:
    """The text :func:`write_doc` writes for ``doc``, as one string."""
    out: list[str] = []
    _write_value(doc, out.append, 0)
    return "".join(out)
