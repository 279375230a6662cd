"""Conjunction file ingestion, config parsing, and deterministic output.

The content selects the input format: JSON when its first non-whitespace
character is ``{`` or ``[``, KVN otherwise. Both formats parse to one
record: the joint state 12-vector (object 1 position and velocity, then
object 2's), the two hard-body radii and the 12x12 covariance of that
vector. The JSON format carries either that covariance row-major
(``cov12_row_major``) or per-object 6x6 blocks (``object1_cov6``,
``object2_cov6``) with an optional 6x6 ``cross6`` block, whose transpose
fills the lower-left corner. The KVN format is a deliberately minimal,
line-oriented ``KEY = VALUE [unit]`` subset inspired by conjunction data
messages: per-object state, radius, and lower-triangle 6x6 covariance keys,
where the conventional R/T/N axis labels are read as the fixed x/y/z axes
of this package (no frame transformation is applied, and no standard
conformance is claimed). A missing cross covariance, always the case for
KVN files, defaults to zero with a recorded warning. JSON ``metadata``
(strings to strings) and KVN ``COMMENT`` lines are accepted and ignored.
Either parser rejects a radius that is not finite and positive. Input
bytes, of conjunction and config files alike, are read as UTF-8 with an
optional byte-order mark.

All output is byte-deterministic: UTF-8, LF line endings, ``.`` decimal
separator, and fixed significant-digit formatting. ``json_text`` writes the
bytes of ``json.dumps(doc, sort_keys=True, indent=2)`` without that
encoder's pure-Python loop, a float matrix with one format; ``csv_text``
writes a row of floats alone with one ``%`` format.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError, ParseError
from .geometry import JointState

ENV_CONFIG = "CONJRISK_CONFIG"

_AXIS_LABELS = ("R", "T", "N", "RDOT", "TDOT", "NDOT")
_STATE_SUFFIXES = ("X", "Y", "Z", "X_DOT", "Y_DOT", "Z_DOT")
_NO_CROSS = "cross-covariance missing, defaulting to zero"


def _kvn_tables():
    """The expected unit of each KVN key, in one fixed order, and where the
    values in that order (and a trailing zero) go in ``theta_hat`` and in
    ``cov12``."""
    units: dict[str, str] = {}
    theta_at: list[int] = []
    cov_at = np.full((12, 12), -1)  # the trailing zero: no cross covariance
    for offset, obj in ((0, "OBJECT1"), (6, "OBJECT2")):
        for idx, suffix in enumerate(_STATE_SUFFIXES):
            theta_at.append(len(units))
            units[f"{obj}_{suffix}"] = "m" if idx < 3 else "m/s"
        units[f"{obj}_RADIUS"] = "m"
        for i in range(6):
            for j in range(i + 1):
                cov_at[offset + i, offset + j] = cov_at[offset + j, offset + i] = len(units)
                units[f"{obj}_C{_AXIS_LABELS[i]}_{_AXIS_LABELS[j]}"] = (
                    "m**2" if i < 3 else "m**2/s" if j < 3 else "m**2/s**2"
                )
    return units, np.array(theta_at), cov_at


_KVN_UNITS, _KVN_THETA_AT, _KVN_COV_AT = _kvn_tables()


@dataclass(frozen=True, eq=False)
class ConjunctionFile:
    """Parsed conjunction file: the joint state 12-vector ``theta_hat``
    (object 1 position and velocity, then object 2's), its 12x12
    covariance ``cov12`` and the hard-body radii ``r1`` and ``r2``.
    ``warnings`` records parse-time defaults such as a missing cross
    covariance.
    """

    theta_hat: np.ndarray
    cov12: np.ndarray
    r1: float
    r2: float
    warnings: tuple[str, ...] = ()

    def to_joint_state(self) -> JointState:
        return JointState(
            theta_hat=self.theta_hat, c_theta=self.cov12, r1=self.r1, r2=self.r2
        )


def _decode(data: bytes) -> str:
    """File bytes as text: UTF-8, a leading byte-order mark dropped."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None


def parse_conjunction(data: bytes | str) -> ConjunctionFile:
    """Parse conjunction file content (UTF-8 bytes or text): JSON if its
    first non-whitespace character is ``{`` or ``[``, KVN otherwise."""
    text = _decode(data) if isinstance(data, bytes) else data
    if text.lstrip()[:1] in ("{", "["):
        return _parse_json(text)
    return _parse_kvn(text)


# -- JSON ------------------------------------------------------------------

def _json_floats(value, path: str) -> np.ndarray:
    """JSON numbers as floats; an integer beyond the float range is an error."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ParseError(f"field {path} holds a number too large for a float") from None


def _json_vector(obj: dict, key: str, length: int, path: str) -> np.ndarray:
    if key not in obj:
        raise ParseError(f"missing required field {path}.{key}")
    value = obj[key]
    # json.loads makes no subclass of int or float but bool, which this rejects
    if (
        not isinstance(value, list)
        or len(value) != length
        or not set(map(type, value)) <= {int, float}
    ):
        raise ParseError(f"field {path}.{key} must be a list of {length} numbers")
    arr = _json_floats(value, f"{path}.{key}")
    if not np.isfinite(arr).all():
        raise ParseError(f"field {path}.{key} contains non-finite values")
    return arr


def _json_object(obj: dict, key: str) -> tuple[np.ndarray, float]:
    """One object's state 6-vector and radius."""
    if key not in obj:
        raise ParseError(f"missing required field {key}")
    rec = obj[key]
    if not isinstance(rec, dict):
        raise ParseError(f"field {key} must be an object")
    known = {"position_m", "velocity_mps", "radius_m"}
    for extra in sorted(set(rec) - known):
        raise ParseError(f"unknown field {key}.{extra}")
    radius = rec.get("radius_m")
    if not isinstance(radius, (int, float)) or isinstance(radius, bool):
        raise ParseError(f"field {key}.radius_m must be a number")
    position = _json_vector(rec, "position_m", 3, key)
    velocity = _json_vector(rec, "velocity_mps", 3, key)
    radius = float(_json_floats(radius, f"{key}.radius_m"))
    if not (math.isfinite(radius) and radius > 0.0):
        raise ParseError(
            f"field {key}.radius_m must be positive and finite, got {radius}"
        )
    return np.concatenate([position, velocity]), radius


def _parse_json(text: str) -> ConjunctionFile:
    try:
        root = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(root, dict):
        raise ParseError("top-level JSON value must be an object")
    known = {"object1", "object2", "covariance", "metadata"}
    for extra in sorted(set(root) - known):
        raise ParseError(f"unknown field {extra}")
    state1, r1 = _json_object(root, "object1")
    state2, r2 = _json_object(root, "object2")
    if "covariance" not in root or not isinstance(root["covariance"], dict):
        raise ParseError("missing required field covariance (object)")
    cov = root["covariance"]
    known_cov = {"cov12_row_major", "object1_cov6", "object2_cov6", "cross6"}
    for extra in sorted(set(cov) - known_cov):
        raise ParseError(f"unknown field covariance.{extra}")
    has_full = "cov12_row_major" in cov
    has_split = any(k in cov for k in ("object1_cov6", "object2_cov6", "cross6"))
    if has_full == has_split:
        raise ParseError(
            "covariance must carry exactly one representation: "
            "cov12_row_major or the per-object cov6 blocks"
        )
    warnings: tuple[str, ...] = ()
    if has_full:
        cov12 = _json_vector(cov, "cov12_row_major", 144, "covariance").reshape(12, 12)
    else:
        cov12 = np.zeros((12, 12))
        for lo, name in ((0, "object1_cov6"), (6, "object2_cov6")):
            block = _json_vector(cov, name, 36, "covariance")
            cov12[lo:lo + 6, lo:lo + 6] = block.reshape(6, 6)
        if "cross6" in cov:
            cross = _json_vector(cov, "cross6", 36, "covariance").reshape(6, 6)
            cov12[0:6, 6:12], cov12[6:12, 0:6] = cross, cross.T
        else:
            warnings = (_NO_CROSS,)
    metadata = root.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ParseError("field metadata must map strings to strings")
    return ConjunctionFile(
        theta_hat=np.concatenate([state1, state2]), cov12=cov12, r1=r1, r2=r2,
        warnings=warnings,
    )


# -- KVN -------------------------------------------------------------------

#: One line of KVN text, as ``str.splitlines`` gives it: blank, a
#: ``COMMENT`` or a ``KEY = VALUE [unit]`` record.
_KVN_LINE = re.compile(
    r"\s*(?:COMMENT.*|([A-Za-z0-9_]+)\s*=\s*([^\[\]\s]+)(?:\s*\[([^\]]*)\])?)?\s*"
)


def _parse_kvn(text: str) -> ConjunctionFile:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        match = _KVN_LINE.fullmatch(raw)
        if match is None:
            raise ParseError(f"malformed record {raw.strip()!r}", line=lineno)
        key, number, unit = match.groups()
        if key is None:
            continue
        key = key.upper()
        if key not in _KVN_UNITS:
            raise ParseError(f"unknown key {key}", line=lineno)
        if key in values:
            raise ParseError(f"duplicate key {key}", line=lineno)
        try:
            # float() also reads ``1_0`` and non-ASCII digits; KVN, as JSON, does not
            if "_" in number or not number.isascii():
                raise ValueError(number)
            value = float(number)
        except ValueError:
            raise ParseError(
                f"value for {key} is not a number: {number!r}", line=lineno
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"value for {key} is not finite: {value}", line=lineno)
        if key.endswith("_RADIUS") and value <= 0.0:
            raise ParseError(
                f"value for {key} must be positive, got {value}", line=lineno
            )
        if unit is not None and unit.strip() != _KVN_UNITS[key]:
            raise ParseError(
                f"unit mismatch for {key}: expected [{_KVN_UNITS[key]}], got "
                f"[{unit.strip()}]",
                line=lineno,
            )
        values[key] = value
    missing = [key for key in _KVN_UNITS if key not in values]
    if missing:
        raise ParseError(
            f"missing required key {missing[0]} "
            f"(missing {len(missing)} of {len(_KVN_UNITS)} keys: "
            f"{', '.join(missing[:6])}{', ...' if len(missing) > 6 else ''})"
        )
    ordered = np.array([*map(values.__getitem__, _KVN_UNITS), 0.0])
    return ConjunctionFile(
        theta_hat=ordered[_KVN_THETA_AT], cov12=ordered[_KVN_COV_AT],
        r1=values["OBJECT1_RADIUS"], r2=values["OBJECT2_RADIUS"], warnings=(_NO_CROSS,),
    )


# -- config ----------------------------------------------------------------

@dataclass(frozen=True)
class Config:
    """Runtime defaults read from a ``key = value`` text file."""

    mc_trials: int = 10**6
    seed: int | None = None
    output_precision: int = 9

    def __post_init__(self):
        if self.mc_trials < 1:
            raise InputValidationError(
                f"mc_trials must be positive, got {self.mc_trials}"
            )
        if not (1 <= self.output_precision <= 17):
            raise InputValidationError(
                f"output_precision must be in [1, 17], got {self.output_precision}"
            )


def parse_config(text: str) -> Config:
    """Parse ``key = value`` config text (``#`` starts a comment)."""
    keys = {"mc_trials", "seed", "output_precision"}
    kwargs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in keys:
            raise ParseError(f"unknown config key {key}", line=lineno)
        if key in kwargs:
            raise ParseError(f"duplicate config key {key}", line=lineno)
        try:
            kwargs[key] = int(value)
        except ValueError:
            raise ParseError(
                f"value for {key} must be an integer, got {value!r}", line=lineno
            ) from None
    return Config(**kwargs)


def load_config(path: str | None = None) -> Config:
    """Load the config file, honoring the environment override.

    Resolution order: explicit ``path`` argument, then the ``CONJRISK_CONFIG``
    environment variable, then built-in defaults.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return Config()
    with open(path, "rb") as handle:
        return parse_config(_decode(handle.read()))


# -- output ----------------------------------------------------------------

def format_cell(value, precision: int) -> str:
    """One output value as text: ``true``/``false`` for booleans, ``str`` for
    integers and strings, ``precision`` significant digits for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return f"{value:.{precision}g}"


def csv_text(rows: list[dict], precision: int) -> str:
    """Render rows that share one key order as CSV text (header plus rows).
    A row of floats alone is written by one ``%`` format, which spells each
    as ``format_cell`` does."""
    if not rows:
        raise InputValidationError("nothing to write: the result is empty")
    float_row = ",".join([f"%.{precision}g"] * len(rows[0]))
    lines = [",".join(rows[0])]
    for row in rows:
        values = tuple(row.values())
        if set(map(type, values)) <= _FLOAT_TYPES:
            lines.append(float_row % values)
        else:
            lines.append(",".join(format_cell(v, precision) for v in values))
    return "\n".join(lines) + "\n"


#: The leaf types whose text is ``float.__repr__``, as for ``json``.
_FLOAT_TYPES = {float, np.float64}


def _json_nonfinite(text: str) -> str:
    """Text of float reprs with nan and inf spelled as ``json`` spells them."""
    if "n" in text:  # of the reprs only nan and inf have the letter
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it
    where ``newline`` (a line feed and the indent) starts its lines.

    Dicts with string keys, lists, tuples and scalars are written here, a
    matrix of floats with one format; anything else goes to ``json.dumps``,
    which raises on what it cannot write.
    """
    inner = newline + "  "
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_nonfinite(float.__repr__(value))
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds <= {list, tuple} and len(set(map(len, value))) == 1 and value[0]:
            flat = [x for row in value for x in row]
            if set(map(type, flat)) <= _FLOAT_TYPES:
                deeper = inner + "  "
                row = f"[{deeper}" + f",{deeper}".join(["%s"] * len(value[0])) + f"{inner}]"
                rows = f",{inner}".join([row] * len(value))
                floats = rows % tuple(map(float.__repr__, flat))
                return f"[{inner}{_json_nonfinite(floats)}{newline}]"
        return f"[{inner}" + f",{inner}".join(_json(v, inner) for v in value) + f"{newline}]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        return f"{{{inner}" + f",{inner}".join(
            f"{json.encoder.encode_basestring_ascii(key)}: {_json(item, inner)}"
            for key, item in sorted(value.items())
        ) + f"{newline}}}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)


def json_text(doc: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing LF; the
    bytes of ``json.dumps(doc, sort_keys=True, indent=2)``, written without
    its pure-Python encoder."""
    return _json(doc, "\n") + "\n"


def write_text(text: str, path) -> None:
    """Write output text as UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)

