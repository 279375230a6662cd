"""Conjunction file ingestion, config parsing, and deterministic output.

Both input formats parse to one record: the two object states and radii
plus the assembled 12x12 covariance of the joint state vector (object 1
position and velocity, then object 2's). The JSON format carries either
that covariance row-major (``cov12_row_major``) or per-object 6x6 blocks
(``object1_cov6``, ``object2_cov6``) with an optional 6x6 ``cross6``
block, whose transpose fills the lower-left corner. The KVN format is a
deliberately minimal, line-oriented ``KEY = VALUE [unit]`` subset inspired
by conjunction data messages: per-object state, radius, and lower-triangle
6x6 covariance keys, where the conventional R/T/N axis labels are read as
the fixed x/y/z axes of this package (no frame transformation is applied,
and no standard conformance is claimed). A missing cross covariance, always
the case for KVN files, defaults to zero with a recorded warning. JSON
``metadata`` (strings to strings) and KVN ``COMMENT`` lines are accepted
and ignored.

All output is byte-deterministic: UTF-8, LF line endings, ``.`` decimal
separator, and fixed significant-digit formatting.
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


def _kvn_key_table() -> dict[str, tuple[str, int, int]]:
    """Map KVN key -> (kind, i, j) with expected units resolved later."""
    table: dict[str, tuple[str, int, int]] = {}
    for obj in ("OBJECT1", "OBJECT2"):
        for idx, suffix in enumerate(_STATE_SUFFIXES):
            table[f"{obj}_{suffix}"] = ("state", idx, -1)
        table[f"{obj}_RADIUS"] = ("radius", -1, -1)
        for i in range(6):
            for j in range(i + 1):
                key = f"{obj}_C{_AXIS_LABELS[i]}_{_AXIS_LABELS[j]}"
                table[key] = ("cov", i, j)
    return table


_KVN_KEYS = _kvn_key_table()


def _expected_unit(kind: str, i: int, j: int) -> str:
    if kind == "radius":
        return "m"
    if kind == "state":
        return "m" if i < 3 else "m/s"
    if i < 3 and j < 3:
        return "m**2"
    if i >= 3 and j >= 3:
        return "m**2/s**2"
    return "m**2/s"


@dataclass(frozen=True, eq=False)
class ObjectRecord:
    """One object's state and hard-body radius."""

    position_m: np.ndarray
    velocity_mps: np.ndarray
    radius_m: float

    def __post_init__(self):
        pos = np.asarray(self.position_m, dtype=float)
        vel = np.asarray(self.velocity_mps, dtype=float)
        if pos.shape != (3,) or vel.shape != (3,):
            raise InputValidationError(
                "object position and velocity must be 3-vectors"
            )
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise InputValidationError("object state contains non-finite entries")
        if not (math.isfinite(self.radius_m) and self.radius_m > 0.0):
            raise InputValidationError(
                f"radius_m must be positive, got {self.radius_m}"
            )
        for name, arr in (("position_m", pos), ("velocity_mps", vel)):
            arr = np.array(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "radius_m", float(self.radius_m))


@dataclass(frozen=True, eq=False)
class ConjunctionFile:
    """Parsed conjunction file: two object records and the 12x12 covariance
    ``cov12`` of the joint state vector. ``warnings`` records parse-time
    defaults such as a missing cross covariance.
    """

    object1: ObjectRecord
    object2: ObjectRecord
    cov12: np.ndarray
    warnings: tuple[str, ...] = ()

    def to_joint_state(self) -> JointState:
        theta = np.concatenate(
            [
                self.object1.position_m,
                self.object1.velocity_mps,
                self.object2.position_m,
                self.object2.velocity_mps,
            ]
        )
        return JointState(
            theta_hat=theta,
            c_theta=self.cov12,
            r1=self.object1.radius_m,
            r2=self.object2.radius_m,
        )


def parse_conjunction(data: bytes | str, fmt: str) -> ConjunctionFile:
    """Parse conjunction file content.

    Args:
        data: raw file content (UTF-8 bytes or text).
        fmt: ``"json"`` or ``"kvn"``.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    else:
        text = data
    if fmt == "json":
        return _parse_json(text)
    if fmt == "kvn":
        return _parse_kvn(text)
    raise InputValidationError(f"format must be 'json' or 'kvn', got {fmt!r}")


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
    if (
        not isinstance(value, list)
        or len(value) != length
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ParseError(f"field {path}.{key} must be a list of {length} numbers")
    arr = _json_floats(value, f"{path}.{key}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"field {path}.{key} contains non-finite values")
    return arr


def _json_object(obj: dict, key: str) -> ObjectRecord:
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
    try:
        return ObjectRecord(position_m=position, velocity_mps=velocity, radius_m=radius)
    except InputValidationError as exc:
        raise ParseError(f"field {key}: {exc}") from None


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
    obj1 = _json_object(root, "object1")
    obj2 = _json_object(root, "object2")
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
    return ConjunctionFile(object1=obj1, object2=obj2, cov12=cov12, warnings=warnings)


# -- KVN -------------------------------------------------------------------

_KVN_LINE = re.compile(
    r"^(?P<key>[A-Za-z0-9_]+)\s*=\s*(?P<value>[^\[\]\s]+)"
    r"(?:\s*\[(?P<unit>[^\]]*)\])?\s*$"
)


def _parse_kvn(text: str) -> ConjunctionFile:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("COMMENT"):
            continue
        match = _KVN_LINE.match(line)
        if match is None:
            raise ParseError(f"malformed record {raw.strip()!r}", line=lineno)
        key = match.group("key").upper()
        if key not in _KVN_KEYS:
            raise ParseError(f"unknown key {key}", line=lineno)
        if key in values:
            raise ParseError(f"duplicate key {key}", line=lineno)
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ParseError(
                f"value for {key} is not a number: {match.group('value')!r}",
                line=lineno,
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"value for {key} is not finite: {value}", line=lineno)
        unit = match.group("unit")
        expected = _expected_unit(*_KVN_KEYS[key])
        if unit is not None and unit.strip() != expected:
            raise ParseError(
                f"unit mismatch for {key}: expected [{expected}], got "
                f"[{unit.strip()}]",
                line=lineno,
            )
        values[key] = value

    missing = [key for key in _KVN_KEYS if key not in values]
    if missing:
        raise ParseError(
            f"missing required key {missing[0]} "
            f"(missing {len(missing)} of {len(_KVN_KEYS)} keys: "
            f"{', '.join(missing[:6])}{', ...' if len(missing) > 6 else ''})"
        )

    def record(obj: str) -> ObjectRecord:
        vec = np.array([values[f"{obj}_{s}"] for s in _STATE_SUFFIXES])
        return ObjectRecord(
            position_m=vec[:3], velocity_mps=vec[3:], radius_m=values[f"{obj}_RADIUS"]
        )

    cov12 = np.zeros((12, 12))
    for offset, obj in ((0, "OBJECT1"), (6, "OBJECT2")):
        for i in range(6):
            for j in range(i + 1):
                v = values[f"{obj}_C{_AXIS_LABELS[i]}_{_AXIS_LABELS[j]}"]
                cov12[offset + i, offset + j] = cov12[offset + j, offset + i] = v
    try:
        obj1, obj2 = record("OBJECT1"), record("OBJECT2")
    except InputValidationError as exc:
        raise ParseError(str(exc)) from None
    return ConjunctionFile(
        object1=obj1, object2=obj2, cov12=cov12, warnings=(_NO_CROSS,)
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
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


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
    """Render rows that share one key order as CSV text (header plus rows)."""
    if not rows:
        raise InputValidationError("nothing to write: the result is empty")
    lines = [",".join(rows[0])]
    lines += [",".join(format_cell(v, precision) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(doc: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing LF."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_text(text: str, path) -> None:
    """Write output text as UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)

