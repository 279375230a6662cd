"""Conjunction file ingestion, config parsing, and deterministic output.

Two input formats are supported. The JSON format carries the two object
states plus either a full 12x12 covariance (row-major) or per-object 6x6
blocks with an optional 6x6 cross block. The KVN format is a deliberately
minimal, line-oriented ``KEY = VALUE [unit]`` subset inspired by
conjunction data messages: per-object state, radius, and lower-triangle
6x6 covariance keys, where the conventional R/T/N axis labels are read as
the fixed x/y/z axes of this package (no frame transformation is applied,
and no standard conformance is claimed). KVN files carry no cross-object
covariance; it defaults to zero with a recorded warning.

All output is byte-deterministic: UTF-8, LF line endings, ``.`` decimal
separator, and fixed significant-digit formatting.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InputValidationError, ParseError
from .geometry import JointState

ENV_CONFIG = "CONJRISK_CONFIG"

_AXIS_LABELS = ("R", "T", "N", "RDOT", "TDOT", "NDOT")
_STATE_SUFFIXES = ("X", "Y", "Z", "X_DOT", "Y_DOT", "Z_DOT")


def _covariance_unit(i: int, j: int) -> str:
    if i < 3 and j < 3:
        return "m**2"
    if i >= 3 and j >= 3:
        return "m**2/s**2"
    return "m**2/s"


def _kvn_key_table() -> dict[str, tuple[str, str, int, int]]:
    """Map KVN key -> (object, kind, i, j) with expected units resolved later."""
    table: dict[str, tuple[str, str, int, int]] = {}
    for obj in ("OBJECT1", "OBJECT2"):
        for idx, suffix in enumerate(_STATE_SUFFIXES):
            table[f"{obj}_{suffix}"] = (obj, "state", idx, -1)
        table[f"{obj}_RADIUS"] = (obj, "radius", -1, -1)
        for i in range(6):
            for j in range(i + 1):
                key = f"{obj}_C{_AXIS_LABELS[i]}_{_AXIS_LABELS[j]}"
                table[key] = (obj, "cov", i, j)
    return table


_KVN_KEYS = _kvn_key_table()


def _expected_unit(kind: str, i: int, j: int) -> str:
    if kind == "radius":
        return "m"
    if kind == "state":
        return "m" if i < 3 else "m/s"
    return _covariance_unit(i, j)


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
    """Parsed conjunction file: two object records plus covariance.

    Exactly one covariance representation is present: either the full
    12x12 ``cov12`` or the per-object 6x6 blocks (with optional cross
    block). ``warnings`` records parse-time defaults such as a missing
    cross covariance.
    """

    object1: ObjectRecord
    object2: ObjectRecord
    cov12: np.ndarray | None = None
    object1_cov6: np.ndarray | None = None
    object2_cov6: np.ndarray | None = None
    cross6: np.ndarray | None = None
    metadata: dict[str, str] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        full = self.cov12 is not None
        split = self.object1_cov6 is not None and self.object2_cov6 is not None
        partial = (self.object1_cov6 is None) != (self.object2_cov6 is None)
        if partial or full == split:
            raise InputValidationError(
                "exactly one covariance representation is required: cov12 or "
                "both per-object cov6 blocks"
            )
        if full and self.cross6 is not None:
            raise InputValidationError("cross6 is only valid with per-object blocks")

        def check(name: str, value, shape):
            if value is None:
                return None
            arr = np.asarray(value, dtype=float)
            if arr.shape != shape:
                raise InputValidationError(
                    f"{name} must have shape {shape}, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise InputValidationError(f"{name} contains non-finite entries")
            arr = np.array(arr)
            arr.setflags(write=False)
            return arr

        object.__setattr__(self, "cov12", check("cov12", self.cov12, (12, 12)))
        object.__setattr__(
            self, "object1_cov6", check("object1_cov6", self.object1_cov6, (6, 6))
        )
        object.__setattr__(
            self, "object2_cov6", check("object2_cov6", self.object2_cov6, (6, 6))
        )
        object.__setattr__(self, "cross6", check("cross6", self.cross6, (6, 6)))
        object.__setattr__(self, "metadata", dict(self.metadata))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def covariance12(self) -> np.ndarray:
        """The assembled 12x12 covariance of the joint state vector."""
        if self.cov12 is not None:
            return np.array(self.cov12)
        cov = np.zeros((12, 12))
        cov[0:6, 0:6] = self.object1_cov6
        cov[6:12, 6:12] = self.object2_cov6
        if self.cross6 is not None:
            cov[0:6, 6:12] = self.cross6
            cov[6:12, 0:6] = self.cross6.T
        return cov

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
            c_theta=self.covariance12(),
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
    arr = np.asarray(value, dtype=float)
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
    try:
        return ObjectRecord(
            position_m=_json_vector(rec, "position_m", 3, key),
            velocity_mps=_json_vector(rec, "velocity_mps", 3, key),
            radius_m=float(radius),
        )
    except InputValidationError as exc:
        raise ParseError(f"field {key}: {exc}") from None


def _parse_json(text: str) -> ConjunctionFile:
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
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
    has_split = "object1_cov6" in cov or "object2_cov6" in cov
    if has_full == has_split:
        raise ParseError(
            "covariance must carry exactly one representation: "
            "cov12_row_major or the per-object cov6 blocks"
        )
    warnings: list[str] = []
    kwargs: dict = {}
    if has_full:
        flat = _json_vector(cov, "cov12_row_major", 144, "covariance")
        kwargs["cov12"] = flat.reshape(12, 12)
    else:
        kwargs["object1_cov6"] = _json_vector(
            cov, "object1_cov6", 36, "covariance"
        ).reshape(6, 6)
        kwargs["object2_cov6"] = _json_vector(
            cov, "object2_cov6", 36, "covariance"
        ).reshape(6, 6)
        if "cross6" in cov:
            kwargs["cross6"] = _json_vector(cov, "cross6", 36, "covariance").reshape(
                6, 6
            )
        else:
            warnings.append("cross-covariance missing, defaulting to zero")
    metadata = root.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ParseError("field metadata must map strings to strings")
    try:
        return ConjunctionFile(
            object1=obj1,
            object2=obj2,
            metadata=metadata,
            warnings=tuple(warnings),
            **kwargs,
        )
    except InputValidationError as exc:
        raise ParseError(str(exc)) from None


def conjunction_json_text(cf: ConjunctionFile) -> str:
    """Serialize a conjunction file to canonical JSON text."""

    def obj_dict(rec: ObjectRecord) -> dict:
        return {
            "position_m": list(rec.position_m),
            "velocity_mps": list(rec.velocity_mps),
            "radius_m": rec.radius_m,
        }

    cov: dict = {}
    if cf.cov12 is not None:
        cov["cov12_row_major"] = [float(v) for v in cf.cov12.ravel()]
    else:
        cov["object1_cov6"] = [float(v) for v in cf.object1_cov6.ravel()]
        cov["object2_cov6"] = [float(v) for v in cf.object2_cov6.ravel()]
        if cf.cross6 is not None:
            cov["cross6"] = [float(v) for v in cf.cross6.ravel()]
    doc = {
        "object1": obj_dict(cf.object1),
        "object2": obj_dict(cf.object2),
        "covariance": cov,
    }
    if cf.metadata:
        doc["metadata"] = dict(sorted(cf.metadata.items()))
    return json_text(doc)


# -- KVN -------------------------------------------------------------------

_KVN_LINE = re.compile(
    r"^(?P<key>[A-Za-z0-9_]+)\s*=\s*(?P<value>[^\[\]\s]+)"
    r"(?:\s*\[(?P<unit>[^\]]*)\])?\s*$"
)


def _parse_kvn(text: str) -> ConjunctionFile:
    values: dict[str, float] = {}
    comments: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("COMMENT"):
            comments.append(line[len("COMMENT"):].strip())
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
        unit = match.group("unit")
        _, kind, i, j = _KVN_KEYS[key]
        expected = _expected_unit(kind, i, j)
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

    def state(obj: str) -> tuple[np.ndarray, np.ndarray, float]:
        vec = np.array([values[f"{obj}_{s}"] for s in _STATE_SUFFIXES])
        return vec[:3], vec[3:], values[f"{obj}_RADIUS"]

    def cov6(obj: str) -> np.ndarray:
        mat = np.zeros((6, 6))
        for i in range(6):
            for j in range(i + 1):
                v = values[f"{obj}_C{_AXIS_LABELS[i]}_{_AXIS_LABELS[j]}"]
                mat[i, j] = v
                mat[j, i] = v
        return mat

    pos1, vel1, r1 = state("OBJECT1")
    pos2, vel2, r2 = state("OBJECT2")
    metadata = {"comment": "\n".join(comments)} if comments else {}
    try:
        return ConjunctionFile(
            object1=ObjectRecord(position_m=pos1, velocity_mps=vel1, radius_m=r1),
            object2=ObjectRecord(position_m=pos2, velocity_mps=vel2, radius_m=r2),
            object1_cov6=cov6("OBJECT1"),
            object2_cov6=cov6("OBJECT2"),
            metadata=metadata,
            warnings=("cross-covariance missing, defaulting to zero",),
        )
    except InputValidationError as exc:
        raise ParseError(str(exc)) from None


def conjunction_kvn_text(cf: ConjunctionFile) -> str:
    """Serialize a conjunction file to the minimal KVN subset.

    Only the per-object covariance representation can be expressed; a file
    carrying a full 12x12 covariance or a nonzero cross block cannot be
    written losslessly and is rejected.
    """
    if cf.cov12 is not None:
        raise InputValidationError(
            "KVN output requires per-object covariance blocks"
        )
    if cf.cross6 is not None and np.any(cf.cross6 != 0.0):
        raise InputValidationError(
            "KVN output cannot represent a nonzero cross covariance"
        )
    lines: list[str] = []
    comment = cf.metadata.get("comment", "")
    for part in comment.splitlines():
        lines.append(f"COMMENT {part}" if part else "COMMENT")
    for obj, rec, cov in (
        ("OBJECT1", cf.object1, cf.object1_cov6),
        ("OBJECT2", cf.object2, cf.object2_cov6),
    ):
        state = np.concatenate([rec.position_m, rec.velocity_mps])
        for idx, suffix in enumerate(_STATE_SUFFIXES):
            unit = _expected_unit("state", idx, -1)
            lines.append(f"{obj}_{suffix} = {float(state[idx])!r} [{unit}]")
        lines.append(f"{obj}_RADIUS = {float(rec.radius_m)!r} [m]")
        for i in range(6):
            for j in range(i + 1):
                key = f"{obj}_C{_AXIS_LABELS[i]}_{_AXIS_LABELS[j]}"
                unit = _covariance_unit(i, j)
                lines.append(f"{key} = {float(cov[i, j])!r} [{unit}]")
    return "\n".join(lines) + "\n"


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


def curve_csv_text(curve, precision: int = 9) -> str:
    """Render a result with ``csv_rows()`` (a curve or report) as CSV text."""
    if not hasattr(curve, "csv_rows"):
        raise InputValidationError(
            f"no CSV schema for objects of type {type(curve).__name__}"
        )
    return csv_text(curve.csv_rows(), precision)


def json_text(doc: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing LF."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_text(text: str, path) -> None:
    """Write output text as UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_curve_csv(curve, path, precision: int = 9) -> None:
    """Write a curve as CSV: UTF-8, LF endings, fixed significant digits.

    Identical inputs produce byte-identical files.
    """
    write_text(curve_csv_text(curve, precision), path)


def write_json(doc: dict, path) -> None:
    """Write a JSON document deterministically (sorted keys, LF, UTF-8)."""
    write_text(json_text(doc), path)
