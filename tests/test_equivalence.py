"""The one-pass KVN parse, the float encounter frame and the direct JSON and
CSV writers against the code they replaced, kept here as their oracles:
the same arrays bit for bit, the same error text and line, the same bytes.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conjrisk import ParseError
from conjrisk.detection import POLICY_THRESHOLDS, default_threshold_grid
from conjrisk.fileio import csv_text, format_cell, json_text, parse_conjunction
from conjrisk.geometry import encounter_frame

# -- KVN: the per-line parser ------------------------------------------------

_AXES = ("R", "T", "N", "RDOT", "TDOT", "NDOT")
_STATE = ("X", "Y", "Z", "X_DOT", "Y_DOT", "Z_DOT")


def _reference_keys() -> dict[str, tuple[str, int, int]]:
    table = {}
    for obj in ("OBJECT1", "OBJECT2"):
        for idx, suffix in enumerate(_STATE):
            table[f"{obj}_{suffix}"] = ("state", idx, -1)
        table[f"{obj}_RADIUS"] = ("radius", -1, -1)
        for i in range(6):
            for j in range(i + 1):
                table[f"{obj}_C{_AXES[i]}_{_AXES[j]}"] = ("cov", i, j)
    return table


_REF_KEYS = _reference_keys()
_REF_LINE = re.compile(
    r"^(?P<key>[A-Za-z0-9_]+)\s*=\s*(?P<value>[^\[\]\s]+)"
    r"(?:\s*\[(?P<unit>[^\]]*)\])?\s*$"
)


def _reference_unit(kind: str, i: int, j: int) -> str:
    if kind == "radius":
        return "m"
    if kind == "state":
        return "m" if i < 3 else "m/s"
    if i < 3 and j < 3:
        return "m**2"
    if i >= 3 and j >= 3:
        return "m**2/s**2"
    return "m**2/s"


def _reference_kvn(text: str):
    """The line-by-line KVN parser: ``(theta, cov12, r1, r2)``."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("COMMENT"):
            continue
        match = _REF_LINE.match(line)
        if match is None:
            raise ParseError(f"malformed record {raw.strip()!r}", line=lineno)
        key = match.group("key").upper()
        if key not in _REF_KEYS:
            raise ParseError(f"unknown key {key}", line=lineno)
        if key in values:
            raise ParseError(f"duplicate key {key}", line=lineno)
        try:
            number = match.group("value")
            if "_" in number or not number.isascii():
                raise ValueError(number)
            value = float(number)
        except ValueError:
            raise ParseError(
                f"value for {key} is not a number: {number!r}",
                line=lineno,
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"value for {key} is not finite: {value}", line=lineno)
        if _REF_KEYS[key][0] == "radius" and value <= 0.0:
            raise ParseError(f"value for {key} must be positive, got {value}", line=lineno)
        unit = match.group("unit")
        expected = _reference_unit(*_REF_KEYS[key])
        if unit is not None and unit.strip() != expected:
            raise ParseError(
                f"unit mismatch for {key}: expected [{expected}], got [{unit.strip()}]",
                line=lineno,
            )
        values[key] = value
    missing = [key for key in _REF_KEYS if key not in values]
    if missing:
        raise ParseError(
            f"missing required key {missing[0]} "
            f"(missing {len(missing)} of {len(_REF_KEYS)} keys: "
            f"{', '.join(missing[:6])}{', ...' if len(missing) > 6 else ''})"
        )
    objects = ("OBJECT1", "OBJECT2")
    theta = np.array([values[f"{obj}_{s}"] for obj in objects for s in _STATE])
    cov12 = np.zeros((12, 12))
    for offset, obj in zip((0, 6), objects):
        for i in range(6):
            for j in range(i + 1):
                v = values[f"{obj}_C{_AXES[i]}_{_AXES[j]}"]
                cov12[offset + i, offset + j] = cov12[offset + j, offset + i] = v
    return theta, cov12, values["OBJECT1_RADIUS"], values["OBJECT2_RADIUS"]


def _outcome(parse, text):
    """The parsed arrays as bytes, or the ParseError's text and line."""
    try:
        theta, cov12, r1, r2 = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", np.asarray(theta).tobytes(), np.asarray(cov12).tobytes(), r1, r2)


def _parse_new(text):
    cf = parse_conjunction(text)
    assert cf.warnings == ("cross-covariance missing, defaulting to zero",)
    return cf.theta_hat, cf.cov12, cf.r1, cf.r2


_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029")
_SPACES = (" ", "\t", "\xa0", "\x1f", "\u3000", "")


def _valid_records(rng):
    records = []
    for key, (kind, i, j) in _REF_KEYS.items():
        value = repr(float(rng.uniform(0.1, 2.0) if kind != "state" else rng.normal(0, 1e3)))
        records.append([key, value, _reference_unit(kind, i, j)])
    return records


def _mutate(rng, records, lines):
    """Apply one seeded edit to the records or the rendered lines."""
    kind = int(rng.integers(16))
    pick = int(rng.integers(len(records)))
    if kind == 0:
        records[pick][0] = records[pick][0].lower()
    elif kind == 1:
        records[pick][2] = None                                   # bare value
    elif kind == 2:
        records[pick][2] = rng.choice(["m", "m/s", "m**2", "km", "", " m**2/s "])
    elif kind == 3:
        records.insert(int(rng.integers(len(records))), list(records[pick]))
    elif kind == 4:
        del records[pick]
    elif kind == 5:
        records[pick][1] = rng.choice(["nan", "inf", "-inf", "1e400", "NaN", "-Infinity"])
    elif kind == 6:
        records[pick][1] = rng.choice(["abc", "1.0.0", "0x10", "1_0", "+.5e-3", "1,0"])
    elif kind == 7:
        radius = "OBJECT1_RADIUS" if rng.integers(2) else "OBJECT2_RADIUS"
        for record in records:
            if record[0] == radius:
                record[1] = rng.choice(["0", "-0.0", "-1.5", "0.0"])
    elif kind == 8:
        records[pick][0] = rng.choice(["OBJECT3_X", "OBJECT1_W", "COMMENTARY", "X"])
    elif kind == 9:
        lines.append(rng.choice(["COMMENT more", "COMMENTS = 3", "  COMMENT x = 1",
                                 "comment lower", "", "   ", "\t\xa0"]))
    elif kind == 10:
        lines.append(rng.choice(["junk", "X = 1 m", "X = [m]", "= 1", "X = 1 [m] extra",
                                 "X == 1", "X = 1 [m", "X = 1 ]m["]))
    elif kind == 11:
        records[pick][0] = records[pick][0].capitalize()
    elif kind == 12:
        records[pick][1] = repr(float(rng.choice([1e-320, -0.0, 1e300, 5e-324])))
    elif kind == 13:
        del records[::2]
    elif kind == 14:
        records[pick][2] = f" {records[pick][2]}\t" if records[pick][2] else records[pick][2]
    else:
        records[pick][1] = records[pick][1] + rng.choice(["[m]", "]", "["])


def _render(rng, records, extra):
    lines = ["COMMENT fuzz case"]
    for key, value, unit in records:
        pad = [str(rng.choice(_SPACES)) for _ in range(4)]
        unit_text = "" if unit is None else f"{pad[2]}[{unit}]"
        lines.append(f"{pad[0]}{key}{pad[1] or ' '}={pad[1]}{value}{unit_text}{pad[3]}")
    for line in extra:
        lines.insert(int(rng.integers(len(lines) + 1)), line)
    breaks = rng.choice(_BREAKS, size=len(lines))
    return "".join(line + brk for line, brk in zip(lines, breaks))


def test_kvn_fuzz_matches_line_parser():
    rng = np.random.default_rng(20261020)
    kinds = set()
    for case in range(600):
        records = _valid_records(rng)
        extra: list[str] = []
        for _ in range(int(rng.integers(0, 3))):
            _mutate(rng, records, extra)
        text = _render(rng, records, extra)
        if rng.integers(4) == 0:
            text = text.rstrip("\n\r")
        ref = _outcome(_reference_kvn, text)
        kinds.add(ref[1].split(":")[1].split()[0] if ref[0] == "error" and ref[2] else ref[0])
        assert _outcome(_parse_new, text) == ref, (case, text)
    # the fuzz reached the valid files and every line error
    assert {"ok", "malformed", "unknown", "duplicate", "value", "unit"} <= kinds


@pytest.mark.parametrize("text", [
    "", "\n\n", "COMMENT only\n", "OBJECT1_X = 1 [m]\n",
    "OBJECT1_X = 1 [m]\nOBJECT1_X = 1 [m]\njunk\n",
    "junk\nOBJECT1_X = nan\n", "OBJECT1_X = nan\njunk\n",
    "OBJECT1_X = 1 []\n", "OBJECT1_X = 1 [ m ]\r\nOBJECT1_Y = x\r\n",
    "OBJECT1_X = 1_0 [m]\n", "OBJECT1_X = \u0661\u0662 [m]\n", "OBJECT1_X = \uff11\uff12 [m]\n",
])
def test_kvn_edge_cases_match_line_parser(text):
    assert _outcome(_parse_new, text) == _outcome(_reference_kvn, text)


# -- JSON and CSV: json.dumps and the format_cell join -------------------------

_leaves = st.one_of(
    st.floats(), st.floats().map(np.float64), st.booleans(), st.none(),
    st.integers(), st.text(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
)
_float_vectors = st.lists(st.floats() | st.floats().map(np.float64), max_size=6)
_documents = st.recursive(
    _leaves | _float_vectors | st.lists(_float_vectors, max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


@seed(27)
@settings(max_examples=200, deadline=None)
@given(doc=st.dictionaries(st.text(max_size=6), _documents, max_size=5))
@example(doc={"grid": [[0.5, 1e-300], [2.0, math.nan]], "ragged": [[1.0], [2.0, -0.0]],
              "empty": [[], []], "none": None, "é": ["ü\n\"", True, -math.inf, 3]})
@example(doc={"points": [{"b": 1.0, "a": np.float64(2.5)}], "e": {}, "l": [], "t": (1.0,)})
def test_json_text_is_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [{"a": {1: 2.0}}, {"a": np.int64(3)}, {"a": {1: 2, "b": 3}}])
def test_json_text_defers_other_values_to_json(doc):
    try:
        expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    except TypeError as exc:
        with pytest.raises(TypeError, match=str(exc)):
            json_text(doc)
    else:
        assert json_text(doc) == expected


def _reference_csv(rows, precision):
    lines = [",".join(rows[0])]
    lines += [",".join(format_cell(v, precision) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


_cells = st.one_of(
    st.floats(), st.floats().map(np.float64), st.integers(), st.booleans(),
    st.text(alphabet="abc xyz", max_size=4),
)


@seed(28)
@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 4),
    data=st.data(),
    precision=st.integers(1, 17),
)
def test_csv_text_is_format_cell_join(width, data, precision):
    floats = st.lists(st.floats() | st.floats().map(np.float64), min_size=width,
                      max_size=width)
    mixed = st.lists(_cells, min_size=width, max_size=width)
    rows = [dict(zip("abcd", values)) for values in data.draw(
        st.lists(floats | mixed, min_size=1, max_size=6))]
    assert csv_text(rows, precision) == _reference_csv(rows, precision)


# -- the encounter frame: np.cross -----------------------------------------------

def _reference_frame(delta_pos, delta_v):
    delta_pos, delta_v = np.asarray(delta_pos, float), np.asarray(delta_v, float)
    speed = math.hypot(*delta_v)
    i_dv = delta_v / speed
    dpos_norm = math.hypot(*delta_pos)
    cross = np.cross(i_dv, delta_pos)
    cross_norm = math.hypot(*cross)
    if dpos_norm > 0.0 and cross_norm > 1e-6 * dpos_norm:
        i_u = cross / cross_norm
    else:
        fallback = np.cross(i_dv, np.eye(3)[np.argmin(np.abs(i_dv))])
        i_u = fallback / math.hypot(*fallback)
    i_v = np.cross(i_dv, i_u)
    return np.vstack((i_u, i_v, i_dv))


def _frame_cases():
    rng = np.random.default_rng(1706)
    for _ in range(400):
        scale = 10.0 ** rng.choice([-150, -20, 0, 3, 7, 150])
        v = rng.standard_normal(3) * 10.0 ** rng.choice([-150, 0, 4, 150])
        p = rng.standard_normal(3) * scale
        yield p, v
        # aligned within sin(angle) <= 1e-6: the canonical-axis fallback
        aligned = v * rng.choice([1e-150, 2.0, -3e150])
        yield aligned + rng.standard_normal(3) * 1e-9 * np.abs(aligned).max(), v
    zeros = [0.0, -0.0]
    for a in zeros:
        for b in zeros:
            yield np.array([a, b, 0.0]), np.array([b, 1.0, a])
            yield np.array([1.0, a, b]), np.array([a, b, -2.0])
            yield np.array([a, -1e-300, b]), np.array([-0.0, 0.0, 7.5e3])
    yield np.zeros(3), np.array([1.0, 1.0, 1.0])          # tied canonical axes
    yield np.array([1e150, -1e150, 1e150]), np.array([1e-150, 2e-150, -1e-150])


def test_encounter_frame_bit_identical_to_np_cross():
    fallbacks = 0
    for delta_pos, delta_v in _frame_cases():
        ref = _reference_frame(delta_pos, delta_v)
        new = encounter_frame(delta_pos, delta_v)
        assert new.dtype == ref.dtype and new.shape == (3, 3)
        assert new.tobytes() == ref.tobytes(), (delta_pos, delta_v)
        cross = np.cross(delta_v / math.hypot(*delta_v), delta_pos)
        fallbacks += not math.hypot(*cross) > 1e-6 * math.hypot(*delta_pos)
    assert fallbacks >= 400


def test_default_threshold_grid_is_a_fresh_copy_of_the_grid():
    grid = default_threshold_grid()
    built = np.unique(np.concatenate([np.geomspace(1e-8, 1e-1, 43), POLICY_THRESHOLDS]))
    assert grid.tobytes() == built.tobytes()
    grid[:] = 0.5
    assert default_threshold_grid().tobytes() == built.tobytes()
