"""Conjunction file parsing, config, and deterministic CSV output."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conjrisk import (
    Config,
    InputValidationError,
    ParseError,
    dilution_curve,
    load_config,
    parse_config,
    parse_conjunction,
    pc_contour,
    standardized_encounter,
)
from conjrisk.fileio import ENV_CONFIG, csv_text, write_text


def _object_dict(px=0.0, vy=7500.0, radius=0.5):
    return {
        "position_m": [px, 0.0, 0.0],
        "velocity_mps": [0.0, vy, 0.0],
        "radius_m": radius,
    }


def _json_doc_cov12():
    return {
        "object1": _object_dict(),
        "object2": _object_dict(px=100.0, vy=-7500.0),
        "covariance": {"cov12_row_major": list(np.eye(12).ravel())},
        "metadata": {"note": "identity covariance"},
    }


def _json_doc_split(cross=None):
    doc = {
        "object1": _object_dict(),
        "object2": _object_dict(px=100.0, vy=-7500.0),
        "covariance": {
            "object1_cov6": list(np.diag([50.0] * 3 + [1e-4] * 3).ravel()),
            "object2_cov6": list(np.diag([50.0] * 3 + [1e-4] * 3).ravel()),
        },
    }
    if cross is not None:
        doc["covariance"]["cross6"] = list(np.asarray(cross, dtype=float).ravel())
    return doc


KVN_SAMPLE = """\
COMMENT minimal sample
OBJECT1_X = 0.0 [m]
OBJECT1_Y = 0.0 [m]
OBJECT1_Z = 0.0 [m]
OBJECT1_X_DOT = 0.0 [m/s]
OBJECT1_Y_DOT = 7500.0 [m/s]
OBJECT1_Z_DOT = 0.0 [m/s]
OBJECT1_RADIUS = 0.5 [m]
{obj1_cov}
OBJECT2_X = 100.0 [m]
OBJECT2_Y = 0.0 [m]
OBJECT2_Z = 0.0 [m]
OBJECT2_X_DOT = 0.0 [m/s]
OBJECT2_Y_DOT = -7500.0 [m/s]
OBJECT2_Z_DOT = 0.0 [m/s]
OBJECT2_RADIUS = 0.5 [m]
{obj2_cov}
"""


def _kvn_cov_lines(obj, mat):
    labels = ("R", "T", "N", "RDOT", "TDOT", "NDOT")
    lines = []
    for i in range(6):
        for j in range(i + 1):
            if i < 3 and j < 3:
                unit = "m**2"
            elif i >= 3 and j >= 3:
                unit = "m**2/s**2"
            else:
                unit = "m**2/s"
            lines.append(f"{obj}_C{labels[i]}_{labels[j]} = {mat[i][j]} [{unit}]")
    return "\n".join(lines)


def _kvn_sample(cov1=None, cov2=None):
    if cov1 is None:
        cov1 = np.diag([50.0] * 3 + [1e-4] * 3)
    if cov2 is None:
        cov2 = np.diag([50.0] * 3 + [1e-4] * 3)
    return KVN_SAMPLE.format(
        obj1_cov=_kvn_cov_lines("OBJECT1", cov1),
        obj2_cov=_kvn_cov_lines("OBJECT2", cov2),
    )


class TestJsonFormat:
    def test_round_trip_cov12(self):
        # metadata is validated and then ignored
        cf = parse_conjunction(json.dumps(_json_doc_cov12()))
        assert_allclose(cf.cov12, np.eye(12), rtol=0, atol=0)
        assert cf.theta_hat[6] == 100.0
        assert cf.theta_hat[10] == -7500.0
        assert (cf.r1, cf.r2) == (0.5, 0.5)
        assert cf.warnings == ()

    def test_round_trip_split_with_cross(self):
        cross = 0.1 * np.eye(6)
        cross[0, 1] = 0.02
        cf = parse_conjunction(json.dumps(_json_doc_split(cross=cross)))
        block = np.diag([50.0] * 3 + [1e-4] * 3)
        assert_allclose(cf.cov12[0:6, 0:6], block, rtol=0, atol=0)
        assert_allclose(cf.cov12[6:12, 6:12], block, rtol=0, atol=0)
        assert_allclose(cf.cov12[0:6, 6:12], cross, rtol=0, atol=0)
        assert_allclose(cf.cov12[6:12, 0:6], cross.T, rtol=0, atol=0)
        assert cf.warnings == ()

    def test_missing_cross_warns(self):
        cf = parse_conjunction(json.dumps(_json_doc_split()))
        assert any("cross" in w for w in cf.warnings)
        assert_allclose(cf.cov12[0:6, 6:12], np.zeros((6, 6)))

    def test_cross_block_with_full_covariance_rejected(self):
        doc = _json_doc_cov12()
        doc["covariance"]["cross6"] = list(np.zeros(36))
        with pytest.raises(ParseError, match="exactly one"):
            parse_conjunction(json.dumps(doc))

    def test_metadata_must_map_strings_to_strings(self):
        doc = _json_doc_cov12()
        doc["metadata"] = {"note": 1}
        with pytest.raises(ParseError, match="metadata"):
            parse_conjunction(json.dumps(doc))

    def test_missing_field_named(self):
        doc = _json_doc_cov12()
        del doc["object2"]["radius_m"]
        with pytest.raises(ParseError, match="object2.radius_m"):
            parse_conjunction(json.dumps(doc))

    def test_both_covariance_representations_rejected(self):
        doc = _json_doc_cov12()
        doc["covariance"]["object1_cov6"] = list(np.eye(6).ravel())
        with pytest.raises(ParseError, match="exactly one"):
            parse_conjunction(json.dumps(doc))

    def test_wrong_length_rejected(self):
        doc = _json_doc_cov12()
        doc["covariance"]["cov12_row_major"] = [1.0] * 143
        with pytest.raises(ParseError, match="144"):
            parse_conjunction(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = _json_doc_cov12()
        doc["surprise"] = 1
        with pytest.raises(ParseError, match="surprise"):
            parse_conjunction(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_conjunction(b"{not json")

    def test_non_utf8_rejected(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_conjunction(b"\xff\xfe\x00")

    def test_negative_radius_rejected(self):
        # zero, NaN and overflowing radii too, and in either format
        doc = json.dumps(_json_doc_cov12())
        for radius in ("-1.0", "0", "NaN", "1e999"):
            text = doc.replace('"radius_m": 0.5', f'"radius_m": {radius}', 1)
            with pytest.raises(ParseError, match="field object1.radius_m must be positive"):
                parse_conjunction(text)
        kvn = _kvn_sample().replace("OBJECT2_RADIUS = 0.5", "OBJECT2_RADIUS = 0")
        with pytest.raises(ParseError, match="value for OBJECT2_RADIUS must be positive"):
            parse_conjunction(kvn)


class TestKvnFormat:
    def test_round_trip(self):
        # the COMMENT line is accepted and ignored
        cov2 = np.diag([60.0, 70.0, 80.0, 2e-4, 3e-4, 4e-4])
        cov2[1, 0] = cov2[0, 1] = 5.0
        cf = parse_conjunction(_kvn_sample(cov2=cov2))
        expected = np.zeros((12, 12))
        expected[0:6, 0:6] = np.diag([50.0] * 3 + [1e-4] * 3)
        expected[6:12, 6:12] = cov2
        assert_allclose(cf.cov12, expected, rtol=0, atol=0)
        assert cf.theta_hat[10] == -7500.0
        assert cf.warnings == ("cross-covariance missing, defaulting to zero",)

    def test_lower_triangle_assembly(self):
        # hand-assembled oracle matrix for object 1
        cov = np.array(
            [
                [4.0, 0.1, 0.2, 0.01, 0.02, 0.03],
                [0.1, 5.0, 0.3, 0.04, 0.05, 0.06],
                [0.2, 0.3, 6.0, 0.07, 0.08, 0.09],
                [0.01, 0.04, 0.07, 0.001, 0.0001, 0.0002],
                [0.02, 0.05, 0.08, 0.0001, 0.002, 0.0003],
                [0.03, 0.06, 0.09, 0.0002, 0.0003, 0.003],
            ]
        )
        cf = parse_conjunction(_kvn_sample(cov1=cov))
        assert_allclose(cf.cov12[0:6, 0:6], cov, rtol=0, atol=0)

    def test_missing_key_named(self):
        text = "\n".join(
            line for line in _kvn_sample().splitlines() if "OBJECT2_Z " not in line
        )
        with pytest.raises(ParseError, match="OBJECT2_Z"):
            parse_conjunction(text)

    def test_duplicate_key_line_number(self):
        text = _kvn_sample() + "OBJECT1_X = 5.0 [m]\n"
        lineno = len(_kvn_sample().splitlines()) + 1
        with pytest.raises(ParseError, match=f"line {lineno}.*duplicate key OBJECT1_X"):
            parse_conjunction(text)

    def test_unit_mismatch(self):
        text = _kvn_sample().replace("OBJECT1_X = 0.0 [m]", "OBJECT1_X = 0.0 [m/s]")
        with pytest.raises(ParseError, match="unit mismatch for OBJECT1_X"):
            parse_conjunction(text)

    def test_unknown_key(self):
        text = _kvn_sample() + "OBJECT1_WEIRD = 1.0 [m]\n"
        with pytest.raises(ParseError, match="unknown key OBJECT1_WEIRD"):
            parse_conjunction(text)

    def test_malformed_line(self):
        text = "OBJECT1_X 0.0\n" + _kvn_sample()
        with pytest.raises(ParseError, match="line 1"):
            parse_conjunction(text)

    def test_bare_value_without_unit_accepted(self):
        text = _kvn_sample().replace("OBJECT1_X = 0.0 [m]", "OBJECT1_X = 0.0")
        cf = parse_conjunction(text)
        assert cf.theta_hat[0] == 0.0

    @pytest.mark.parametrize(
        "old, new",
        [
            ("OBJECT1_CT_R = 0.0 [m**2]", "OBJECT1_CT_R = 1e999 [m**2]"),
            ("OBJECT2_CN_N = 50.0 [m**2]", "OBJECT2_CN_N = nan [m**2]"),
            ("OBJECT1_RADIUS = 0.5 [m]", "OBJECT1_RADIUS = inf [m]"),
        ],
        ids=["overflow", "nan", "infinite-radius"],
    )
    def test_non_finite_value_rejected_on_its_line(self, old, new):
        text = _kvn_sample()
        lineno = text[: text.index(old)].count("\n") + 1
        message = f"line {lineno}: value for {old.split()[0]} is not finite"
        with pytest.raises(ParseError, match=message):
            parse_conjunction(text.replace(old, new))

    def test_format_read_from_content(self):
        # JSON exactly when the first non-whitespace character is { or [
        assert parse_conjunction(" \n" + json.dumps(_json_doc_cov12())).warnings == ()
        with pytest.raises(ParseError, match="top-level JSON value must be an object"):
            parse_conjunction("\t[]")
        with pytest.raises(ParseError, match="line 1: malformed record"):
            parse_conjunction("<conjunction/>")
        with pytest.raises(ParseError, match="missing required key OBJECT1_X "):
            parse_conjunction(b"")


class TestCovarianceEquivalence:
    def test_cov12_and_split_give_identical_pc(self):
        split = parse_conjunction(json.dumps(_json_doc_split()))
        full_doc = {
            "object1": _object_dict(),
            "object2": _object_dict(px=100.0, vy=-7500.0),
            "covariance": {
                "cov12_row_major": list(split.cov12.ravel())
            },
        }
        full = parse_conjunction(json.dumps(full_doc))
        pc_split = pc_contour(standardized_encounter(split.to_joint_state())).pc
        pc_full = pc_contour(standardized_encounter(full.to_joint_state())).pc
        assert pc_full == pytest.approx(pc_split, rel=1e-12)


class TestConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == Config()
        assert cfg.mc_trials == 10**6
        assert cfg.seed is None
        assert cfg.output_precision == 9

    def test_overrides_and_comments(self):
        cfg = parse_config(
            "mc_trials=5000 # fast runs\nseed = 7\noutput_precision = 12\n"
        )
        assert cfg.mc_trials == 5000
        assert cfg.seed == 7
        assert cfg.output_precision == 12

    def test_errors(self):
        with pytest.raises(ParseError, match="unknown config key"):
            parse_config("quadrature = 10")
        with pytest.raises(ParseError, match="integer"):
            parse_config("seed = abc")
        with pytest.raises(ParseError, match="line 2.*duplicate"):
            parse_config("seed = 1\nseed = 2")
        with pytest.raises(ParseError, match="unknown config key rng"):
            parse_config("rng = mersenne")
        with pytest.raises(ParseError, match="unknown config key quad_floor"):
            parse_config("quad_floor = 128")

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "conjrisk.cfg"
        path.write_text("seed = 99\n", encoding="utf-8")
        monkeypatch.setenv(ENV_CONFIG, str(path))
        assert load_config().seed == 99
        monkeypatch.delenv(ENV_CONFIG)
        assert load_config().seed is None

    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        env_path = tmp_path / "env.cfg"
        env_path.write_text("seed = 1\n", encoding="utf-8")
        arg_path = tmp_path / "arg.cfg"
        arg_path.write_text("seed = 2\n", encoding="utf-8")
        monkeypatch.setenv(ENV_CONFIG, str(env_path))
        assert load_config(str(arg_path)).seed == 2


class TestCurveCsv:
    def test_single_point_curve_two_lines(self, tmp_path):
        curve = dilution_curve(0.0, 1.0, 10.0, 16)
        single = type(curve)(
            d_over_r=curve.d_over_r,
            grid=curve.grid[:1],
            peak_s_over_r=curve.peak_s_over_r,
            peak_pc=curve.peak_pc,
        )
        path = tmp_path / "single.csv"
        write_text(csv_text(single.csv_rows(), 9), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == "s_over_r,pc"

    def test_row_count_matches_grid(self, tmp_path):
        curve = dilution_curve(5.0, 0.5, 500.0, 64)
        path = tmp_path / "curve.csv"
        write_text(csv_text(curve.csv_rows(), 9), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 65
        assert lines[0] == "s_over_r,pc"

    def test_deterministic_bytes_on_rerun(self, tmp_path):
        curve = dilution_curve(5.0, 0.5, 500.0, 32)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_text(csv_text(curve.csv_rows(), 9), p1)
        write_text(csv_text(dilution_curve(5.0, 0.5, 500.0, 32).csv_rows(), 9), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_nine_significant_digits(self):
        curve = dilution_curve(0.0, 1.0, 10.0, 16)
        text = csv_text(curve.csv_rows(), 9)
        first_value = text.splitlines()[1].split(",")[1]
        assert len(first_value.replace(".", "").replace("-", "").lstrip("0e")) <= 10

    def test_empty_curve_rejected(self):
        curve = dilution_curve(0.0, 1.0, 10.0, 16)
        empty = type(curve)(
            d_over_r=0.0, grid=(), peak_s_over_r=1.0, peak_pc=0.0
        )
        with pytest.raises(InputValidationError, match="empty"):
            csv_text(empty.csv_rows(), 9)
