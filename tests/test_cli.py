"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conjrisk import cli, probability
from conjrisk.cli import run_command
from conjrisk.detection import proof_halfwidth
from conjrisk.errors import ConjunctionAnalysisError, NumericalError

KVN_WARNING = "warning: cross-covariance missing, defaulting to zero\n"
_SEED_HINT = "provide --seed or set 'seed' in the config file"
GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _error_classes(cls=ConjunctionAnalysisError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def _run_warning_free(argv) -> int:
    """``run_command`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_command(argv)


def _head_on_doc(var_x=50.0, var_y=50.0):
    """Head-on encounter in the x-y plane with per-object position variances."""
    pos_var = [var_x, var_y, 50.0]
    return {
        "object1": {
            "position_m": [0.0, 0.0, 0.0],
            "velocity_mps": [0.0, 0.0, -3500.0],
            "radius_m": 0.5,
        },
        "object2": {
            "position_m": [0.0, 0.0, 0.0],
            "velocity_mps": [0.0, 0.0, 4000.0],
            "radius_m": 0.5,
        },
        "covariance": {
            "object1_cov6": list(np.diag(pos_var + [1e-4] * 3).ravel()),
            "object2_cov6": list(np.diag(pos_var + [1e-4] * 3).ravel()),
        },
    }


def _head_on_kvn() -> str:
    """The encounter of ``_head_on_doc`` as KVN text, values without units."""
    doc = _head_on_doc()
    axes = ("R", "T", "N", "RDOT", "TDOT", "NDOT")
    lines = []
    for n in (1, 2):
        obj = doc[f"object{n}"]
        state = obj["position_m"] + obj["velocity_mps"]
        for suffix, value in zip(("X", "Y", "Z", "X_DOT", "Y_DOT", "Z_DOT"), state):
            lines.append(f"OBJECT{n}_{suffix} = {value}")
        lines.append(f"OBJECT{n}_RADIUS = {obj['radius_m']}")
        cov = np.reshape(doc["covariance"][f"object{n}_cov6"], (6, 6))
        lines += [
            f"OBJECT{n}_C{axes[i]}_{axes[j]} = {cov[i, j]}"
            for i in range(6)
            for j in range(i + 1)
        ]
    return "\n".join(lines) + "\n"


@pytest.fixture()
def head_on_file(tmp_path):
    """Head-on encounter with s1 = s2 = 10 m and combined radius 1 m."""
    path = tmp_path / "head_on.json"
    path.write_text(json.dumps(_head_on_doc()), encoding="utf-8")
    return path


class TestPcCommand:
    def test_head_on_reference_value(self, head_on_file, capsys):
        status = run_command(["pc", "--input", str(head_on_file)])
        assert status == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(4.9875e-3, rel=1e-4)

    def test_json_output(self, head_on_file, tmp_path, capsys):
        out = tmp_path / "pc.json"
        status = run_command(
            ["pc", "--input", str(head_on_file), "--output", str(out)]
        )
        assert status == 0
        capsys.readouterr()
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["pc"] == pytest.approx(1.0 - np.exp(-1.0 / 200.0), rel=1e-9)
        assert doc["n_quad"] > 0
        assert 0.0 <= doc["quad_error_est"] <= 1e-10 * doc["pc"]

    def test_csv_output(self, head_on_file, tmp_path, capsys):
        out = tmp_path / "pc.csv"
        status = run_command(
            [
                "pc", "--input", str(head_on_file),
                "--output", str(out), "--format", "csv",
            ]
        )
        assert status == 0
        capsys.readouterr()
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "pc,n_quad,quad_error_est"

    def test_kvn_input(self, tmp_path, capsys):
        kvn_path = tmp_path / "head_on.kvn"
        kvn_path.write_text(_head_on_kvn(), encoding="utf-8")
        status = run_command(["pc", "--input", str(kvn_path)])
        assert status == 0
        captured = capsys.readouterr()
        assert float(captured.out.strip()) == pytest.approx(4.9875e-3, rel=1e-4)
        # the parse-time assumption reaches the user on stderr only
        assert captured.err == KVN_WARNING
        assert run_command(["screen", "--input", str(kvn_path)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["overlap"] is True
        assert captured.err == KVN_WARNING

    def test_format_read_from_content(self, tmp_path, capsys):
        texts = {"json": json.dumps(_head_on_doc()), "kvn": _head_on_kvn()}
        for kind, text in texts.items():
            outputs = set()
            for name in (f"twin.{kind}", "conjunction.txt", "conjunction"):
                path = tmp_path / name
                path.write_text(text, encoding="utf-8")
                assert run_command(["pc", "--input", str(path)]) == 0
                outputs.add(capsys.readouterr().out)
            assert len(outputs) == 1
        # KVN text under a .json suffix is still KVN
        path = tmp_path / "mislabelled.json"
        path.write_text(texts["kvn"], encoding="utf-8")
        assert run_command(["pc", "--input", str(path)]) == 0
        assert capsys.readouterr().err == KVN_WARNING

    def test_explicit_quadrature_over_limit_exits_two(self, capsys):
        # the rule sets its own point count; any requested count is rejected
        full12 = Path(__file__).parent / "golden" / "inputs" / "full12.json"
        status = run_command(["pc", "--input", str(full12), "--n-quad", "100000000000"])
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --n-quad" in captured.err

    def test_axis_ratio_1e7_needle(self, tmp_path):
        # s1/r = 10, s2/r = 1e-6: the strip mass erf(1 / (10 sqrt 2)) less
        # the chord's curvature, about 4e-14
        path = tmp_path / "needle.json"
        path.write_text(json.dumps(_head_on_doc(50.0, 50.0e-14)), encoding="utf-8")
        out = tmp_path / "needle_pc.json"
        assert run_command(["pc", "--input", str(path), "--output", str(out)]) == 0
        pc = json.loads(out.read_text(encoding="utf-8"))["pc"]
        strip = math.erf(1.0 / (10.0 * math.sqrt(2.0)))
        assert 0.0 < strip - pc < 1e-13


class TestScreenCommand:
    def test_four_sigma_risk_cap(self, head_on_file, capsys):
        status = run_command(
            ["screen", "--input", str(head_on_file), "--k-sigma", "4"]
        )
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["risk_cap"] == pytest.approx(0.00227, abs=1e-5)
        assert doc["overlap"] is True
        assert set(doc) == {
            "min_distance_m", "overlap", "k", "confidence",
            "joint_confidence", "frechet_bound", "risk_cap",
        }

    def test_semi_axis_overflow_exits_three(self, head_on_file, capsys):
        # 1e308 * sqrt(50) is beyond the float range
        status = _run_warning_free(
            ["screen", "--input", str(head_on_file), "--k-sigma", "1e308"]
        )
        assert status == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == KVN_WARNING + (
            "numerical failure: semi-axis k * sqrt(eigenvalue) overflows at "
            "k = 1e+308, eigenvalue = 50.0\n"
        )


def test_combined_radius_overflow(tmp_path, capsys):
    # r1 + r2 overflows: pc has no finite radius to integrate over, while
    # the screen's gap is still within r1 + r2
    doc = _head_on_doc()
    doc["object1"]["radius_m"] = doc["object2"]["radius_m"] = 1.5e308
    path = tmp_path / "huge_radii.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _run_warning_free(["pc", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == KVN_WARNING + (
        "numerical failure: r1 + r2 overflows at r1 = 1.5e+308, r2 = 1.5e+308\n"
    )
    assert _run_warning_free(["screen", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["overlap"] is True


def _edited_full12(tmp_path, edit) -> str:
    doc = json.loads((Path(__file__).parent / "golden" / "inputs" / "full12.json").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _opposite(doc, key, axis):
    doc["object1"][key][axis], doc["object2"][key][axis] = -1.7e308, 1.7e308


def _huge_x_variances(doc):
    cov = doc["covariance"]["cov12_row_major"]
    cov[0] = cov[6 * 12 + 6] = 1.7e308


class TestRelativeOverflow:
    """A relative state beyond the float range is a numerical failure of
    ``pc``; ``screen``, which never forms it, still runs."""

    def test_positions(self, tmp_path, capsys):
        path = _edited_full12(tmp_path, lambda doc: _opposite(doc, "position_m", 0))
        assert _run_warning_free(["pc", "--input", path]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: relative position overflows at object 1 position "
            "[-1.7e+308, -40.0, 0.0], object 2 position [1.7e+308, 300.0, -700.0]\n"
        )

    def test_velocities(self, tmp_path, capsys):
        path = _edited_full12(tmp_path, lambda doc: _opposite(doc, "velocity_mps", 1))
        assert _run_warning_free(["pc", "--input", path]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: relative velocity overflows at object 1 velocity "
            "[10.0, -1.7e+308, 3.0], object 2 velocity [-20.0, 1.7e+308, 500.0]\n"
        )
        assert _run_warning_free(["screen", "--input", path]) == 0

    def test_position_variances(self, tmp_path, capsys):
        # the trace of the 12x12 covariance overflows too
        path = _edited_full12(tmp_path, _huge_x_variances)
        assert _run_warning_free(["pc", "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: relative position covariance overflows at largest "
            "position variance 1.7e+308\n"
        )
        assert _run_warning_free(["screen", "--input", path]) == 0
        assert capsys.readouterr().err == ""


class TestDetectionCurveCommand:
    def test_default_grid_upper_threshold_rate(self, capsys):
        status = run_command(
            ["detection-curve", "--s-over-r", "10", "--d-true", "0"]
        )
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "threshold,detection_rate,failure_probability"
        by_threshold = {
            float(row.split(",")[0]): (
                float(row.split(",")[1]),
                float(row.split(",")[2]),
            )
            for row in lines[1:]
        }
        rate, failure = by_threshold[4.4e-4]
        assert rate == pytest.approx(0.912, abs=2e-3)
        assert failure == pytest.approx(1.0 - 0.912, abs=2e-3)

    def test_series_beyond_term_budget_exits_three(self, capsys):
        # (d/s)^2 near 1e12 would need about 1e7 series terms per Pc
        status = run_command(["detection-curve", "--s-over-r", "1e-6", "--d-true", "1"])
        assert status == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "terms" in captured.err

    @pytest.mark.parametrize("s_over_r, d_true", [("1e-300", "1"), ("3", "1e300")])
    def test_overflowing_noncentrality_exits_three(self, s_over_r, d_true, capsys):
        status = _run_warning_free(
            ["detection-curve", "--s-over-r", s_over_r, "--d-true", d_true]
        )
        assert status == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: (d_true_over_r / s_over_r)^2 overflows for "
            f"d_true_over_r = {float(d_true)!r}, s_over_r = {float(s_over_r)!r}\n"
        )

    @pytest.mark.parametrize(
        "s_over_r, message",
        [
            ("1e-300", "1 / s_over_r^2 overflows at s_over_r = 1e-300"),
            ("1e-160", "1 / s_over_r^2 overflows at s_over_r = 1e-160"),
            ("1e-100", "ncx2 series needs more than 1048576 terms "
                       "(noncentrality/2 up to 5e+199)"),
        ],
        ids=["1e-300", "1e-160", "1e-100"],
    )
    def test_tiny_ratio_head_on_exits_three(self, s_over_r, message, capsys):
        status = _run_warning_free(
            ["detection-curve", "--s-over-r", s_over_r, "--d-true", "0"]
        )
        assert status == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: {message}\n"

    def test_monte_carlo_requires_seed(self, capsys):
        status = run_command(
            [
                "detection-curve", "--s-over-r", "10", "--d-true", "0",
                "--method", "monte-carlo", "--n-trials", "2000",
            ]
        )
        assert status == 2
        assert "seed" in capsys.readouterr().err

    def test_monte_carlo_with_seed(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        status = run_command(
            [
                "detection-curve", "--s-over-r", "10", "--d-true", "0",
                "--method", "monte-carlo", "--n-trials", "20000",
                "--seed", "7", "--threshold-grid", "1e-7,4.4e-4",
                "--output", str(out), "--format", "csv",
            ]
        )
        assert status == 0
        capsys.readouterr()
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3

    @pytest.mark.parametrize("method", ["semi-analytic", "monte-carlo"])
    @pytest.mark.parametrize("flag, value", [("--s-over-r", "0"), ("--d-true", "-1")])
    def test_invalid_ratio_exits_two(self, method, flag, value, capsys):
        # the later occurrence of a flag wins
        status = run_command(
            ["detection-curve", "--s-over-r", "3", "--d-true", "0.5", flag, value,
             "--method", method, "--n-trials", "2000", "--seed", "1"]
        )
        assert status == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestBoundaryCommand:
    def test_reference_values(self, capsys):
        status = run_command(
            ["boundary", "--threshold", "4.4e-4", "--combined-radius", "5"]
        )
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[0]) == pytest.approx(33.71, abs=0.1)
        assert float(lines[1]) == pytest.approx(168.5, abs=0.5)

    @pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf"])
    def test_invalid_radius_exits_two_before_output(self, radius, capsys):
        status = run_command(
            ["boundary", "--threshold", "1e-4", "--combined-radius", radius]
        )
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --combined-radius")


    def test_uncertainty_overflow_exits_three_before_output(self, capsys):
        status = _run_warning_free(
            ["boundary", "--threshold", "1e-20", "--combined-radius", "1e300"]
        )
        assert status == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("numerical failure: the uncertainty in meters")


class TestDilutionCurveCommand:
    def test_point_cap_exits_two(self, capsys):
        status = run_command(
            ["dilution-curve", "--d-over-r", "1", "--n-points", "100000000000"]
        )
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n_points must be in [16, 100000]")

    def test_series_beyond_term_budget_exits_three(self, capsys):
        # at s/r = 1e-5 and d/r = 1 one Pc needs about 1.1e6 series terms
        status = run_command(["dilution-curve", "--d-over-r", "1", "--s-min", "1e-5"])
        assert status == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "terms" in captured.err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--d-over-r", "1e300"], "(d_over_r / s_over_r)^2 overflows at s_over_r = 0.5"),
            (["--d-over-r", "1e-200", "--s-min", "1e-300", "--s-max", "1"],
             "1 / s_over_r^2 overflows at s_over_r = 1e-300"),
        ],
    )
    def test_overflowing_ratio_exits_three(self, flags, message, capsys):
        status = _run_warning_free(["dilution-curve", *flags])
        assert status == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: {message}\n"

    def test_uncertainty_whose_square_overflows_gives_zeros(self, capsys):
        status = _run_warning_free(
            ["dilution-curve", "--d-over-r", "1", "--s-min", "1e200",
             "--s-max", "1e300", "--n-points", "16"]
        )
        assert status == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == "s_over_r,pc"
        assert len(lines) == 17 and all(line.endswith(",0") for line in lines[1:])


    def test_poisson_mean_near_smallest_normal_float(self, capsys):
        # at s/r = 1e154 the Poisson mean (d/s)^2 / 2 is 5e-309
        status = _run_warning_free(
            ["dilution-curve", "--d-over-r", "1", "--s-min", "1e140",
             "--s-max", "1e154", "--n-points", "16"]
        )
        assert status == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "s_over_r,pc",
            "1e+140,5e-281",
            "8.57695899e+140,6.79678195e-283",
            "7.35642254e+141,9.23924899e-285",
            "6.30957344e+142,1.25594322e-286",
            "5.41169527e+143,1.70727444e-288",
            "4.64158883e+144,2.32079442e-290",
            "3.98107171e+145,3.15478672e-292",
            "3.41454887e+146,4.28847949e-294",
            "2.92864456e+147,5.82957201e-296",
            "2.51188643e+148,7.92446596e-298",
            "2.15443469e+149,1.07721735e-299",
            "1.8478498e+150,1.46432228e-301",
            "1.58489319e+151,1.99053585e-303",
            "1.35935639e+152,2.70584763e-305",
            "1.1659144e+153,3.67821127e-307",
            "1e+154,0",
        ]


class TestValidityCommand:
    def test_ksigma_passes(self, capsys):
        status = run_command(
            [
                "validity", "--rule", "ksigma", "--halfwidth", "0.1",
                "--alpha-grid", "0.05,0.2", "--n-trials", "1000", "--seed", "3",
            ]
        )
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,rate,stderr,verdict"
        assert all(row.endswith("pass") for row in lines[1:])

    def test_additive_fails_on_proof_width(self, capsys):
        # constructive halfwidth for alpha = 0.05, sigma = 1
        status = run_command(
            [
                "validity", "--rule", "additive", "--halfwidth", "0.0626",
                "--alpha-grid", "0.05", "--n-trials", "1000", "--seed", "4",
            ]
        )
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith("fail")

    @pytest.mark.parametrize(
        "rule, sigma", [("ksigma", "0"), ("additive", "0"), ("additive", "nan")]
    )
    def test_invalid_sigma_exits_two(self, rule, sigma, capsys):
        status = run_command(
            ["validity", "--rule", rule, "--sigma", sigma, "--halfwidth", "0.1",
             "--n-trials", "1000", "--seed", "1"]
        )
        assert status == 2
        expected = f"error: sigma must be positive, got {float(sigma)}\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("rule", ["ksigma", "additive"])
    @pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
    def test_sigma_squared_beyond_float_range_runs(self, rule, sigma, capsys):
        # sigma**2 underflows to 0 or overflows to inf, but only
        # halfwidth / sigma reaches the rule
        common = ["validity", "--rule", rule, "--n-trials", "1000", "--seed", "1"]
        ratio = repr(0.1 / float(sigma))
        assert _run_warning_free(common + ["--halfwidth", ratio]) == 0
        reference = capsys.readouterr()
        status = _run_warning_free(common + ["--sigma", sigma, "--halfwidth", "0.1"])
        assert status == 0
        assert capsys.readouterr() == reference
        assert reference.err == ""

    def test_additive_at_subnormal_variance_matches_ksigma(self, capsys):
        # sigma**2 = 1e-320 is subnormal and (halfwidth / sigma)**2 overflows
        outputs = {}
        for rule in ("additive", "ksigma"):
            status = _run_warning_free(
                ["validity", "--rule", rule, "--sigma", "1e-160", "--halfwidth", "0.1",
                 "--n-trials", "1000", "--seed", "1"]
            )
            assert status == 0
            outputs[rule] = capsys.readouterr()
        assert outputs["additive"].err == ""
        assert outputs["additive"].out.splitlines()[1:] == [
            "0.01,0,0,pass", "0.05,0,0,pass", "0.1,0,0,pass"
        ]
        assert outputs["additive"] == outputs["ksigma"]


    @pytest.mark.parametrize(
        "scale_flags",
        [
            ["--halfwidth", "1e-154"],
            ["--halfwidth", "1e-300"],
            ["--sigma", "1e-150", "--halfwidth", "1e-160"],
            ["--sigma", "1e100", "--halfwidth", "1e-100"],
        ],
    )
    def test_ksigma_verdict_independent_of_length_unit(self, scale_flags, capsys):
        # a halfwidth far below sigma excludes nothing the rule can see: each
        # run gives the hit counts of halfwidth / sigma = 1e-100
        common = ["validity", "--seed", "1", "--n-trials", "1000"]
        assert _run_warning_free(common + ["--halfwidth", "1e-100"]) == 0
        reference = capsys.readouterr()
        assert reference.out.splitlines()[1:] == [
            "0.01,0.009,0.00298646949,pass",
            "0.05,0.051,0.00695693898,pass",
            "0.1,0.105,0.00969407035,pass",
        ]
        assert _run_warning_free(common + scale_flags) == 0
        captured = capsys.readouterr()
        assert captured.out == reference.out
        assert captured.err == ""


    def test_ksigma_halfwidth_beyond_float_range_of_sigma(self, capsys):
        # the excluded ball would be 1e355 sigmas wide
        argv = ["validity", "--sigma", "1e-155", "--halfwidth", "1e200",
                "--seed", "1", "--n-trials", "1000"]
        assert _run_warning_free(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: halfwidth / sigma overflows at "
            "halfwidth = 1e+200, sigma = 1e-155\n"
        )


class TestFalseConfidenceCommand:
    def test_default_halfwidth_rate_one(self, capsys):
        status = run_command(
            ["false-confidence", "--n-trials", "2000", "--seed", "8"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "empirical_rate=1" in out

    def test_proof_halfwidth_rate_one_at_alpha_1e_9(self, capsys):
        # the theorem's "exactly one": 0.99992 when the beliefs lost the
        # interval mass to cancellation
        status = run_command(["false-confidence", "--sigma", "1", "--alpha", "1e-9",
                              "--n-trials", "100000", "--seed", "3"])
        assert status == 0
        assert capsys.readouterr().out.startswith("empirical_rate=1 p_target=1 ")

    def test_halfwidth_far_beyond_sigma(self, capsys):
        # halfwidth + 50 sigma rounds to halfwidth; the rate is exactly 0
        status = run_command(
            ["false-confidence", "--halfwidth", "1e18", "--n-trials", "2000", "--seed", "8"]
        )
        assert status == 0
        assert capsys.readouterr().out.startswith("empirical_rate=0 p_target=0 ")

    def test_tiny_sigma_keeps_the_digits_of_p_target(self, capsys):
        # the rate and p_target of halfwidth / sigma = 1.5, as at sigma 1
        status = _run_warning_free(
            ["false-confidence", "--sigma", "1e-20", "--halfwidth", "1.5e-20",
             "--alpha", "0.5", "--seed", "1"]
        )
        assert status == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "empirical_rate=0.1339 p_target=0.134503074 halfwidth=1.5e-20\n"
        )
        assert captured.err == ""

    @pytest.mark.parametrize(
        "sigma, halfwidth, alpha, seed",
        [("1", "0.5", "0.05", "3"), ("2", "0.8", "0.2", "21"),
         ("1e-200", "3e-200", "0.1", "5"), ("4e250", "1e250", "0.05", "8")],
    )
    def test_rate_is_the_additive_validity_rate(self, sigma, halfwidth, alpha, seed,
                                                capsys):
        # one engine: the same draws, beliefs and hit count in both commands
        common = ["--sigma", sigma, "--halfwidth", halfwidth,
                  "--n-trials", "70000", "--seed", seed]
        assert run_command(["false-confidence", "--alpha", alpha] + common) == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        argv = ["validity", "--rule", "additive", "--alpha-grid", alpha] + common
        assert run_command(argv) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1] == fields["empirical_rate"]
        assert 0.0 < float(row[1]) < 1.0

    @pytest.mark.parametrize("n_trials, blocks", [("200000", 0), ("50000", 1), ("200000", 4)])
    def test_empirical_rate_is_the_validity_rate(self, n_trials, blocks, streams, capsys):
        # false-confidence --alpha a is validity --rule additive --alpha-grid a:
        # decided at the proof halfwidth, and drawn over 1 and 4 blocks
        sigma, alpha = 1.5, 0.05
        halfwidth = proof_halfwidth(sigma, alpha) if blocks == 0 else 0.4
        common = ["--sigma", repr(sigma), "--halfwidth", repr(halfwidth),
                  "--n-trials", n_trials, "--seed", "9"]
        assert run_command(["false-confidence", "--alpha", repr(alpha)] + common) == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert len(streams) == blocks
        argv = ["validity", "--rule", "additive", "--alpha-grid", repr(alpha)] + common
        assert run_command(argv) == 0
        assert len(streams) == 2 * blocks
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1] == fields["empirical_rate"]
        assert (fields["empirical_rate"] == "1") == (blocks == 0)

    def test_proof_halfwidth_at_alpha_7e_220_draws_no_block(self, streams, capsys):
        # float logs of the centre mass and of alpha, both near -505 (one ulp
        # 1.1e-13), gave this level an edge of 3.4e-7: all 31 blocks were
        # drawn, and this seed printed empirical_rate=0.999999 p_target=0.999999731
        status = run_command(["false-confidence", "--alpha", "7.118364915588162e-220",
                              "--n-trials", "2000000", "--seed", "2"])
        assert status == 0
        assert capsys.readouterr().out.startswith("empirical_rate=1 p_target=1 ")
        assert streams == []

    def test_seed_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 12\n", encoding="utf-8")
        status = run_command(
            [
                "--config", str(cfg),
                "false-confidence", "--n-trials", "2000",
            ]
        )
        assert status == 0
        assert "empirical_rate=1" in capsys.readouterr().out


class TestErrorPaths:
    @pytest.mark.parametrize("argv, status, err", [
        (["validity", "--sigma", "0", "--halfwidth", "0.1"],
         2, "error: this command is stochastic; " + _SEED_HINT),
        (["validity", "--halfwidth", "0.1", "--alpha-grid", "0.1,x"],
         2, "error: this command is stochastic; " + _SEED_HINT),
        (["validity", "--sigma", "-1", "--halfwidth", "0", "--seed", "1"],
         2, "error: sigma must be positive, got -1.0"),
        (["validity", "--sigma", "0", "--halfwidth", "0.1", "--alpha-grid", "0.1,x", "--seed", "1"],
         2, "error: sigma must be positive, got 0.0"),
        (["validity", "--halfwidth", "-0.1", "--alpha-grid", "0.1,x", "--seed", "1"],
         2, "error: halfwidth must be positive, got -0.1"),
        (["validity", "--halfwidth", "0", "--n-trials", "999", "--seed", "1"],
         2, "error: halfwidth must be positive, got 0.0"),
        (["validity", "--sigma", "1e-300", "--halfwidth", "1e300", "--alpha-grid", "x",
          "--seed", "1"],
         3, "numerical failure: halfwidth / sigma overflows at halfwidth = 1e+300, "
            "sigma = 1e-300"),
        (["validity", "--sigma", "1e-300", "--halfwidth", "1e300", "--alpha-grid", "-0.5",
          "--seed", "1"],
         3, "numerical failure: halfwidth / sigma overflows at halfwidth = 1e+300, "
            "sigma = 1e-300"),
        (["validity", "--sigma", "1e300", "--halfwidth", "1e-300", "--n-trials", "999",
          "--seed", "1"],
         3, "numerical failure: halfwidth / sigma underflows to 0 at halfwidth = 1e-300, "
            "sigma = 1e+300"),
        (["validity", "--halfwidth", "0.1", "--alpha-grid", "0.05;0.1", "--n-trials", "999",
          "--seed", "1"],
         2, "error: --alpha-grid must be comma-separated floats, got '0.05;0.1'"),
        (["validity", "--halfwidth", "0.1", "--alpha-grid", "0.05,1.5", "--n-trials", "999",
          "--seed", "1"],
         2, "error: n_trials must be >= 1000, got 999"),
        (["false-confidence", "--sigma", "0"],
         2, "error: this command is stochastic; " + _SEED_HINT),
        (["false-confidence", "--alpha", "1.5"],
         2, "error: this command is stochastic; " + _SEED_HINT),
        (["false-confidence", "--sigma", "0", "--halfwidth", "0", "--seed", "1"],
         2, "error: sigma must be positive, got 0.0"),
        # the level is checked first with --halfwidth, after sigma without it
        (["false-confidence", "--sigma", "-1", "--alpha", "1.5", "--halfwidth", "0.1",
          "--seed", "1"],
         2, "error: alpha must be in (0, 1), got 1.5"),
        (["false-confidence", "--sigma", "-1", "--alpha", "1.5", "--seed", "1"],
         2, "error: sigma must be positive, got -1.0"),
        (["false-confidence", "--halfwidth", "-1", "--n-trials", "999", "--seed", "1"],
         2, "error: halfwidth must be positive, got -1.0"),
        (["false-confidence", "--sigma", "1e-300", "--halfwidth", "1e300", "--n-trials", "999",
          "--seed", "1"],
         3, "numerical failure: halfwidth / sigma overflows at halfwidth = 1e+300, "
            "sigma = 1e-300"),
        (["false-confidence", "--sigma", "1e300", "--halfwidth", "1e-300", "--alpha", "0",
          "--seed", "1"],
         2, "error: alpha must be in (0, 1), got 0.0"),
        (["false-confidence", "--sigma", "1e300", "--halfwidth", "1e-300", "--n-trials", "999",
          "--seed", "1"],
         3, "numerical failure: halfwidth / sigma underflows to 0 at halfwidth = 1e-300, "
            "sigma = 1e+300"),
        (["false-confidence", "--alpha", "1", "--n-trials", "999", "--seed", "1"],
         2, "error: alpha must be in (0, 1), got 1.0"),
    ])
    def test_first_of_two_faults_is_reported(self, argv, status, err, capsys):
        assert run_command(argv) == status
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err + "\n")

    @pytest.mark.parametrize("argv", [
        ["pc", "--input", str(GOLDEN_INPUTS / "full12.json")],
        ["screen", "--input", str(GOLDEN_INPUTS / "full12.json")],
        ["boundary", "--threshold", "1e-4"],
        ["dilution-curve", "--d-over-r", "1", "--n-points", "16"],
        ["detection-curve", "--s-over-r", "2", "--d-true", "0.5"],
        ["validity", "--halfwidth", "0.1", "--seed", "1"],
        ["false-confidence", "--seed", "1"],
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_output_prints_nothing(self, argv, fmt, tmp_path, capsys):
        # the file is written before anything is printed
        path = tmp_path / "missing" / "out"
        assert run_command(argv + ["--output", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize(
        "argv, fate",
        [
            (["false-confidence", "--sigma", "1e-300", "--halfwidth", "1e160"],
             "overflows"),
            (["false-confidence", "--sigma", "1e300", "--halfwidth", "1e-300"],
             "underflows to 0"),
            (["validity", "--rule", "additive", "--sigma", "1e-300",
              "--halfwidth", "1e160"], "overflows"),
            (["validity", "--rule", "additive", "--sigma", "1e300",
              "--halfwidth", "1e-300"], "underflows to 0"),
            (["validity", "--sigma", "1e300", "--halfwidth", "1e-300"],
             "underflows to 0"),
        ],
    )
    def test_halfwidth_over_sigma_beyond_float_range_exits_three(
        self, argv, fate, capsys
    ):
        status = _run_warning_free(argv + ["--n-trials", "1000", "--seed", "1"])
        assert status == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"numerical failure: halfwidth / sigma {fate} ")

    def test_unknown_subcommand(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run_command(["boundary", "--threshold", "0.1", "--bogus"]) == 2

    def test_missing_input_file(self, tmp_path, capsys):
        status = run_command(["pc", "--input", str(tmp_path / "nope.json")])
        assert status == 2

    def test_malformed_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run_command(["pc", "--input", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["radius_m", "position_m"])
    def test_json_integer_beyond_float_range_exits_two(self, field, tmp_path, capsys):
        doc = _head_on_doc()
        huge = 10**400
        if field == "radius_m":
            doc["object1"]["radius_m"] = huge
        else:
            doc["object1"]["position_m"][0] = huge
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_command(["pc", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: field object1.{field} holds a number too large for a float\n"
        )

    @pytest.mark.parametrize("value", ["1_0", "\u0661\u0662", "\uff11\uff12"],
                             ids=["underscore", "arabic-indic", "full-width"])
    def test_kvn_number_outside_ascii_grammar_exits_two(self, value, tmp_path, capsys):
        # float() reads each of these as a number; JSON's grammar, and KVN's,
        # do not
        kvn = (Path(__file__).parent / "golden" / "inputs" / "offset.kvn").read_text()
        path = tmp_path / "offset.kvn"
        path.write_text(kvn.replace("OBJECT1_Y = 0.0 [m]", f"OBJECT1_Y = {value} [m]"),
                        encoding="utf-8")
        assert run_command(["pc", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: line 2: value for OBJECT1_Y is not a number: {value!r}\n"
        )

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        assert run_command(["pc", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid JSON: ")

    def test_input_format_flag_is_unknown(self, head_on_file, capsys):
        status = run_command(
            ["pc", "--input", str(head_on_file), "--input-format", "json"]
        )
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --input-format json" in captured.err

    def test_numerical_failure_maps_to_three(self, monkeypatch, capsys):
        def boom(threshold):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(probability, "dilution_boundary", boom)
        assert run_command(["boundary", "--threshold", "0.1"]) == 3

    @pytest.mark.parametrize(
        "error", sorted(set(_error_classes()), key=lambda cls: cls.__name__),
        ids=lambda cls: cls.__name__,
    )
    def test_every_package_error_maps_to_exit_code(self, error, monkeypatch, capsys):
        def boom(threshold):
            raise error("synthetic failure")

        monkeypatch.setattr(probability, "dilution_boundary", boom)
        status = run_command(["boundary", "--threshold", "0.1"])
        numerical = issubclass(error, NumericalError)
        assert status == (3 if numerical else 2)
        prefix = "numerical failure" if numerical else "error"
        assert capsys.readouterr().err == f"{prefix}: synthetic failure\n"

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n", encoding="utf-8")
        assert run_command(["--config", str(cfg), "boundary", "--threshold", "0.1"]) == 2

    def test_config_file_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\n")
        argv = ["--config", str(cfg), "boundary", "--threshold", "1e-4"]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: input is not valid UTF-8: ")


def test_run_command_builds_no_parser(head_on_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ["boundary", "--threshold", "0.1"],
        ["pc", "--input", str(head_on_file)],
        ["screen", "--input", str(head_on_file)],
        ["frobnicate"],
    ):
        run_command(argv)
    assert built == []


def test_readme_names_every_flag_and_no_other():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    parsers = [cli._PARSER] + [
        sub
        for action in cli._PARSER._actions
        if isinstance(action, argparse._SubParsersAction)
        for sub in action.choices.values()
    ]
    flags = {
        option
        for parser in parsers
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    assert set(re.findall(r"--[a-z][a-z0-9-]*", readme)) == flags - {"--help"}


def test_screen_and_validity_leave_scipy_optimize_unimported():
    # scipy.optimize costs about 0.3 s to import; no ellipsoid decision needs it
    src = Path(__file__).parents[1] / "src"
    full12 = Path(__file__).parent / "golden" / "inputs" / "full12.json"
    script = (
        "import sys\n"
        "from conjrisk.cli import run_command\n"
        f"assert run_command(['screen', '--input', {str(full12)!r}, '--k-sigma', '5']) == 0\n"
        "assert run_command(['validity', '--rule', 'ksigma', '--halfwidth', '0.1',"
        " '--n-trials', '1000', '--seed', '3']) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_import_surface():
    # in a fresh interpreter: the package imports nothing; pc, screen and
    # boundary on every golden case, false-confidence (also with a halfwidth
    # wider than the proof halfwidth, which solves for its band edge) and
    # validity --rule additive leave scipy unimported; and no command
    # imports scipy.optimize, not even the K-sigma validity rule
    from test_golden import CASES, _argv

    light = [_argv(case) for case in sorted(CASES)
             if case.startswith(("pc_", "screen_", "boundary"))]
    light += [["false-confidence", "--n-trials", "2000", "--seed", "8"],
              ["false-confidence", "--halfwidth", "0.5", "--n-trials", "2000", "--seed", "8"],
              ["validity", "--rule", "additive", "--halfwidth", "0.1", "--n-trials", "1000",
               "--seed", "3"]]
    heavy = [["validity", "--halfwidth", "0.1", "--n-trials", "1000", "--seed", "3"]]
    script = (
        "import io, json, sys, contextlib\n"
        "import conjrisk\n"
        "print(sorted(m for m in sys.modules if m.startswith(('conjrisk.', 'scipy'))))\n"
        "from conjrisk.cli import run_command\n"
        "light, heavy = json.loads(sys.argv[1])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    light = [run_command(argv) for argv in light]\n"
        "print(light, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    heavy = [run_command(argv) for argv in heavy]\n"
        "print(heavy, 'scipy.optimize' in sys.modules)\n"
    )
    src = Path(__file__).parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script, json.dumps([light, heavy])],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    imported, after_light, after_heavy = done.stdout.splitlines()
    assert len(light) == 12
    assert imported == "[]"
    assert after_light == f"{[0] * len(light)} []"
    assert after_heavy == "[0] False"


def test_every_exported_name_resolves():
    # the lazy map must not keep a name its module no longer defines
    import conjrisk

    assert [name for name in conjrisk.__all__ if not hasattr(conjrisk, name)] == []


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            status = run_command(
                [
                    "detection-curve", "--s-over-r", "10", "--d-true", "0",
                    "--method", "monte-carlo", "--n-trials", "20000",
                    "--seed", "99", "--threshold-grid", "1e-7,4.4e-4,1e-2",
                    "--output", str(out), "--format", "csv",
                ]
            )
            assert status == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]
