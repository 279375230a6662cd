"""CLI contract over the accepted input range, with every warning an error.

Each run writes its parse ``warning: …`` lines to stderr first. Then it
either exits 0 with finite numbers on stdout and nothing more on stderr,
or exits 2 or 3 with empty stdout and one more line on stderr. Lengths
enter the validity check of either rule and the false-confidence run only
through their ratio, so scaling ``--sigma`` and ``--halfwidth`` together
leaves the reported rates unchanged.
"""

import contextlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conjrisk.cli import run_command

from conftest import random_rotation


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run_command(argv)
    return status, out.getvalue(), err.getvalue()


def _check_contract(argv) -> tuple[int, str]:
    """Check one run against the contract; its exit status and stdout."""
    status, out, err = _run(argv)
    lines = err.splitlines()
    while lines and lines[0].startswith("warning: "):
        lines.pop(0)
    if status == 0:
        assert lines == [], err
        for token in re.split(r"[\s,=]+", out):
            try:
                value = float(token)
            except ValueError:
                continue
            assert math.isfinite(value), out
    else:
        assert status in (2, 3), (status, err)
        assert out == ""
        assert len(lines) == 1, err
    return status, out


#: A positive float anywhere from 1e-300 to 1e301.
magnitudes = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(min_value=1.0, max_value=9.99),
    st.integers(min_value=-300, max_value=300),
)
levels = st.sampled_from([0.0, 1e-3, 0.01, 0.05, 0.1, 0.5, 0.999, 1.0])


@seed(2026)
@settings(max_examples=12, deadline=None)
@given(
    rule=st.sampled_from(["ksigma", "additive"]),
    sigma=magnitudes,
    halfwidth=magnitudes,
    alphas=st.lists(levels, min_size=1, max_size=3),
    run_seed=st.integers(0, 2**31),
)
def test_validity_contract(rule, sigma, halfwidth, alphas, run_seed):
    _check_contract(
        ["validity", "--rule", rule, "--sigma", repr(sigma), "--halfwidth",
         repr(halfwidth), "--alpha-grid", ",".join(map(repr, alphas)),
         "--n-trials", "1000", "--seed", str(run_seed)]
    )


@seed(2027)
@settings(max_examples=40, deadline=None)
@given(
    sigma=magnitudes,
    halfwidth=st.none() | magnitudes,
    alpha=st.floats(min_value=1e-6, max_value=0.999),
    run_seed=st.integers(0, 2**31),
)
# a subnormal halfwidth / sigma once warned of an overflow in the ball mass
@example(sigma=1e9, halfwidth=1e-300, alpha=0.5, run_seed=0)
def test_false_confidence_contract(sigma, halfwidth, alpha, run_seed):
    argv = ["false-confidence", "--sigma", repr(sigma), "--alpha", repr(alpha),
            "--n-trials", "1000", "--seed", str(run_seed)]
    if halfwidth is not None:
        argv += ["--halfwidth", repr(halfwidth)]
    status, out = _check_contract(argv)
    if status == 0:
        assert 0.0 <= float(out.split()[0].removeprefix("empirical_rate=")) <= 1.0


@pytest.mark.parametrize("argv, stdout", [
    (["false-confidence", "--alpha", "0.5"],
     "empirical_rate=1 p_target=1 halfwidth=1e-300\n"),
    (["validity", "--rule", "additive", "--alpha-grid", "0.5"],
     "alpha,rate,stderr,verdict\n0.5,1,0,fail\n"),
])
def test_subnormal_halfwidth_over_sigma_runs_without_warning(argv, stdout):
    # halfwidth / sigma is 1e-309, subnormal: the neighborhood holds almost
    # no mass, so its complement is always believed
    status, out, err = _run(argv + ["--sigma", "1e9", "--halfwidth", "1e-300",
                                    "--n-trials", "1000", "--seed", "0"])
    assert (status, out, err) == (0, stdout, "")


@pytest.mark.parametrize("sigma, alpha", [(1.7e308, 0.9), (1.6e308, 0.99)])
def test_false_confidence_default_halfwidth_overflow_is_numerical(sigma, alpha):
    # the default halfwidth alpha * sigma * sqrt(pi / 2) itself overflows: a
    # numerical failure naming it and sigma, not a halfwidth of ``inf``
    # blamed on the user
    argv = ["false-confidence", "--sigma", repr(sigma), "--alpha", repr(alpha),
            "--n-trials", "1000", "--seed", "1"]
    _check_contract(argv)
    status, out, err = _run(argv)
    assert (status, out) == (3, "")
    assert err.startswith("numerical failure: proof halfwidth")
    assert f"sigma = {sigma!r}" in err


@pytest.mark.parametrize("sigma, alpha, halfwidth", [
    (1.5e308, 0.9, 1.6919740853759252e308),
    (1.7e308, 0.5, 1.065317016718175e308),
])
def test_false_confidence_default_halfwidth_near_float_max_runs(sigma, alpha, halfwidth):
    # alpha * sigma * sqrt(2 pi) overflows here, but the halfwidth does not
    argv = ["false-confidence", "--sigma", repr(sigma), "--alpha", repr(alpha),
            "--n-trials", "1000", "--seed", "1"]
    _check_contract(argv)
    status, out, err = _run(argv)
    assert (status, err) == (0, "")
    assert out.endswith(f" halfwidth={halfwidth:.9g}\n")


@seed(2028)
@settings(max_examples=60, deadline=None)
@given(threshold=magnitudes, radius=st.none() | magnitudes)
def test_boundary_contract(threshold, radius):
    argv = ["boundary", "--threshold", repr(threshold)]
    if radius is not None:
        argv += ["--combined-radius", repr(radius)]
    _check_contract(argv)


def _log_uniform(lo: float, hi: float):
    """A positive float from 10**lo to 10**hi, uniform in its exponent."""
    return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)


@seed(2034)
@settings(max_examples=100, deadline=None)
@given(
    s_over_r=magnitudes | _log_uniform(-3.0, 3.0),
    d_true=st.just(0.0) | magnitudes | _log_uniform(-3.0, 3.0),
    thresholds=st.none() | st.lists(levels | _log_uniform(-300.0, 0.0), min_size=1,
                                    max_size=4),
    method=st.sampled_from(["semi-analytic", "monte-carlo"]),
    run_seed=st.integers(0, 2**31),
)
def test_detection_curve_contract(s_over_r, d_true, thresholds, method, run_seed):
    argv = ["detection-curve", "--s-over-r", repr(s_over_r), "--d-true", repr(d_true),
            "--method", method, "--n-trials", "1000", "--seed", str(run_seed)]
    if thresholds is not None:
        argv += ["--threshold-grid", ",".join(map(repr, thresholds))]
    _check_contract(argv)


@seed(2035)
@settings(max_examples=100, deadline=None)
@given(
    d_over_r=st.just(0.0) | magnitudes | _log_uniform(-3.0, 3.0),
    s_min=magnitudes | _log_uniform(-3.0, 3.0),
    span=st.sampled_from([0.5, 1.0]) | _log_uniform(0.1, 12.0),
    n_points=st.integers(8, 48),
)
def test_dilution_curve_contract(d_over_r, s_min, span, n_points):
    # a span of at most 1, or an s_max past the float range, is a usage error
    _check_contract(
        ["dilution-curve", "--d-over-r", repr(d_over_r), "--s-min", repr(s_min),
         "--s-max", repr(s_min * span), "--n-points", str(n_points)]
    )


@st.composite
def _state_root(draw):
    """Symmetric square root of a 6x6 state covariance: a unit velocity
    block and a rotated position block, whose variances run from 1e-300 to
    1e299 with a largest-to-smallest ratio of up to 1e8."""
    smallest = draw(st.floats(-300.0, 291.0))
    ratios = draw(st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 8.0)))
    sd = 10.0 ** ((smallest + np.array([0.0, *ratios])) / 2)
    rot = random_rotation(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    root = np.eye(6)
    root[:3, :3] = (rot * sd) @ rot.T
    return root


@st.composite
def _conjunction_doc(draw):
    """A JSON conjunction file: positions 1e-150 to 1e150 m either side of
    the origin, radii 1e-300 to 1e8 m, with or without ``cross6``."""
    coordinate = st.builds(
        lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]),
        _log_uniform(-150.0, 150.0),
    )
    roots = [draw(_state_root()) for _ in range(2)]
    covariance = {
        f"object{n}_cov6": (root @ root).ravel().tolist()
        for n, root in enumerate(roots, start=1)
    }
    correlation = draw(st.none() | st.floats(-1.0, 1.0))
    if correlation is not None:
        covariance["cross6"] = (correlation * roots[0] @ roots[1]).ravel().tolist()
    objects = {
        f"object{n}": {
            "position_m": list(draw(st.tuples(coordinate, coordinate, coordinate))),
            "velocity_mps": [0.0, 0.0, velocity],
            "radius_m": draw(_log_uniform(-300.0, 8.0)),
        }
        for n, velocity in ((1, -3500.0), (2, 4000.0))
    }
    return {**objects, "covariance": covariance}


@seed(2030)
@settings(max_examples=200, deadline=None)
@given(doc=_conjunction_doc(), k=st.floats(0.5, 6.0))
def test_screen_contract(doc, k, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "screen_contract.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    status, out = _check_contract(["screen", "--input", str(path), "--k-sigma", repr(k)])
    if status == 0:
        decision = json.loads(out)
        assert (decision["frechet_bound"] <= decision["joint_confidence"] + 1e-15
                <= decision["confidence"] + 2e-15)


@seed(2031)
@settings(max_examples=200, deadline=None)
@given(doc=_conjunction_doc())
def test_pc_contract(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "pc_contract.json"
    output = path.with_name("pc_contract_output.json")
    output.unlink(missing_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
    status, _ = _check_contract(["pc", "--input", str(path), "--output", str(output)])
    if status == 0:
        result = json.loads(output.read_text(encoding="utf-8"))
        assert 0.0 <= result["pc"] <= 1.0
        assert type(result["n_quad"]) is int and result["n_quad"] >= 0
        assert result["quad_error_est"] >= 0.0


_SCALE_DRAWS = dict(
    sigma=st.floats(min_value=0.1, max_value=10.0),
    ratio=st.floats(min_value=1e-3, max_value=5.0),
    exponent=st.integers(min_value=-300, max_value=300),
    run_seed=st.integers(0, 2**31),
)


def _scaled_out(argv, sigma, ratio, scale, run_seed) -> str:
    status, out, err = _run(
        argv + ["--sigma", repr(sigma * scale), "--halfwidth",
                repr(ratio * sigma * scale), "--n-trials", "1000",
                "--seed", str(run_seed)]
    )
    assert (status, err) == (0, "")
    return out


@seed(2029)
@settings(max_examples=5, deadline=None)
@given(**_SCALE_DRAWS)
def test_ksigma_validity_independent_of_length_unit(sigma, ratio, exponent, run_seed):
    def rows(scale):
        return _scaled_out(["validity"], sigma, ratio, scale, run_seed)

    assert rows(10.0**exponent) == rows(1.0)


@seed(2032)
@settings(max_examples=5, deadline=None)
@given(**_SCALE_DRAWS)
def test_additive_validity_independent_of_length_unit(sigma, ratio, exponent, run_seed):
    def rows(scale):
        return _scaled_out(["validity", "--rule", "additive"], sigma, ratio, scale, run_seed)

    assert rows(10.0**exponent) == rows(1.0)


@seed(2033)
@settings(max_examples=5, deadline=None)
@given(alpha=st.floats(min_value=0.01, max_value=0.5), **_SCALE_DRAWS)
def test_false_confidence_independent_of_length_unit(
    alpha, sigma, ratio, exponent, run_seed
):
    # the echoed halfwidth is in the length unit; the rates are not
    def rates(scale):
        out = _scaled_out(["false-confidence", "--alpha", repr(alpha)],
                          sigma, ratio, scale, run_seed)
        return out.rsplit(" halfwidth=", 1)[0]

    assert rates(10.0**exponent) == rates(1.0)


_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _scaled_input(name: str, exponent: int) -> str:
    """Golden input ``name`` with every length multiplied by ``10**exponent``:
    positions, velocities and radii once, covariance entries twice."""
    scale = 10.0**exponent
    text = (_INPUTS / name).read_text(encoding="utf-8")
    if name.endswith(".kvn"):
        def rescale(match):
            factor = scale * scale if "**2" in match[3] else scale
            return f"{match[1]}= {float(match[2]) * factor!r} [{match[3]}]"

        return re.sub(r"^(.*?)= (\S+) \[(.*)\]$", rescale, text, flags=re.M)
    doc = json.loads(text)
    for body in (doc["object1"], doc["object2"]):
        for key in ("position_m", "velocity_mps"):
            body[key] = [v * scale for v in body[key]]
        body["radius_m"] *= scale
    doc["covariance"] = {
        key: [v * scale * scale for v in values] for key, values in doc["covariance"].items()
    }
    return json.dumps(doc)


def _pc_and_screen(name: str, text: str, tmp_path_factory) -> tuple[str, dict]:
    path = tmp_path_factory.getbasetemp() / f"scaled_{name}"
    path.write_text(text, encoding="utf-8")
    (pc_status, pc_out, _), (screen_status, screen_out, _) = (
        _run([command, "--input", str(path)]) for command in ("pc", "screen")
    )
    assert (pc_status, screen_status) == (0, 0)
    return pc_out, json.loads(screen_out)


@seed(2036)
@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(["head_on.json", "offset.kvn", "full12.json"]),
       exponent=st.integers(-150, 152))
@example(name="full12.json", exponent=150)  # np.linalg.norm overflowed here
@example(name="full12.json", exponent=152)  # and ||delta||^2 here
@example(name="full12.json", exponent=-150)
def test_pc_and_screen_independent_of_length_unit(name, exponent, tmp_path_factory):
    pc, screen = _pc_and_screen(name, _scaled_input(name, exponent), tmp_path_factory)
    pc_1, screen_1 = _pc_and_screen(name, _scaled_input(name, 0), tmp_path_factory)
    assert pc == pc_1
    assert screen["overlap"] == screen_1["overlap"]
    assert screen["min_distance_m"] / 10.0**exponent == pytest.approx(
        screen_1["min_distance_m"], rel=1e-12, abs=0.0
    )


def test_distance_beyond_the_square_root_of_float_max(tmp_path):
    # the centre offset's squared norm overflowed past 1.34e154 m, and the
    # distance printed as Infinity with a numpy overflow warning
    path = tmp_path / "far.json"
    path.write_text(_scaled_input("full12.json", 152), encoding="utf-8")
    status, out, err = _run(["screen", "--input", str(path)])
    assert (status, err) == (0, "")
    assert json.loads(out)["min_distance_m"] == pytest.approx(
        1e152 * 950.6707187292401, rel=1e-9, abs=0.0
    )


def test_subnormal_semi_axes_fail_with_one_message(tmp_path):
    # 1 / subnormal semi-axis is inf, and inf * 0 printed numpy's "invalid
    # value" warnings before the overflow was reported
    path = tmp_path / "tiny.json"
    path.write_text(_scaled_input("head_on.json", -150), encoding="utf-8")
    status, out, err = _run(["screen", "--input", str(path), "--k-sigma", "1e-170"])
    assert (status, out) == (3, "")
    assert err.splitlines() == [
        _MISSING_CROSS.strip(),
        "numerical failure: standardized ellipsoid offset or axis ratio overflows",
    ]


_MISSING_CROSS = "warning: cross-covariance missing, defaulting to zero\n"


@pytest.mark.parametrize(
    "command, name, field, index, warning",
    [
        pytest.param("pc", "head_on.json", "object1_cov6", 0, _MISSING_CROSS, id="pc"),
        pytest.param("screen", "head_on.json", "object1_cov6", 0, _MISSING_CROSS,
                     id="screen"),
        pytest.param("pc", "full12.json", "cov12_row_major", 0, "", id="pc-full12-xx"),
        pytest.param("screen", "full12.json", "cov12_row_major", 0, "",
                     id="screen-full12-xx"),
        pytest.param("screen", "full12.json", "cov12_row_major", 13, "",
                     id="screen-full12-yy"),
    ],
)
def test_variance_near_float_max_runs_quietly(command, name, field, index, warning,
                                              tmp_path):
    # 0.5 * (C + C^T) overflowed past 9e307 when the covariance was
    # symmetrized, and M^T M in the screen's Newton probe past 1.3e154 m
    doc = json.loads((_INPUTS / name).read_text(encoding="utf-8"))
    doc["covariance"][field][index] = 1.5e308
    path = tmp_path / "huge_variance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    status, out, err = _run([command, "--input", str(path)])
    assert status == 0, err
    assert err == warning
