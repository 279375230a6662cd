"""CLI contract over the accepted input range, with every warning an error.

Each run either exits 0 with finite numbers on stdout and nothing but
``warning: …`` lines on stderr, or exits 2 or 3 with empty stdout and one
line on stderr. Lengths enter the K-sigma validity check only through their
ratio, so scaling ``--sigma`` and ``--halfwidth`` together leaves its
report unchanged.
"""

import contextlib
import io
import math
import re
import warnings

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conjrisk.cli import run_command


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run_command(argv)
    return status, out.getvalue(), err.getvalue()


def _check_contract(argv) -> None:
    status, out, err = _run(argv)
    if status == 0:
        assert all(line.startswith("warning: ") for line in err.splitlines()), err
        for token in re.split(r"[\s,=]+", out):
            try:
                value = float(token)
            except ValueError:
                continue
            assert math.isfinite(value), out
    else:
        assert status in (2, 3), (status, err)
        assert out == ""
        assert len(err.splitlines()) == 1, err


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
def test_false_confidence_contract(sigma, halfwidth, alpha, run_seed):
    argv = ["false-confidence", "--sigma", repr(sigma), "--alpha", repr(alpha),
            "--n-trials", "1000", "--seed", str(run_seed)]
    if halfwidth is not None:
        argv += ["--halfwidth", repr(halfwidth)]
    _check_contract(argv)


@seed(2028)
@settings(max_examples=60, deadline=None)
@given(threshold=magnitudes, radius=st.none() | magnitudes)
def test_boundary_contract(threshold, radius):
    argv = ["boundary", "--threshold", repr(threshold)]
    if radius is not None:
        argv += ["--combined-radius", repr(radius)]
    _check_contract(argv)


@seed(2029)
@settings(max_examples=5, deadline=None)
@given(
    sigma=st.floats(min_value=0.1, max_value=10.0),
    ratio=st.floats(min_value=1e-3, max_value=5.0),
    exponent=st.integers(min_value=-150, max_value=150),
    run_seed=st.integers(0, 2**31),
)
def test_ksigma_validity_independent_of_length_unit(sigma, ratio, exponent, run_seed):
    def rows(scale):
        status, out, err = _run(
            ["validity", "--sigma", repr(sigma * scale), "--halfwidth",
             repr(ratio * sigma * scale), "--n-trials", "1000",
             "--seed", str(run_seed)]
        )
        assert (status, err) == (0, "")
        return out

    assert rows(10.0**exponent) == rows(1.0)
