"""Collision probability: closed forms, Monte Carlo and mpmath oracles, quadrature."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conjrisk import (
    InputValidationError,
    NumericalError,
    PcResult,
    StandardizedEncounter,
    dilution_curve,
    max_pc_head_on,
    ncx2_cdf,
    pc_circular,
    pc_contour,
)
from conjrisk import probability
from conjrisk.probability import MAX_CURVE_POINTS, _strip_integral, pc_circular_batch

from conftest import mc_pc_oracle, mp_pc, mp_pc_circular


def mp_peak_s_over_r(d_over_r: float):
    """``s/r`` of the dilution peak at 40 digits: the root of
    ``I1(z) / I0(z) = 1/d`` with ``z = d / s^2``, found in ``w = z d / 2``
    (near 1 for large ``d``) or from the asymptotic root near ``d = 1``."""
    with mpmath.workdps(40):
        d = mpmath.mpf(d_over_r)
        gap = (d - 1) / d
        if gap < 0.1:
            z = mpmath.findroot(
                lambda z: mpmath.besseli(1, z) / mpmath.besseli(0, z) - 1 / d,
                (1 + mpmath.sqrt(1 + 2 * gap)) / (4 * gap),
            )
        else:
            w = mpmath.findroot(
                lambda w: d * mpmath.besseli(1, 2 * w / d) / mpmath.besseli(0, 2 * w / d) - 1,
                1,
            )
            z = 2 * w / d
        return mpmath.sqrt(d / z)

# frozen 1e7-sample oracle values (seed 20240101), fraction and standard error
FIG2_ORACLE = {
    1.6: (2.07570000e-03, 1.44e-05),
    3.5: (1.47400000e-02, 3.81e-05),
    20.0: (1.19830000e-03, 1.09e-05),
    160.0: (2.00000000e-05, 1.41e-06),
}


def _encounter(u, v, s1, s2, r=1.0):
    return StandardizedEncounter(u_hat=u, v_hat=v, s1=s1, s2=s2, r_combined=r)


def _random_encounter(rng):
    s1 = rng.uniform(0.5, 5.0)
    s2 = rng.uniform(0.5, 5.0)
    if s2 > s1:
        s1, s2 = s2, s1
    d_scale = rng.uniform(0.0, 3.0)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return _encounter(
        d_scale * s1 * np.cos(angle), d_scale * s2 * np.sin(angle), s1, s2
    )


class TestClosedForms:
    def test_head_on_equal_deviations(self):
        assert pc_circular(0.0, 10.0) == pytest.approx(
            1.0 - math.exp(-1.0 / 200.0), abs=1e-9
        )

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 3.0, 10.0, 100.0, 1000.0])
    def test_head_on_closed_form_across_scales(self, s):
        expected = 1.0 - math.exp(-1.0 / (2.0 * s * s))
        assert pc_circular(0.0, s) == pytest.approx(expected, abs=1e-9)
        assert max_pc_head_on(s) == pytest.approx(expected, abs=1e-12)
        # critical_displacement compares thresholds with this maximum
        assert pc_circular(0.0, s) == max_pc_head_on(s)

    def test_max_head_on_limits(self):
        assert max_pc_head_on(1.0) == pytest.approx(1.0 - math.exp(-0.5), rel=1e-12)
        assert max_pc_head_on(1e8) < 1e-15
        # 2 s^2 underflows to 0 and to a subnormal
        assert max_pc_head_on(1e-300) == max_pc_head_on(1e-160) == 1.0
        values = [max_pc_head_on(s) for s in np.geomspace(0.1, 1000.0, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_vanishing_radius(self):
        enc = _encounter(1.0, 0.0, 1.0, 1.0, r=1e-9)
        assert pc_contour(enc).pc < 1e-12

    def test_vanishing_tail(self):
        assert pc_circular(50.0, 1.0) < 1e-12


class TestCircularSeries:
    def test_against_mpmath(self):
        # 40-digit Marcum Q values at the exact float arguments, from the
        # bulk down to Pc ~ 1e-200 (d and s are rounded once when the
        # kernel forms (d/s)^2 and 1/s^2, which costs up to about 2e-13
        # relative in the far tail at s/r = 0.01)
        checked = 0
        for s in (0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0):
            for d in (0.0, 0.5, 1.0, 1.2, 1.3, 2.0, 3.0, 4.0, 5.0, 8.0, 12.0, 20.0):
                if s < 0.05 and d > 1.3:
                    continue  # Pc < 1e-300
                ref = mp_pc_circular(d, s)
                if ref < 1e-200:
                    continue
                assert pc_circular(d, s) == pytest.approx(float(ref), rel=1e-12, abs=0.0)
                checked += 1
        assert checked >= 60

    def test_contour_agrees_at_equal_deviations(self):
        # two independent kernels: the strip quadrature and the ncx2 series
        for s in (0.01, 0.03, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0):
            for d in (0.0, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0):
                contour = pc_contour(_encounter(d, 0.0, s, s)).pc
                circular = pc_circular(d, s)
                assert contour == pytest.approx(circular, rel=1e-11, abs=1e-300)

    def test_batch_matches_scalar(self):
        for s in (0.05, 0.7, 4.0, 60.0):
            d = np.concatenate([np.linspace(0.0, 3.0, 25), [0.99, 1.0, 1.01, 7.5]])
            batch = pc_circular_batch(d, s)
            for d_i, p_i in zip(d, batch):
                assert p_i == pytest.approx(pc_circular(float(d_i), s), rel=1e-13, abs=1e-300)

    def test_batch_broadcasts_over_both_ratios(self):
        d = np.array([0.0, 0.8, 3.0])[:, None]
        s = np.array([0.05, 0.7, 4.0, 60.0, 1e200])
        batch = pc_circular_batch(d, s)
        assert batch.shape == (3, 5)
        for (i, j), p in np.ndenumerate(batch):
            assert p == pytest.approx(pc_circular(float(d[i, 0]), s[j]), rel=1e-13, abs=1e-300)
        assert np.all(batch[:, -1] == 0.0)  # where s^2 overflows

    def test_batch_neighbours_move_a_value_within_5e_14(self):
        # rows share a series window with the rows whose windows are within
        # a factor of two, and the near-series dot goes through BLAS, so a
        # value depends on the rest of its batch: here 40 of 1200 points
        # differ from pc_circular, the worst by 2.8e-14 relative (220 ulp)
        d = np.linspace(0.3, 12.0, 40)[:, None]
        s = np.geomspace(0.05, 100.0, 30)
        batch = pc_circular_batch(d, s)
        scalar = np.vectorize(pc_circular)(d, s)
        moved = batch != scalar
        assert np.count_nonzero(moved) <= 60
        assert np.all(np.abs(batch - scalar)[moved] <= 5e-14 * scalar[moved])

    @pytest.mark.parametrize("d, message", [
        (1.0, "1 / s_over_r^2 overflows at s_over_r = 1e-160"),
        (1e200, "(d_over_r / s_over_r)^2 overflows at s_over_r = 1e-120"),
    ])
    def test_batch_overflow_names_the_smallest_ratio(self, d, message):
        s = [1.0, 1e-100, 1e-120] if d > 1.0 else [1.0, 1e-160, 1e-155]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape(message)):
                pc_circular_batch(d, s)


    @pytest.mark.parametrize(
        "d, s, ratio",
        [
            (0.0, 1e-300, "1 / s_over_r^2"),
            (0.0, 1e-160, "1 / s_over_r^2"),
            (1e200, 1e-200, "1 / s_over_r^2"),
            (1e200, 1e-100, "(d_over_r / s_over_r)^2"),
        ],
    )
    def test_overflowing_ratio_is_numerical_error(self, d, s, ratio):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape(ratio)):
                pc_circular(d, s)

    def test_finite_ratios_keep_their_bits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d, s in ((0.0, 1e-150), (2.0, 0.7), (1e-300, 1.0), (1e150, 1e150)):
                reference = ncx2_cdf(2, (d / s) ** 2, 1.0 / (s * s))
                assert pc_circular(d, s) == float(reference)


class TestMonteCarloOracle:
    def test_fig2_panel_values(self):
        # frozen independent-oracle fractions; rise then fall across the set
        values = {}
        for s, (frac, se) in FIG2_ORACLE.items():
            pc = pc_circular(5.0, s)
            assert pc == pytest.approx(frac, abs=3.0 * se)
            values[s] = pc
        assert values[1.6] < values[3.5]
        assert values[3.5] > values[20.0] > values[160.0]
        assert max(values.values()) == values[3.5]

    def test_random_encounters_against_sampling(self):
        rng = np.random.default_rng(42)
        for i in range(10):
            enc = _random_encounter(rng)
            result = pc_contour(enc)
            frac, se = mc_pc_oracle(
                enc.u_hat, enc.v_hat, enc.s1, enc.s2, enc.r_combined,
                n=10**6, seed=1000 + i,
            )
            assert result.pc == pytest.approx(frac, abs=3.0 * max(se, 1e-9))


class TestSymmetries:
    def test_sign_flip_and_axis_exchange(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            enc = _random_encounter(rng)
            base = pc_contour(enc).pc
            flipped = pc_contour(
                _encounter(-enc.u_hat, -enc.v_hat, enc.s1, enc.s2)
            ).pc
            assert flipped == pytest.approx(base, abs=1e-10)
            # exchange (u, s1) <-> (v, s2) in the kernel, since the
            # encounter type itself enforces the s1 >= s2 ordering; the
            # exchanged call integrates along the wider axis
            direct = _strip_integral(enc.u_hat, enc.v_hat, enc.s1, enc.s2)[0]
            exchanged = _strip_integral(enc.v_hat, enc.u_hat, enc.s2, enc.s1)[0]
            assert exchanged == pytest.approx(direct, rel=1e-10)

    def test_strictly_decreasing_in_displacement(self):
        for s in (0.5, 2.0, 10.0):
            d_grid = np.linspace(0.0, 8.0, 60)
            pcs = pc_circular_batch(d_grid, s)
            diffs = np.diff(pcs)
            assert np.all(diffs < 1e-12)


# (u, v, s1, s2) with r = 1: far tails, sharp strips and needles
MPMATH_CASES = [
    (10.0, 0.0, 1.0, 1.0 / 3.0),
    (8.0, 0.0, 1.0, 0.5),
    (5.0, 0.0, 0.5, 0.25),
    (20.0, 0.0, 1.0, 0.1),
    (1.0, 0.0, 0.01, 0.005),
    (0.5, 0.8660254037844386, 0.01, 1e-5),
    (1.0, 0.0, 0.1, 1e-4),
]


#: x from -1e150 to 40, with both sides of the switches at -37 and 0
LOG_NDTR_POINTS = sorted({
    *(-np.geomspace(1e-3, 1e150, 50)).tolist(), *np.linspace(-40.0, 40.0, 81).tolist(),
    -37.0 - 1e-9, -37.0 + 1e-9, -20.0 - 1e-9, -20.0 + 1e-9,
    -1e-12, -1e-300, 0.0, 1e-300, 1e-12,
})


class TestLogNdtr:
    # The argument's own rounding moves log Phi(x) by about x^2 * 1.1e-16, and
    # the log's rounding by its ulp, so the bound is 1e-15 absolute where
    # |log Phi| <= 1 and relative beyond; scipy's log_ndtr is off by 5.4e-14
    # at x = -19.9.
    @staticmethod
    def _bound(reference):
        return 1e-15 * np.maximum(1.0, np.abs(reference))

    @pytest.mark.parametrize("x", LOG_NDTR_POINTS)
    def test_against_mpmath(self, x):
        with mpmath.workdps(40):
            reference = mpmath.log(mpmath.ncdf(mpmath.mpf(x)))
            error = abs(float(probability.log_ndtr(x)) - reference)
        assert error <= self._bound(float(reference))

    def test_against_scipy(self):
        x = np.concatenate([-np.geomspace(1e-3, 1e150, 400), np.linspace(-40.0, 40.0, 801)])
        theirs = special.log_ndtr(x)
        ours = probability.log_ndtr(x)
        assert np.all(np.abs(ours - theirs) <= self._bound(theirs))

    def test_shape_kept(self):
        x = np.array([[1.0, -50.0], [0.0, -3.0]])
        assert np.array_equal(probability.log_ndtr(x), [[float(probability.log_ndtr(v)) for v in row]
                                                        for row in x])

    def test_end_of_float_range(self):
        # x^2 / 2 reaches the float range at x = -1.9e154; the other terms are
        # below 1e-300 of it there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near, past = probability.log_ndtr([-1.8e154, -1.9e154])[:2], probability.log_ndtr(
                [-1e300, -1.7976931348623157e308])
        with mpmath.workdps(40):
            x = mpmath.mpf(-1.8e154)
            reference = -x * x / 2 - mpmath.log(-x * mpmath.sqrt(2 * mpmath.pi))
        assert abs(near[0] - float(reference)) <= 1e-15 * abs(float(reference))
        assert near[1] == -math.inf and np.all(past == -math.inf)

    def test_smallest_deviation_ratio_runs_quietly(self):
        # at s2/r = 1e-300, just above where _strip_integral raises, with
        # arguments of log_ndtr near 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u, v, inside in ((0.0, 0.0, 1.0), (0.5, 0.3, 1.0), (0.999, 0.0, 1.0),
                                 (1.001, 0.0, 0.0)):
                pc = pc_contour(_encounter(u, v, 2e-300, 1e-300)).pc
                assert pc == pytest.approx(inside, rel=1e-10, abs=0.0)


class TestQuadrature:
    @pytest.mark.parametrize("u, v, s1, s2", MPMATH_CASES)
    def test_against_mpmath(self, u, v, s1, s2):
        result = pc_contour(_encounter(u, v, s1, s2))
        assert result.pc == pytest.approx(float(mp_pc(u, v, s1, s2, 1.0)), rel=1e-10, abs=0.0)

    def test_full12_far_tail_against_mpmath(self):
        # the encounter plane of tests/golden/inputs/full12.json
        plane = (-946.153118171137, -465.943775098459, 31.876935040547245,
                 26.792933806709893, 5.5)
        pc = pc_contour(_encounter(*plane[:4], r=plane[4])).pc
        assert pc == pytest.approx(float(mp_pc(*plane)), rel=1e-10, abs=0.0)
        assert 4.5e-258 < pc < 4.6e-258

    def test_beyond_the_strip_is_zero(self):
        # about 1e-7844: the 40-deviation window misses the disk
        assert pc_contour(_encounter(0.0, 20.0, 1.0, 0.1)) == PcResult(0.0, 0, 0.0)

    @pytest.mark.parametrize(
        "u, v, s1, s2",
        [(1e152, -2e152, 1e-41, 3e-43), (-1.3e263, -1.2e262, 1e86, 4e84), (1e308, 0.0, 1.0, 1.0)],
    )
    def test_far_offsets_underflow_quietly(self, u, v, s1, s2):
        # offsets of 1e162 to 1e318 radii: Pc underflows, with no overflow warning
        assert pc_contour(_encounter(u, v, s1, s2, r=1e-10)) == PcResult(0.0, 0, 0.0)

    def test_tiny_deviation_ratio_is_numerical_error(self):
        with pytest.raises(NumericalError, match="below 1e-300"):
            pc_contour(_encounter(0.0, 0.0, 1.0, 1e-301))

    def test_unconverged_rule_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(probability, "_MAX_PANELS", 2)
        with pytest.raises(NumericalError, match=r"reached 0\.50\d* with difference 0\.4"):
            pc_contour(_encounter(1.0, 0.0, 0.01, 0.005))

    def test_convergence_certified(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            enc = _random_encounter(rng)
            result = pc_contour(enc)
            panels = result.n_quad // 16
            assert result.n_quad == 16 * panels and panels & (panels - 1) == 0
            assert result.quad_error_est <= 1e-10 * result.pc

    def test_error_estimate_and_flag(self):
        enc = _encounter(2.0, 1.0, 4.0, 1.0)
        result = pc_contour(enc)
        assert 0.0 <= result.quad_error_est <= 1e-10 * result.pc
        # the result carries no point-count flag
        assert set(result.to_json_dict()) == {"pc", "n_quad", "quad_error_est"}

    def test_invalid_inputs(self):
        with pytest.raises(InputValidationError):
            pc_circular(-1.0, 2.0)
        with pytest.raises(InputValidationError):
            pc_circular(1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    d=st.floats(min_value=0.0, max_value=40.0),
    s=st.floats(min_value=0.05, max_value=400.0),
)
def test_probability_stays_in_unit_interval(d, s):
    pc = pc_circular(d, s)
    assert 0.0 <= pc <= 1.0


class TestDilutionCurve:
    def test_head_on_monotone_decreasing(self):
        curve = dilution_curve(0.0, 0.2, 200.0, 48)
        pcs = [p for _, p in curve.grid]
        assert all(a > b for a, b in zip(pcs, pcs[1:]))
        assert curve.peak_s_over_r == curve.grid[0][0]
        assert curve.peak_pc == pytest.approx(pcs[0], rel=1e-12)

    def test_unimodal_rise_then_fall(self):
        curve = dilution_curve(5.0, 0.5, 500.0, 64)
        pcs = np.array([p for _, p in curve.grid])
        signs = np.sign(np.diff(pcs))
        # one sign change: strictly rising then strictly falling
        changes = np.count_nonzero(np.diff(signs[signs != 0.0]) != 0.0)
        assert changes == 1

    def test_peak_matches_brute_force_grid(self):
        curve = dilution_curve(5.0, 0.5, 500.0, 64)
        fine = np.geomspace(0.5, 500.0, 10**4)
        brute = float(np.max([pc_circular(5.0, s) for s in fine]))
        assert curve.peak_pc == pytest.approx(brute, abs=1e-8)

    @pytest.mark.parametrize("d", [
        1.0 + 2.0**-40, 1.0 + 1e-9, 1.0 + 0.99e-6, 1.0 + 1.01e-6, 1.001, 1.01, 1.5,
        2.0, 5.0, 10.0, 1e4, 1e8, 1e150,
    ])
    def test_peak_against_mpmath(self, d):
        # 1 + 0.99e-6 takes the asymptotic root, 1 + 1.01e-6 the Newton solve
        reference = mp_peak_s_over_r(d)
        peak = probability._peak_s_over_r(d)
        assert peak == pytest.approx(float(reference), rel=1e-13 if d >= 1.01 else 1e-10)

    @settings(max_examples=200, deadline=None)
    @given(d=st.floats(0.0, 1.7976931348623157e308) | st.floats(1.0, 1.001))
    def test_peak_solve_is_quiet(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peak = probability._peak_s_over_r(d)
        assert peak == 0.0 if d <= 1.0 else 0.0 < peak < math.inf

    @pytest.mark.parametrize("d", [1.5, 2.0, 5.0, 10.0, 1e4])
    def test_peak_is_the_top_of_the_curve(self, d):
        s_star = probability._peak_s_over_r(d)
        curve = dilution_curve(d, s_star / 20.0, s_star * 20.0, 200)
        assert curve.peak_s_over_r == s_star
        assert curve.peak_pc >= max(p for _, p in curve.grid)
        for s in (s_star * (1.0 - 1e-6), s_star * (1.0 + 1e-6)):
            assert curve.peak_pc >= pc_circular(d, s)

    @pytest.mark.parametrize("d", [0.0, 0.5, 1.0])
    def test_no_peak_at_or_inside_the_radius(self, d):
        curve = dilution_curve(d, 0.3, 30.0, 16)
        assert curve.peak_s_over_r == 0.3
        assert curve.peak_pc == pc_circular(d, 0.3)

    def test_peak_outside_the_grid_is_clipped(self):
        # the peak at d/r = 5 is at s/r = 3.4995115
        assert dilution_curve(5.0, 0.5, 2.0, 16).peak_s_over_r == 2.0
        assert dilution_curve(5.0, 5.0, 50.0, 16).peak_s_over_r == 5.0

    def test_peak_independent_of_grid_size(self):
        peaks = {
            (curve.peak_s_over_r, curve.peak_pc)
            for curve in (dilution_curve(5.0, 0.5, 1000.0, n) for n in (16, 200, 100000))
        }
        assert len(peaks) == 1

    def test_grid_shape_and_validation(self):
        curve = dilution_curve(2.0, 1.0, 50.0, 16)
        assert len(curve.grid) == 16
        s_values = [s for s, _ in curve.grid]
        assert s_values == sorted(s_values)
        with pytest.raises(InputValidationError):
            dilution_curve(2.0, 5.0, 1.0, 32)
        with pytest.raises(InputValidationError):
            dilution_curve(2.0, 1.0, 50.0, 8)
        with pytest.raises(InputValidationError, match="< inf"):
            dilution_curve(2.0, 1.0, math.inf, 32)
        with pytest.raises(InputValidationError, match="n_points"):
            dilution_curve(2.0, 1.0, 50.0, MAX_CURVE_POINTS + 1)
