"""Collision probability: closed forms, Monte Carlo oracle, quadrature."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from conjrisk.probability import MAX_CURVE_POINTS, auto_n_quad, pc_circular_batch

from conftest import mc_pc_oracle, mp_pc_circular

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
        # the 64-point contour resolves the circle from s/r = 0.1 up; it
        # has an absolute floor of about 1e-17 from cancellation
        for s in (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0):
            for d in (0.0, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0):
                contour = pc_contour(_encounter(d, 0.0, s, s)).pc
                circular = pc_circular(d, s)
                assert abs(contour - circular) <= min(2e-10, 1e-4 * circular + 1e-16)

    def test_batch_matches_scalar(self):
        for s in (0.05, 0.7, 4.0, 60.0):
            d = np.concatenate([np.linspace(0.0, 3.0, 25), [0.99, 1.0, 1.01, 7.5]])
            batch = pc_circular_batch(d, s)
            for d_i, p_i in zip(d, batch):
                assert p_i == pytest.approx(pc_circular(float(d_i), s), rel=1e-13, abs=1e-300)


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
        from conjrisk.probability import _contour_integral

        rng = np.random.default_rng(5)
        for _ in range(20):
            enc = _random_encounter(rng)
            base = pc_contour(enc).pc
            flipped = pc_contour(
                _encounter(-enc.u_hat, -enc.v_hat, enc.s1, enc.s2)
            ).pc
            assert flipped == pytest.approx(base, abs=1e-10)
            # exchange (u, s1) <-> (v, s2) via the raw integrand, since the
            # encounter type itself enforces the s1 >= s2 ordering
            n = auto_n_quad(enc.s1, enc.s2)
            direct = float(
                _contour_integral(np.array(enc.u_hat), enc.v_hat,
                                  enc.s1, enc.s2, 1.0, n)
            )
            exchanged = float(
                _contour_integral(np.array(enc.v_hat), enc.u_hat,
                                  enc.s2, enc.s1, 1.0, n)
            )
            assert exchanged == pytest.approx(direct, abs=1e-10)

    def test_strictly_decreasing_in_displacement(self):
        for s in (0.5, 2.0, 10.0):
            d_grid = np.linspace(0.0, 8.0, 60)
            pcs = pc_circular_batch(d_grid, s)
            diffs = np.diff(pcs)
            assert np.all(diffs < 1e-12)


class TestQuadrature:
    def test_auto_rule(self):
        assert auto_n_quad(1.0, 1.0) == 64
        assert auto_n_quad(10.0, 1.0) == 100
        assert auto_n_quad(1.0, 12.5) == 126  # ceil(125) rounded even

    def test_convergence_at_rule_count(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            enc = _random_encounter(rng)
            n = auto_n_quad(enc.s1, enc.s2)
            a = pc_contour(enc, n_quad=n).pc
            b = pc_contour(enc, n_quad=2 * n).pc
            assert abs(a - b) < 1e-9

    def test_error_estimate_and_flag(self):
        enc = _encounter(2.0, 1.0, 4.0, 1.0)
        auto = pc_contour(enc)
        assert auto.n_quad == 64
        assert auto.n_quad % 2 == 0
        assert not auto.below_min_quad
        assert auto.quad_error_est >= 0.0
        low = pc_contour(enc, n_quad=10)
        assert low.below_min_quad
        assert 0.0 <= low.pc <= 1.0

    def test_invalid_inputs(self):
        enc = _encounter(1.0, 0.0, 2.0, 1.0)
        with pytest.raises(InputValidationError):
            pc_contour(enc, n_quad=0)
        with pytest.raises(InputValidationError):
            pc_circular(-1.0, 2.0)
        with pytest.raises(InputValidationError):
            pc_circular(1.0, 0.0)

    def test_pc_result_validation(self):
        with pytest.raises(InputValidationError):
            PcResult(pc=1.5, n_quad=64, quad_error_est=0.0)
        with pytest.raises(InputValidationError):
            PcResult(pc=0.5, n_quad=0, quad_error_est=0.0)


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
