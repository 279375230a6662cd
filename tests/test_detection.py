"""Threshold detection rates, the noncentral chi-squared series, and the
false-confidence simulation."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special, stats

import conjrisk.detection as detection_module
from conjrisk import (
    InputValidationError,
    NumericalError,
    critical_displacement,
    detection_curve,
    detection_rate,
    dilution_boundary,
    false_confidence_demo,
    max_pc_head_on,
    ncx2_cdf,
    pc_circular,
    proof_halfwidth,
)
from conjrisk.probability import _ncx2_scalar, _ncx2_terms, pc_circular_batch

from conftest import mp_ncx2_cdf, mp_pc_circular

# frozen 1e7-sample oracle (seed 77): sum of two shifted squared normals
NCX2_ORACLE_VALUE = 0.5851047
NCX2_ORACLE_SE = 1.5581e-04

# frozen bisection result for the critical displacement at the upper
# operational threshold with s_over_r = 10
CRITICAL_D_UPPER_10 = 2.206351411369724


class TestNcx2Cdf:
    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0, 6.0, 20.0])
    def test_central_case_closed_form(self, x):
        assert ncx2_cdf(2, 0.0, x) == pytest.approx(
            1.0 - math.exp(-x / 2.0), abs=1e-12
        )

    def test_zero_point(self):
        assert ncx2_cdf(2, 4.0, 0.0) == 0.0

    def test_against_sampling_oracle(self):
        assert ncx2_cdf(2, 4.0, 6.0) == pytest.approx(
            NCX2_ORACLE_VALUE, abs=3.0 * NCX2_ORACLE_SE
        )

    def test_against_library_reference(self):
        # extra cross-check on a grid, independent of the series route
        for dof in (1, 2, 3, 7):
            for lam in (0.0, 0.01, 1.0, 4.0, 25.0, 300.0):
                for x in (0.5, 3.0, 10.0, 80.0):
                    assert ncx2_cdf(dof, lam, x) == pytest.approx(
                        float(stats.ncx2.cdf(x, dof, lam)) if lam > 0
                        else float(stats.chi2.cdf(x, dof)),
                        abs=1e-12,
                    )

    def test_monotonicity(self):
        xs = np.linspace(0.0, 30.0, 40)
        values = [ncx2_cdf(2, 3.0, x) for x in xs]
        assert all(a <= b for a, b in zip(values, values[1:]))
        lams = np.linspace(0.0, 20.0, 30)
        values = [ncx2_cdf(2, lam, 5.0) for lam in lams]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_input_validation(self):
        with pytest.raises(InputValidationError):
            ncx2_cdf(0, 1.0, 1.0)
        with pytest.raises(InputValidationError):
            ncx2_cdf(2, -1.0, 1.0)
        with pytest.raises(InputValidationError):
            ncx2_cdf(2, 1.0, float("nan"))
        with pytest.raises(InputValidationError):
            ncx2_cdf(2, [1.0, math.inf], 1.0)

    @pytest.mark.parametrize("dof", [True, False, 2.0])
    def test_non_integer_dof_rejected(self, dof):
        with pytest.raises(InputValidationError, match="dof"):
            ncx2_cdf(dof, 1.0, 1.0)

    @pytest.mark.parametrize("dof", range(1, 8))
    def test_against_mpmath(self, dof):
        # from the bulk to the far lower tail, where the mass sits far
        # below the Poisson mode; 40-digit references
        cases = [(0.0, 0.5), (0.0, 7.0)]
        for lam in (1e-3, 0.5, 3.0, 25.0, 300.0, 2000.0):
            cases += [(lam, q * (lam + dof)) for q in (1e-3, 0.3, 1.0, 2.0, 5.0)]
        for lam in (300.0, 1000.0, 2000.0):
            cases += [(lam, (math.sqrt(lam) - z) ** 2) for z in (3.0, 12.0, 19.0, 28.0, 30.0)]
        checked = 0
        for lam, x in cases:
            ref = mp_ncx2_cdf(dof, lam, x)
            if ref < 1e-200:
                continue
            assert ncx2_cdf(dof, lam, x) == pytest.approx(float(ref), rel=1e-12, abs=0.0)
            checked += 1
        assert checked >= 30

    def test_arrays_match_scalar_calls(self):
        lam = np.array([0.0, 0.2, 4.0, 90.0, 3000.0])
        x = np.array([[0.0], [0.7], [6.0], [80.0], [2500.0]])
        table = ncx2_cdf(3, lam, x)
        assert table.shape == (5, 5)
        for i in range(5):
            for k in range(5):
                assert table[i, k] == pytest.approx(
                    ncx2_cdf(3, float(lam[k]), float(x[i, 0])), rel=1e-13, abs=1e-300
                )

    def test_series_beyond_term_budget_is_numerical_error(self):
        with pytest.raises(NumericalError, match="terms"):
            ncx2_cdf(2, 1e15, 1e15)

    def test_series_length_grows_with_square_roots(self):
        # the series is summed outward from its largest term, so the terms
        # evaluated grow like sqrt(lam) + sqrt(x); a sum down to j = 0
        # would take lam / 2 = 4.5e6 of them here
        lam = 9e6
        for x in (lam, (math.sqrt(lam) - 20.0) ** 2, 1e6):
            value, n_terms = _ncx2_scalar(1.0, lam / 2.0, x / 2.0)
            assert n_terms <= 6 * (math.sqrt(lam) + math.sqrt(x)) + 128
            # scipy's incomplete gamma, under both, is good to about 1e-6
            # relative at shape 4.5e6 in the tail
            reference = float(stats.ncx2.cdf(x, 2, lam))
            assert value == pytest.approx(reference, rel=1e-5, abs=1e-300)

    def test_each_row_gets_its_own_window(self):
        # one long series among short ones must not widen their windows:
        # a shared window would take 200 times the long one's 34112 terms
        mu = np.array([4.5e6] + [3.0] * 199)
        y = np.array([4.5e6] + [4.0] * 199)
        values, n_terms = _ncx2_terms(1.0, mu, y)
        assert n_terms <= _ncx2_scalar(1.0, 4.5e6, 4.5e6)[1] + 199 * 128
        assert values[1] == pytest.approx(ncx2_cdf(2, 6.0, 8.0), rel=1e-13)


class TestCriticalDisplacement:
    def test_threshold_at_head_on_maximum(self):
        s = 10.0
        assert critical_displacement(max_pc_head_on(s), s) == 0.0

    def test_upper_threshold_value(self):
        d = critical_displacement(4.4e-4, 10.0)
        assert d == pytest.approx(CRITICAL_D_UPPER_10, rel=1e-9)
        # residual of the defining equation
        assert pc_circular(d * 10.0, 10.0) == pytest.approx(4.4e-4, rel=1e-9)
        # small-radius closed-form sanity bound: exp(-d^2/2) = t * 2 (S/R)^2
        approx = math.sqrt(-2.0 * math.log(4.4e-4 * 200.0))
        assert d == pytest.approx(approx, abs=5e-3)

    def test_unreachable_threshold(self):
        assert critical_displacement(4.4e-4, 40.0) is None

    def test_bisection_tolerance(self):
        for s, t in ((3.0, 1e-3), (15.0, 1e-5), (25.0, 1e-4)):
            d = critical_displacement(t, s)
            assert d is not None
            assert pc_circular(d * s, s) == pytest.approx(t, rel=1e-8)

    @pytest.mark.parametrize("s", [0.01, 0.1, 1.0, 10.0, 30.0])
    def test_newton_against_mpmath_root(self, s):
        # D/S is the Rice variable, so Pc(u) = 1 - Q1(u, 1/s); 40-digit
        # values either side of u bracket the root to 1e-12 relative
        for t in (1e-8, 4.4e-4, 1e-2):
            u = critical_displacement(t, s)
            if u is None:
                continue
            below, above = u * (1.0 - 1e-12), u * (1.0 + 1e-12)
            assert mp_pc_circular(below * s, s) >= t >= mp_pc_circular(above * s, s)

    def test_few_pc_evaluations(self, monkeypatch):
        calls = []

        def counted(d_over_r, s_over_r):
            calls.append(d_over_r)
            return pc_circular(d_over_r, s_over_r)

        monkeypatch.setattr(detection_module, "pc_circular", counted)
        solves = 0
        for s in (0.01, 0.1, 1.0, 5.0, 20.0):
            for t in np.geomspace(1e-8, 0.1, 15):
                solves += critical_displacement(float(t), s) is not None
        # about 40 per solve with the former bisection
        assert len(calls) <= 8 * solves

    def test_failed_newton_run_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(detection_module, "_NEWTON_MAX_ITERS", 1)
        with pytest.raises(NumericalError, match=r"bracketed by D/S in \[") as info:
            critical_displacement(4.4e-4, 10.0)
        lo, hi = (float(v) for v in
                  str(info.value).split("[")[1].rstrip("]").split(","))
        assert lo <= CRITICAL_D_UPPER_10 <= hi

    def test_failed_bracket_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(detection_module, "pc_circular", lambda d, s: 1.0)
        with pytest.raises(NumericalError, match=r"inf\]"):
            critical_displacement(4.4e-4, 10.0)


class TestDetectionRate:
    def test_quoted_operational_rates(self):
        assert detection_rate(4.4e-4, 10.0, 0.0) == pytest.approx(0.912, abs=2e-3)
        assert detection_rate(4.4e-4, 10.0, 1.0) == pytest.approx(0.911, abs=2e-3)
        assert detection_rate(4.4e-4, 20.0, 0.0) == pytest.approx(0.648, abs=2e-3)

    def test_methods_agree_on_grid(self):
        thresholds = [1e-7, 4.4e-4, 1e-2]
        s_values = [2.0, 5.0, 10.0, 20.0, 50.0]
        n = 10**5
        seed = 9000
        for s in s_values:
            for d_true in (0.0, 1.0):
                seed += 1
                curve = detection_curve(
                    s, d_true, thresholds=thresholds,
                    method="monte-carlo", n_trials=n, seed=seed,
                )
                for threshold, failure in curve.points:
                    mc = 1.0 - failure
                    semi = detection_rate(threshold, s, d_true)
                    se = math.sqrt(semi * (1.0 - semi) / n)
                    # +3/n covers the Poisson regime of near-0/near-1 rates,
                    # where the normal 3-sigma band under-covers
                    assert mc == pytest.approx(semi, abs=3.0 * se + 3.0 / n)

    def test_head_on_never_harder_than_glancing(self):
        for s in (2.0, 5.0, 10.0, 20.0, 50.0):
            for threshold in (1e-7, 4.4e-4, 1e-2):
                assert detection_rate(threshold, s, 0.0) >= detection_rate(
                    threshold, s, 1.0
                )

    def test_exactly_zero_beyond_boundary(self):
        threshold = 4.4e-4
        boundary = dilution_boundary(threshold)
        assert detection_rate(threshold, boundary * 1.001, 0.0) == 0.0
        assert detection_rate(threshold, boundary * 1.001, 1.0) == 0.0
        assert detection_rate(threshold, boundary * 0.999, 0.0) > 0.0

    def test_threshold_counting_matches_pc_per_draw(self):
        # Pc is strictly decreasing in the displacement, so counting draws
        # with D/S <= u_crit(t) equals counting draws with Pc >= t
        rng = np.random.default_rng(17)
        for s, d_true in ((0.05, 1.0), (0.5, 0.3), (3.0, 0.7), (20.0, 0.0)):
            xi = rng.standard_normal((4000, 2))
            d_over_s = np.hypot(d_true / s + xi[:, 0], xi[:, 1])
            pc = pc_circular_batch(d_over_s * s, s)
            for t in (1e-7, 4.4e-4, 1e-2):
                u = critical_displacement(t, s) or 0.0
                assert np.count_nonzero(pc >= t) == np.count_nonzero(d_over_s <= u)

    @pytest.mark.parametrize("s", [0.001, 0.01])
    def test_tiny_uncertainty_ratio(self, s):
        thresholds = [1e-8, 4.4e-4, 0.1]
        u_crit = [critical_displacement(t, s) for t in thresholds]
        # three radii away: Pc >= t needs D/S <= u_crit, about 1/s, while
        # D/S ~ Rice(3/s) falls there with probability below Phi(u - 3/s)
        far = detection_curve(s, 3.0, thresholds=thresholds)
        for (_t, failure), u in zip(far.points, u_crit):
            assert mpmath.ncdf(u - 3.0 / s) < 1e-300
            assert failure == 1.0
        if s < 0.01:
            return  # the 40-digit Bessel series below would take seconds
        near = detection_curve(s, 1.0, thresholds=thresholds)
        for (_t, failure), u in zip(near.points, u_crit):
            # rate = P(Rice(1/s) <= u) = 1 - Q1(1/s, u)
            ref = mp_pc_circular(1.0 / s / u, 1.0 / u)
            assert 1.0 - failure == pytest.approx(float(ref), rel=1e-9)

    def test_monte_carlo_requires_seed(self):
        with pytest.raises(InputValidationError, match="seed"):
            detection_rate(1e-4, 10.0, 0.0, method="monte-carlo")

    def test_unknown_method_rejected(self):
        with pytest.raises(InputValidationError, match="method"):
            detection_rate(1e-4, 10.0, 0.0, method="exact")

    def test_monte_carlo_deterministic_given_seed(self):
        a = detection_rate(
            4.4e-4, 10.0, 0.0, method="monte-carlo", n_trials=2 * 10**4, seed=5
        )
        b = detection_rate(
            4.4e-4, 10.0, 0.0, method="monte-carlo", n_trials=2 * 10**4, seed=5
        )
        assert a == b

    def test_monte_carlo_hit_counts_pinned(self):
        # hit counts of 70000 trials (two substream blocks) at seed 5;
        # detection_rate and detection_curve share one sample per seed
        n = 70000
        expected = {1e-7: 70000, 4.4e-4: 69438, 1e-2: 57028}
        curve = detection_curve(
            3.0, 0.7, thresholds=sorted(expected), method="monte-carlo",
            n_trials=n, seed=5,
        )
        for (threshold, failure), (t, hits) in zip(curve.points, expected.items()):
            assert threshold == t
            rate = detection_rate(
                t, 3.0, 0.7, method="monte-carlo", n_trials=n, seed=5
            )
            assert rate == hits / n
            assert failure == 1.0 - hits / n

    @pytest.mark.parametrize("method", ["semi-analytic", "monte-carlo"])
    @pytest.mark.parametrize(
        "s_over_r, d_true_over_r",
        [(0.0, 0.5), (-1.0, 0.5), (math.inf, 0.5), (math.nan, 0.5),
         (3.0, -1.0), (3.0, math.inf), (3.0, math.nan)],
    )
    def test_both_methods_validate_inputs(self, method, s_over_r, d_true_over_r):
        kwargs = dict(method=method, n_trials=1000, seed=1)
        with pytest.raises(InputValidationError):
            detection_rate(1e-4, s_over_r, d_true_over_r, **kwargs)
        with pytest.raises(InputValidationError):
            detection_curve(s_over_r, d_true_over_r, thresholds=[1e-4], **kwargs)

    @pytest.mark.parametrize("method", ["semi-analytic", "monte-carlo"])
    @pytest.mark.parametrize("threshold", [0.0, 1.0, -1e-3, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, method, threshold):
        kwargs = dict(method=method, n_trials=1000, seed=1)
        with pytest.raises(InputValidationError):
            detection_rate(threshold, 3.0, 0.5, **kwargs)
        with pytest.raises(InputValidationError):
            detection_curve(3.0, 0.5, thresholds=[1e-4, threshold], **kwargs)


class TestDetectionCurve:
    def test_failure_monotone_in_threshold(self):
        curve = detection_curve(10.0, 0.0)
        thresholds = [t for t, _ in curve.points]
        failures = [f for _, f in curve.points]
        assert thresholds == sorted(thresholds)
        assert all(a <= b + 1e-15 for a, b in zip(failures, failures[1:]))
        assert all(0.0 <= f <= 1.0 for f in failures)

    def test_default_grid_contains_policy_thresholds(self):
        curve = detection_curve(10.0, 0.0)
        thresholds = {t for t, _ in curve.points}
        assert 1e-7 in thresholds
        assert 4.4e-4 in thresholds

    def test_monte_carlo_curve_reproducible(self):
        kwargs = dict(thresholds=[1e-5, 1e-3], method="monte-carlo",
                      n_trials=10**4, seed=3)
        a = detection_curve(10.0, 0.0, **kwargs)
        b = detection_curve(10.0, 0.0, **kwargs)
        assert a.points == b.points
        assert a.seed == 3


class TestDilutionBoundary:
    def test_operational_threshold(self):
        boundary = dilution_boundary(4.4e-4)
        assert 33.6 <= boundary <= 33.8

    def test_five_meter_combined_radius(self):
        meters = dilution_boundary(4.4e-4) * 5.0
        assert meters == pytest.approx(168.5, abs=0.5)
        assert meters < 170.0

    def test_closed_form_inversion(self):
        assert dilution_boundary(1.0 - math.exp(-0.5)) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_consistency_with_head_on_maximum(self):
        for t in (1e-6, 1e-4, 1e-2):
            s = dilution_boundary(t)
            assert max_pc_head_on(s) == pytest.approx(t, rel=1e-12)


def _resimulated_rate(sigma, halfwidth, alpha, n, seed):
    # independent re-simulation with plain numpy, no shared stream logic
    rng = np.random.default_rng(seed)
    x = sigma * rng.standard_normal(n)
    mass = special.ndtr((halfwidth - x) / sigma) - special.ndtr(
        (-halfwidth - x) / sigma
    )
    return float(np.mean(1.0 - mass >= 1.0 - alpha))


class TestFalseConfidenceDemo:
    def test_constructed_halfwidth_forces_rate_one(self):
        h = proof_halfwidth(1.0, 0.05)
        assert h == pytest.approx(0.05 * math.sqrt(2.0 * math.pi) / 2.0, rel=1e-12)
        report = false_confidence_demo(1.0, h, 0.05, 10**4, seed=101)
        assert report.empirical_rate == 1.0
        assert report.p_target == 1.0

    def test_huge_neighborhood_rate_zero(self):
        report = false_confidence_demo(1.0, 1000.0, 0.05, 10**3, seed=102)
        assert report.empirical_rate == 0.0

    def test_intermediate_halfwidth_against_resimulation(self):
        report = false_confidence_demo(1.0, 0.5, 0.05, 10**5, seed=103)
        independent = _resimulated_rate(1.0, 0.5, 0.05, 10**6, seed=104)
        se = math.sqrt(
            report.p_target * (1.0 - report.p_target) / 10**5
            + report.p_target * (1.0 - report.p_target) / 10**6
        )
        assert report.empirical_rate == pytest.approx(independent, abs=3.0 * se)
        assert report.empirical_rate == pytest.approx(
            report.p_target, abs=3.0 * math.sqrt(report.p_target / 10**5)
        )

    def test_reports_carry_seed_and_size(self):
        report = false_confidence_demo(2.0, 0.1, 0.1, 10**3, seed=7)
        assert report.seed == 7
        assert report.n_trials == 10**3
        assert report.neighborhood_halfwidth == 0.1

    def test_parameter_validation(self):
        with pytest.raises(InputValidationError):
            false_confidence_demo(0.0, 0.1, 0.05, 10**3, seed=1)
        with pytest.raises(InputValidationError):
            false_confidence_demo(1.0, -0.1, 0.05, 10**3, seed=1)
        with pytest.raises(InputValidationError):
            false_confidence_demo(1.0, 0.1, 1.5, 10**3, seed=1)
        with pytest.raises(InputValidationError):
            false_confidence_demo(1.0, 0.1, 0.05, 10, seed=1)
