"""Threshold detection rates, the noncentral chi-squared series, and the
false-confidence simulation."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special, stats

import conjrisk.probability as probability_module
import conjrisk.validity as validity_module
from conjrisk import (
    InputValidationError,
    NumericalError,
    critical_displacement,
    default_threshold_grid,
    detection_curve,
    dilution_boundary,
    false_confidence_demo,
    max_pc_head_on,
    ncx2_cdf,
    pc_circular,
    proof_halfwidth,
)
from conjrisk.ncx2 import _ncx2_terms
from conjrisk.probability import pc_circular_batch

from conftest import mp_band_edge, mp_ncx2_cdf, mp_pc_circular

# frozen 1e7-sample oracle (seed 77): sum of two shifted squared normals
NCX2_ORACLE_VALUE = 0.5851047
NCX2_ORACLE_SE = 1.5581e-04

# frozen bisection result for the critical displacement at the upper
# operational threshold with s_over_r = 10
CRITICAL_D_UPPER_10 = 2.206351411369724

# batched Pc calls per solve of np.geomspace(1e-8, 0.1, n) when every
# Newton solve started from b + h_t: {s_over_r: {n: calls}}
NEWTON_START_BATCHES = {
    0.05: {1: 4, 2: 5, 8: 5, 23: 5, 24: 5, 45: 5, 1000: 5, 5000: 5},
    1.0: {1: 4, 2: 4, 8: 4, 23: 4, 24: 4, 45: 4, 1000: 4, 5000: 4},
    10.0: {1: 3, 2: 3, 8: 3, 23: 3, 24: 3, 45: 3, 1000: 3, 5000: 3},
}


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

    def test_scalar_call_is_the_one_element_array_call(self):
        # one evaluation path: scalar arguments give a float, bitwise equal
        # to the element of the one-element array call
        rng = np.random.default_rng(1706)
        for _ in range(200):
            dof = int(rng.integers(1, 4))
            lam, x = 10.0 ** rng.uniform(-2.0, 4.0, size=2)
            value = ncx2_cdf(dof, lam, x)
            assert type(value) is float
            assert value == ncx2_cdf(dof, np.array([lam]), np.array([x]))[0]
            s = 1.0 / math.sqrt(x)
            d = math.sqrt(lam) * s
            value = pc_circular(d, s)
            assert type(value) is float
            assert value == pc_circular_batch(np.array([d]), np.array([s]))[0]

    def test_series_beyond_term_budget_is_numerical_error(self):
        with pytest.raises(NumericalError, match="terms"):
            ncx2_cdf(2, 1e15, 1e15)

    def test_series_length_grows_with_square_roots(self):
        # the series is summed outward from its largest term, so the terms
        # evaluated grow like sqrt(lam) + sqrt(x); a sum down to j = 0
        # would take lam / 2 = 4.5e6 of them here
        lam = 9e6
        for x in (lam, (math.sqrt(lam) - 20.0) ** 2, 1e6):
            (value,), n_terms = _ncx2_terms(1.0, np.array([lam / 2.0]), np.array([x / 2.0]))
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
        assert n_terms <= _ncx2_terms(1.0, mu[:1], y[:1])[1] + 199 * 128
        assert values[1] == pytest.approx(ncx2_cdf(2, 6.0, 8.0), rel=1e-13)

    def test_window_clipped_at_zero_costs_one_block(self):
        # centre about 1e-6 and half 16: only the first 64-term block is
        # touched; a uniform 2 half + 1 block window would take two
        mu = y = np.full(10, 1e-3)
        values, n_terms = _ncx2_terms(1.0, mu, y)
        assert n_terms == 10 * 64
        assert values[0] == pytest.approx(float(mp_ncx2_cdf(2, 2e-3, 2e-3)), rel=1e-13)

    @pytest.mark.parametrize("dof", [1, 2, 3])
    def test_windows_at_block_edges_against_mpmath(self, dof):
        # the first window is centre +- half, centre = min(mu, sqrt(mu y +
        # a^2/4) - a/2) and half = ceil(8 sqrt(centre + 1) + 8); pick windows
        # whose ends fall just either side of j = 0 and of multiples of 64
        a = 0.5 * dof
        mu = np.geomspace(1e-2, 400.0, 4000)
        rows = []
        for ratio in (0.05, 1.0, 4.0):  # y / mu: P near 0, near 1/2, near 1
            y = ratio * mu
            centre = np.minimum(mu, np.sqrt(mu * y + 0.25 * a * a) - 0.5 * a)
            half = np.ceil(8.0 * np.sqrt(centre + 1.0) + 8.0)
            for end in (centre - half, centre + half):
                for edge in (0.0, 64.0, 128.0, 192.0, 256.0):
                    for side in (-1.0, 1.0):
                        gap = side * (end - edge)
                        near = np.flatnonzero((gap > 0.0) & (gap < 0.5))
                        if near.size:
                            rows.append((mu[near[0]], y[near[0]]))
        assert len(rows) >= 30
        for m, yy in rows:
            ref = mp_ncx2_cdf(dof, 2.0 * m, 2.0 * yy)
            assert ncx2_cdf(dof, 2.0 * m, 2.0 * yy) == pytest.approx(
                float(ref), rel=1e-13, abs=0.0
            )


@pytest.fixture
def pc_batches(monkeypatch):
    """Sizes of the ``pc_circular_batch`` calls the test makes."""
    sizes = []

    def counted(d_over_r, s_over_r):
        sizes.append(np.size(d_over_r))
        return pc_circular_batch(d_over_r, s_over_r)

    monkeypatch.setattr(probability_module, "pc_circular_batch", counted)
    return sizes


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
        # past s = 1.3e154 the head-on maximum underflows to 0
        assert critical_displacement(1e-300, 1e160) is None
        assert np.isnan(critical_displacement(np.array([1e-300, 0.5]), 1e160)).all()

    def test_bisection_tolerance(self):
        for s, t in ((3.0, 1e-3), (15.0, 1e-5), (25.0, 1e-4)):
            d = critical_displacement(t, s)
            assert d is not None
            assert pc_circular(d * s, s) == pytest.approx(t, rel=1e-8)

    @pytest.mark.parametrize("s", [1e-3, 0.01, 0.1, 1.0, 10.0, 30.0, 1e3])
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
        rows = []

        def counted(d_over_r, s_over_r):
            rows.append(np.size(d_over_r))
            return pc_circular_batch(d_over_r, s_over_r)

        monkeypatch.setattr(probability_module, "pc_circular_batch", counted)
        solves = 0
        for s in (0.01, 0.1, 1.0, 5.0, 20.0):
            for t in np.geomspace(1e-8, 0.1, 15):
                solves += critical_displacement(float(t), s) is not None
        # about 40 per solve with the former bisection, 4.7 with Newton steps
        # on log Pc; 3.67 with steps on h
        assert sum(rows) <= 3.7 * solves

    @pytest.mark.parametrize("s", [0.01, 0.3, 1.0, 10.0, 1e3])
    def test_thresholds_next_to_the_head_on_maximum(self, s):
        # Pc(u) within 2^-k of the peak: iterates where Pc rounds to the
        # peak, and roots known only as well as the rounding of Pc there
        peak = max_pc_head_on(s)
        k = np.arange(40.0, 51.0)
        grid = peak * (1.0 - 2.0**-k)
        u_crit = critical_displacement(grid, s)
        # 2^-50 is within the 1e-15 of the peak that reads as head-on
        assert u_crit[-1] == 0.0
        assert np.all(np.diff(u_crit) < 0.0)
        ulp = peak * 2.0**-52
        for t, u in zip(grid[:-1], u_crit[:-1]):
            assert abs(mp_pc_circular(u * s, s) - t) <= 20 * ulp

    @pytest.mark.parametrize("s, t", [(0.001, 0.9999999925494194),
                                      (0.0012589254117941675, 0.9999999990686774),
                                      (0.0017782794100389228, 0.9999999403953552)])
    def test_threshold_near_one_at_small_ratio(self, s, t):
        # Newton steps cycled between the ends of the bracket, which held
        # its width 1e-10 relative, until the solve raised NumericalError;
        # Pc's rounding there leaves the root known to a few ulps of Pc
        u = critical_displacement(t, s)
        assert abs(mp_pc_circular(u * s, s) - t) <= 8 * 2.0**-52

    def test_failed_newton_run_is_numerical_error(self, monkeypatch):
        # the iteration cap belongs to the Newton solve shared with the band edge
        monkeypatch.setattr(probability_module, "_NEWTON_MAX_ITERS", 1)
        with pytest.raises(NumericalError, match=(
            r"^critical displacement did not converge in 1 steps: "
            r"the root is bracketed by D/S in \[")) as info:
            critical_displacement(4.4e-4, 10.0)
        lo, hi = (float(v) for v in
                  str(info.value).split("[")[1].rstrip("]").split(","))
        assert lo <= CRITICAL_D_UPPER_10 <= hi

    def test_failed_bracket_is_numerical_error(self, monkeypatch):
        # Pc reads 1, above the peak, everywhere: h = 0, and a step on h
        # would be 0, a false convergence; steps on log Pc double u until
        # the solve gives up
        monkeypatch.setattr(probability_module, "pc_circular_batch",
                            lambda d, s: np.ones_like(d))
        with pytest.raises(NumericalError, match=r"inf\]"):
            critical_displacement(4.4e-4, 10.0)

    @pytest.mark.parametrize("s", [0.01, 0.1, 1.0, 10.0, 30.0])
    def test_one_batched_solve_per_curve(self, s, pc_batches, monkeypatch):
        # the head-on maximum rounds to 1.0, which no threshold may equal,
        # for s <= 0.1; elsewhere add it and the next float above it
        peak = max_pc_head_on(s)
        edges = [peak, math.nextafter(peak, 1.0)] if peak < 0.5 else []
        n_grid = default_threshold_grid().size
        grid = np.append(default_threshold_grid(), edges)
        u_crit = critical_displacement(grid, s)
        # up to 6 with Newton steps on log Pc, 5 from b + h_t; 2 from the
        # Chebyshev sweep: the sweep, then one Newton round
        assert len(pc_batches) <= 2
        assert u_crit.shape == grid.shape
        assert np.array_equal(np.isnan(u_crit[:n_grid]), grid[:n_grid] > peak)
        if edges:
            assert u_crit[n_grid] == 0.0
            assert math.isnan(u_crit[n_grid + 1])
        monkeypatch.undo()
        for t, u in zip(grid, u_crit):
            one = critical_displacement(float(t), s)
            if math.isnan(u):
                assert one is None
                continue
            assert u == pytest.approx(one, rel=1e-12, abs=0.0)
            if u > 0.0:
                # 40-digit values either side bracket the root
                below, beyond = u * (1.0 - 1e-12), u * (1.0 + 1e-12)
                assert mp_pc_circular(below * s, s) >= t >= mp_pc_circular(beyond * s, s)

    @pytest.mark.parametrize("s", [1e-3, 0.01, 0.05, 0.3, 1.0, 10.0, 100.0, 1e3])
    def test_default_grid_takes_two_batches(self, s, pc_batches):
        critical_displacement(default_threshold_grid(), s)
        assert len(pc_batches) <= 2

    @pytest.mark.parametrize("s", sorted(NEWTON_START_BATCHES))
    @pytest.mark.parametrize("n", [1, 2, 8, 23, 24, 45, 1000, 5000])
    def test_no_grid_takes_more_batches_than_newton_alone(self, s, n, pc_batches):
        critical_displacement(np.geomspace(1e-8, 0.1, n), s)
        assert len(pc_batches) <= NEWTON_START_BATCHES[s][n]


def _rate(threshold, s_over_r, d_true_over_r, **kwargs):
    """Detection rate at one threshold."""
    curve = detection_curve(s_over_r, d_true_over_r, thresholds=[threshold], **kwargs)
    return 1.0 - curve.points[0][1]


class TestDetectionRate:
    def test_quoted_operational_rates(self):
        assert _rate(4.4e-4, 10.0, 0.0) == pytest.approx(0.912, abs=2e-3)
        assert _rate(4.4e-4, 10.0, 1.0) == pytest.approx(0.911, abs=2e-3)
        assert _rate(4.4e-4, 20.0, 0.0) == pytest.approx(0.648, abs=2e-3)

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
                    semi = _rate(threshold, s, d_true)
                    se = math.sqrt(semi * (1.0 - semi) / n)
                    # +3/n covers the Poisson regime of near-0/near-1 rates,
                    # where the normal 3-sigma band under-covers
                    assert mc == pytest.approx(semi, abs=3.0 * se + 3.0 / n)

    def test_head_on_never_harder_than_glancing(self):
        for s in (2.0, 5.0, 10.0, 20.0, 50.0):
            for threshold in (1e-7, 4.4e-4, 1e-2):
                assert _rate(threshold, s, 0.0) >= _rate(
                    threshold, s, 1.0
                )

    def test_exactly_zero_beyond_boundary(self):
        threshold = 4.4e-4
        boundary = dilution_boundary(threshold)
        assert _rate(threshold, boundary * 1.001, 0.0) == 0.0
        assert _rate(threshold, boundary * 1.001, 1.0) == 0.0
        assert _rate(threshold, boundary * 0.999, 0.0) > 0.0

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
            _rate(1e-4, 10.0, 0.0, method="monte-carlo")

    def test_unknown_method_rejected(self):
        with pytest.raises(InputValidationError, match="method"):
            _rate(1e-4, 10.0, 0.0, method="exact")

    def test_monte_carlo_deterministic_given_seed(self):
        a = _rate(
            4.4e-4, 10.0, 0.0, method="monte-carlo", n_trials=2 * 10**4, seed=5
        )
        b = _rate(
            4.4e-4, 10.0, 0.0, method="monte-carlo", n_trials=2 * 10**4, seed=5
        )
        assert a == b

    def test_monte_carlo_hit_counts_pinned(self):
        # hit counts of 70000 trials (two substream blocks) at seed 5
        n = 70000
        expected = {1e-7: 70000, 4.4e-4: 69438, 1e-2: 57028}
        curve = detection_curve(
            3.0, 0.7, thresholds=sorted(expected), method="monte-carlo",
            n_trials=n, seed=5,
        )
        for (threshold, failure), (t, hits) in zip(curve.points, expected.items()):
            assert threshold == t
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
            detection_curve(s_over_r, d_true_over_r, thresholds=[1e-4], **kwargs)

    @pytest.mark.parametrize("method", ["semi-analytic", "monte-carlo"])
    @pytest.mark.parametrize("threshold", [0.0, 1.0, -1e-3, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, method, threshold):
        kwargs = dict(method=method, n_trials=1000, seed=1)
        with pytest.raises(InputValidationError):
            detection_curve(3.0, 0.5, thresholds=[threshold], **kwargs)
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

    @pytest.mark.parametrize("alpha", [1e-9, 1e-7, 1e-5])
    def test_proof_halfwidth_rate_is_exactly_one_at_small_levels(self, alpha):
        # a difference of two ndtr values near 1/2 lost the mass in
        # cancellation here: 0.99992 at alpha 1e-9
        report = false_confidence_demo(1.0, proof_halfwidth(1.0, alpha), alpha, 10**5, seed=3)
        assert report.empirical_rate == 1.0
        assert report.p_target == 1.0

    def test_decided_at_the_band_edge(self, monkeypatch):
        # no belief is evaluated, and the one level's edge is solved once,
        # for the counts and p_target alike
        solved = []

        def counted(w, alpha):
            solved.append((w, alpha))
            return band_edge(w, alpha)

        def unreachable(*args):
            raise AssertionError("the additive rule evaluated a mass")

        band_edge = validity_module._band_edge
        monkeypatch.setattr(validity_module, "_band_edge", counted)
        monkeypatch.setattr(validity_module.AdditiveGaussianRule, "_mass", unreachable)
        report = false_confidence_demo(2.0, 0.9, 0.05, 2 * 10**5, seed=11)
        assert solved == [(0.45, 0.05)]
        rate = float(mp_band_edge(0.45, 0.05)[1])
        assert report.p_target == pytest.approx(rate, rel=1e-14)
        assert report.empirical_rate == pytest.approx(rate, abs=4.0 * math.sqrt(rate / (2 * 10**5)))

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

    def test_p_target_against_mpmath(self):
        # the interval mass from the log-domain kernel: its difference of two
        # ndtr values put alpha = 0.001, halfwidth 0.0025 at 9.5e-14
        checked = 0
        for alpha in (1e-6, 0.001, 0.05, 0.3):
            for halfwidth in (1e-4, 0.0025, 0.05, 0.3, 1.0, 3.0):
                report = false_confidence_demo(1.0, halfwidth, alpha, 1000, seed=5)
                ref = mp_band_edge(halfwidth, alpha)[1]
                if ref == 1:
                    assert report.p_target == 1.0
                    continue
                assert report.p_target == pytest.approx(float(ref), rel=1e-14, abs=0.0)
                checked += 1
        assert checked >= 15

    def test_p_target_where_newton_steps_cycle(self):
        # rounding held the Newton steps in a cycle between the ends of a
        # bracket 4 ulps wide, until the solve gave up
        sigma, halfwidth, alpha = 8.41158858880702, 0.5488831898800788, 0.042894893261744296
        report = false_confidence_demo(sigma, halfwidth, alpha, 1000, seed=5)
        ref = mp_band_edge(halfwidth / sigma, alpha)[1]
        assert report.p_target == pytest.approx(float(ref), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("z_star", [37.5, 37.75, 38.0, 38.4])
    def test_p_target_subnormal_edge(self, z_star):
        # erfc(z*/sqrt 2) is subnormal from z* of about 37.5 to 38.5; scipy's
        # ndtr flushed it to 0 from about 37.65 on
        with mpmath.workdps(40):
            alpha = float(mpmath.ncdf(30 - z_star) - mpmath.ncdf(-30 - z_star))
        p_target = false_confidence_demo(1.0, 30.0, alpha, 1000, seed=5).p_target
        ref = float(mp_band_edge(30.0, alpha)[1])
        assert 0.0 < p_target < 1e-307
        # a subnormal keeps fewer digits; z* carries its rounding times z*^2
        assert p_target == pytest.approx(ref, rel=1e-11, abs=2 * 5e-324)

    def test_p_target_zero_beyond_erfc_range(self):
        with mpmath.workdps(40):
            alpha = float(mpmath.ncdf(30 - 39) - mpmath.ncdf(-30 - 39))
        assert false_confidence_demo(1.0, 30.0, alpha, 1000, seed=5).p_target == 0.0

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
