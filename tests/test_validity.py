"""Region belief assignments and the empirical validity harness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conjrisk import (
    AdditiveGaussianRule,
    Ball,
    Complement,
    FullSpace,
    HalfSpace,
    InputValidationError,
    UnsupportedPropositionError,
    build_ellipsoid,
    gaussian_region_rule,
    gaussian_sampling_model,
    ksigma_for_level,
    proof_halfwidth,
    region_belief,
    validity_check,
)
from conjrisk import ellipsoids


def _region(center, radius):
    return Ball(center=np.atleast_1d(center), radius=radius).ellipsoid


class TestRegionBelief:
    def test_full_space(self):
        bel, pls = region_belief(_region([0.0, 0.0, 0.0], 1.0), 0.05, FullSpace())
        assert bel == pytest.approx(0.95)
        assert pls == 1.0

    def test_disjoint_proposition(self):
        region = _region([0.0, 0.0, 0.0], 1.0)
        prop = Ball(center=[5.0, 0.0, 0.0], radius=1.0)
        bel, pls = region_belief(region, 0.1, prop)
        assert bel == 0.0
        assert pls == pytest.approx(0.1)

    def test_region_itself(self):
        ball = Ball(center=[1.0, 2.0, 3.0], radius=2.0)
        bel, pls = region_belief(ball, 0.2, ball)
        assert bel == pytest.approx(0.8)
        assert pls == 1.0

    def test_consonance_and_complementarity(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            region = _region(rng.standard_normal(3), rng.uniform(0.5, 2.0))
            prop = Ball(
                center=rng.standard_normal(3) * 2.0, radius=rng.uniform(0.5, 3.0)
            )
            alpha = rng.uniform(0.01, 0.5)
            for candidate in (prop, Complement(prop)):
                bel, pls = region_belief(region, alpha, candidate)
                if bel > 0.0:
                    assert pls == 1.0
                _, pls_not = region_belief(region, alpha, Complement(candidate))
                assert bel + pls_not == pytest.approx(1.0, abs=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(InputValidationError):
            region_belief(_region([0.0], 1.0), 1.5, FullSpace())


class TestConfidenceRegionRule:
    def test_belief_runs_one_secular_solve(self, monkeypatch):
        # belief reads containment only: for a ball complement that is one
        # intersection decision, i.e. one minimum of the standardized radius
        solves = []
        solve = ellipsoids._secular_root

        def counted(c, d):
            solves.append(1)
            return solve(c, d)

        monkeypatch.setattr(ellipsoids, "_secular_root", counted)
        rule = gaussian_region_rule(np.diag([2.0, 1.0, 0.5]))
        prop = Complement(Ball(center=[0.0, 0.0, 0.0], radius=0.1))
        assert rule.belief(np.array([12.0, 1.0, 0.5]), prop, 0.05) == pytest.approx(0.95)
        assert len(solves) == 1

    def test_belief_builds_only_the_trial_region(self, monkeypatch):
        # a ball builds its ellipsoid once, with the ball, so a belief on its
        # complement constructs one Ellipsoid: the trial region
        built = []
        post_init = ellipsoids.Ellipsoid.__post_init__

        def counted(self):
            built.append(1)
            post_init(self)

        rule = gaussian_region_rule(np.diag([2.0, 1.0, 0.5]))
        prop = Complement(Ball(center=[0.0, 0.0, 0.0], radius=0.1))
        monkeypatch.setattr(ellipsoids.Ellipsoid, "__post_init__", counted)
        assert rule.belief(np.array([12.0, 1.0, 0.5]), prop, 0.05) == pytest.approx(0.95)
        assert len(built) == 1

    def test_plausibility_matches_region_belief(self):
        cov = np.diag([2.0, 1.0, 0.5])
        rule = gaussian_region_rule(cov)
        rng = np.random.default_rng(41)
        for _ in range(30):
            x = rng.standard_normal(3) * 2.0
            alpha = rng.uniform(0.01, 0.5)
            prop = Ball(center=rng.standard_normal(3), radius=rng.uniform(0.1, 2.0))
            region = build_ellipsoid(x, cov, ksigma_for_level(alpha, 3))
            for candidate in (prop, Complement(prop)):
                bel, pls = region_belief(region, alpha, candidate)
                assert rule.belief(x, candidate, alpha) == bel
                assert rule.plausibility(x, candidate, alpha) == pytest.approx(pls)

    def test_invalid_covariance_rejected_once_up_front(self):
        with pytest.raises(InputValidationError, match="degenerate"):
            gaussian_region_rule(np.diag([1.0, 0.0]))


class TestKsigmaForLevel:
    def test_one_dimensional_matches_gaussian_quantile(self):
        for alpha in (0.01, 0.05, 0.2):
            k = ksigma_for_level(alpha, 1)
            assert 2.0 * special.ndtr(k) - 1.0 == pytest.approx(
                1.0 - alpha, rel=1e-10
            )

    def test_two_dimensional_closed_form(self):
        for alpha in (0.01, 0.05, 0.2):
            assert ksigma_for_level(alpha, 2) == pytest.approx(
                math.sqrt(-2.0 * math.log(alpha)), rel=1e-10
            )


class TestAdditiveGaussianRule:
    def test_halfspace_mass(self):
        rule = AdditiveGaussianRule(np.diag([4.0, 1.0]))
        prop = HalfSpace(normal=[1.0, 0.0], offset=1.0)
        x = np.array([0.0, 0.0])
        assert rule.belief(x, prop, 0.05) == pytest.approx(
            float(special.ndtr(0.5)), rel=1e-12
        )

    def test_interval_mass_one_dimensional(self):
        sigma = 1.5
        rule = AdditiveGaussianRule([[sigma**2]])
        h = 0.7
        x = np.array([0.4])
        expected = float(
            special.ndtr((h - 0.4) / sigma) - special.ndtr((-h - 0.4) / sigma)
        )
        prop = Ball(center=[0.0], radius=h)
        assert rule.belief(x, prop, 0.3) == pytest.approx(expected, rel=1e-10)
        assert rule.belief(x, Complement(prop), 0.3) == pytest.approx(
            1.0 - expected, rel=1e-10
        )

    def test_plausibility_equals_belief(self):
        # additive rules are self-conjugate
        rule = AdditiveGaussianRule([[1.0]])
        prop = Ball(center=[0.0], radius=0.5)
        x = np.array([0.2])
        assert rule.plausibility(x, prop, 0.1) == pytest.approx(
            rule.belief(x, prop, 0.1), rel=1e-12
        )

    @pytest.mark.parametrize("center, mass", [(0.5, 1.0), (3e5, 0.0)])
    def test_ball_whose_radius_ratio_squared_overflows(self, center, mass):
        # radius / sigma = 1e155: the ball holds all the mass about a point
        # inside it and none about a point beyond it
        rule = AdditiveGaussianRule([[1e-300]])
        prop = Ball(center=[center], radius=1e5)
        assert rule.belief(np.array([0.0]), prop, 0.1) == mass

    def test_anisotropic_ball_unsupported(self):
        rule = AdditiveGaussianRule(np.diag([1.0, 9.0]))
        with pytest.raises(UnsupportedPropositionError):
            rule.belief(np.zeros(2), Ball(center=[0.0, 0.0], radius=1.0), 0.1)


@settings(max_examples=40, deadline=None)
@given(
    offset=st.floats(min_value=-3.0, max_value=3.0),
    radius=st.floats(min_value=0.1, max_value=3.0),
    alpha=st.floats(min_value=0.01, max_value=0.5),
)
def test_belief_plausibility_bounds_hold(offset, radius, alpha):
    region = _region([0.0, 0.0, 0.0], 1.0)
    prop = Ball(center=[offset, 0.0, 0.0], radius=radius)
    bel, pls = region_belief(region, alpha, prop)
    assert 0.0 <= bel <= pls <= 1.0


class TestValidityCheck:
    def test_ksigma_rule_passes_in_three_dimensions(self):
        cov = np.diag([2.0, 1.0, 0.5])
        rule = gaussian_region_rule(cov)
        model = gaussian_sampling_model([0.0, 0.0, 0.0], cov)
        family = [
            Complement(Ball(center=[0.0, 0.0, 0.0], radius=0.05)),
            Complement(Ball(center=[0.0, 0.0, 0.0], radius=0.8)),
        ]
        report = validity_check(
            rule, model, [0.0, 0.0, 0.0], family,
            alpha_grid=[0.05, 0.2], n_trials=2000, seed=50,
        )
        assert report.passed()
        assert report.n_trials == 2000
        assert report.seed == 50

    def test_additive_rule_fails_on_constructed_proposition(self):
        sigma = 1.0
        alpha = 0.05
        cov = [[sigma * sigma]]
        h = proof_halfwidth(sigma, alpha)
        report = validity_check(
            AdditiveGaussianRule(cov),
            gaussian_sampling_model([0.0], cov),
            [0.0],
            [Complement(Ball(center=[0.0], radius=h))],
            alpha_grid=[alpha],
            n_trials=1000,
            seed=51,
        )
        assert report.verdicts == ("fail",)
        assert report.rates[0] >= 0.999

    def test_vacuous_level_passes(self):
        cov = [[1.0]]
        report = validity_check(
            AdditiveGaussianRule(cov),
            gaussian_sampling_model([0.0], cov),
            [0.0],
            [Complement(Ball(center=[0.0], radius=0.5))],
            alpha_grid=[1.0],
            n_trials=1000,
            seed=52,
        )
        assert report.verdicts == ("pass",)

    def test_true_proposition_rejected(self):
        cov = [[1.0]]
        with pytest.raises(InputValidationError, match="true parameter"):
            validity_check(
                AdditiveGaussianRule(cov),
                gaussian_sampling_model([0.0], cov),
                [0.0],
                [Ball(center=[0.0], radius=1.0)],
                alpha_grid=[0.05],
                n_trials=1000,
                seed=53,
            )

    def test_small_trial_count_rejected(self):
        cov = [[1.0]]
        with pytest.raises(InputValidationError, match="n_trials"):
            validity_check(
                AdditiveGaussianRule(cov),
                gaussian_sampling_model([0.0], cov),
                [0.0],
                [Complement(Ball(center=[0.0], radius=0.5))],
                alpha_grid=[0.05],
                n_trials=100,
                seed=54,
            )

    def test_worst_pair_is_reported(self):
        sigma = 1.0
        cov = [[sigma * sigma]]
        bad = Complement(Ball(center=[0.0], radius=proof_halfwidth(sigma, 0.05)))
        benign = Complement(Ball(center=[0.0], radius=5.0))
        report = validity_check(
            AdditiveGaussianRule(cov),
            gaussian_sampling_model([0.0], cov),
            [0.0],
            [benign, bad],
            alpha_grid=[0.05],
            n_trials=1000,
            seed=55,
        )
        assert report.worst_proposition_index == 1
        assert report.worst_alpha == 0.05

    def test_report_serialization_shape(self):
        cov = [[1.0]]
        report = validity_check(
            gaussian_region_rule(cov),
            gaussian_sampling_model([0.0], cov),
            [0.0],
            [Complement(Ball(center=[0.0], radius=0.3))],
            alpha_grid=[0.05, 0.1],
            n_trials=1000,
            seed=56,
        )
        doc = report.to_json_dict()
        assert len(doc["levels"]) == 2
        assert {"alpha", "rate", "stderr", "verdict"} == set(doc["levels"][0])
        for level in doc["levels"]:
            assert level["stderr"] == pytest.approx(
                math.sqrt(level["rate"] * (1.0 - level["rate"]) / 1000)
            )
