"""Region belief assignments and the empirical validity harness."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from scipy import special

from conjrisk import (
    AdditiveGaussianRule,
    Ball,
    Complement,
    Ellipsoid,
    EllipsoidSet,
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
from conjrisk.ellipsoids import standardized_range
from conjrisk.propositions import contains_region, depth, intersects_region, reach


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
        assert rule.belief(np.array([12.0, 1.0, 0.5]), prop) >= 1.0 - 0.05
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
        assert rule.belief(np.array([12.0, 1.0, 0.5]), prop) >= 1.0 - 0.05
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
                assert (rule.belief(x, candidate) >= 1.0 - alpha) == (bel > 0.0)
                assert (rule.plausibility(x, candidate) >= alpha) == (pls == 1.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_depth_at_ellipsoid_center_is_smallest_axis_ratio(self, dim):
        # hard case of the sphere minimum: no offset along any axis
        rng = np.random.default_rng(42 + dim)
        axes = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        center = rng.standard_normal(dim)
        semi = np.array([3.0, 2.0, 0.5])[:dim]
        prop = EllipsoidSet(Ellipsoid(center, axes, semi))
        ratios = np.array([1.5, 0.5, 0.25])[:dim]
        region = Ellipsoid(center, axes, semi / ratios)
        assert depth(prop, region) == pytest.approx(ratios.min(), rel=1e-12)
        assert depth(prop, Ellipsoid(center, np.eye(dim), np.full(dim, 2.0))) == (
            pytest.approx(semi.min() / 2.0, rel=1e-12)
        )
        assert reach(prop, region) == 0.0
        assert reach(Complement(prop), region) == depth(prop, region)

    def test_thin_set_axis_is_kept_in_the_region_frame(self):
        # a set 1e13 times longer than it is thick, about a unit ball: its
        # thickness decides depth and reach however long it is
        region = Ellipsoid([0.0, 0.0], np.eye(2), [1.0, 1.0])
        slab = EllipsoidSet(Ellipsoid([0.0, 1.0], np.eye(2), [1e14, 10.0]))
        assert depth(slab, region) == pytest.approx(9.0, rel=1e-12)
        assert contains_region(slab, region)
        assert reach(slab, Ellipsoid([0.0, 0.0], np.eye(2), [0.5, 0.5])) == 0.0
        far = EllipsoidSet(Ellipsoid([0.0, 30.0], np.eye(2), [1e14, 10.0]))
        assert reach(far, region) == pytest.approx(20.0, rel=1e-12)
        assert depth(Complement(far), region) == pytest.approx(20.0, rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_ball_under_covariance_of_condition_1e26(self, dim):
        cov = np.diag([1.0, 1e-13, 1e-26][:dim])
        rule = gaussian_region_rule(cov)
        rng = np.random.default_rng(70 + dim)
        for _ in range(20):
            x = rng.standard_normal(dim) * np.sqrt(np.diag(cov)) * 3.0
            prop = Ball(center=np.zeros(dim), radius=rng.uniform(0.5, 4.0))
            alpha = rng.uniform(0.01, 0.5)
            region = build_ellipsoid(x, cov, ksigma_for_level(alpha, dim))
            for candidate in (prop, Complement(prop)):
                inside, meets = _oracle(candidate, region)
                if min(abs(inside), abs(meets)) <= 1e-9:
                    continue
                assert (rule.belief(x, candidate) >= 1.0 - alpha) == (inside > 0.0)
                assert (rule.plausibility(x, candidate) >= alpha) == (meets > 0.0)

    @pytest.mark.filterwarnings("error")
    def test_halfspace_depth_under_a_vanishing_spread(self):
        # semi-axes 1e-150 against a normal of norm 1e-200: the spread of
        # normal . x over the region underflows to 0
        region = build_ellipsoid([0.0, 0.0], np.diag([1e-300, 1e-300]), 1.0)
        below = HalfSpace(normal=[1e-200, 0.0], offset=1.0)
        assert depth(below, region) == math.inf
        assert reach(below, region) == 0.0
        assert contains_region(below, region) and intersects_region(below, region)
        above = HalfSpace(normal=[-1e-200, 0.0], offset=-1.0)
        assert depth(above, region) == 0.0
        assert reach(above, region) == math.inf
        assert not intersects_region(above, region)

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
        assert rule.belief(x, prop) == pytest.approx(
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
        assert rule.belief(x, prop) == pytest.approx(expected, rel=1e-10)
        assert rule.belief(x, Complement(prop)) == pytest.approx(
            1.0 - expected, rel=1e-10
        )

    def test_plausibility_equals_belief(self):
        # additive rules are self-conjugate
        rule = AdditiveGaussianRule([[1.0]])
        prop = Ball(center=[0.0], radius=0.5)
        x = np.array([0.2])
        assert rule.plausibility(x, prop) == pytest.approx(
            rule.belief(x, prop), rel=1e-12
        )

    @pytest.mark.parametrize("center, mass", [(0.5, 1.0), (3e5, 0.0)])
    def test_ball_whose_radius_ratio_squared_overflows(self, center, mass):
        # radius / sigma = 1e155: the ball holds all the mass about a point
        # inside it and none about a point beyond it
        rule = AdditiveGaussianRule([[1e-300]])
        prop = Ball(center=[center], radius=1e5)
        assert rule.belief(np.array([0.0]), prop) == mass

    def test_anisotropic_ball_unsupported(self):
        rule = AdditiveGaussianRule(np.diag([1.0, 9.0]))
        with pytest.raises(UnsupportedPropositionError):
            rule.belief(np.zeros(2), Ball(center=[0.0, 0.0], radius=1.0))

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_isotropy_verdict_independent_of_scale(self, scale):
        # an off-diagonal of 1e-16 of the variance is isotropic, one of half
        # the variance is correlated, however small or large the variance
        ball = Ball(center=[0.0, 0.0], radius=math.sqrt(scale))
        near = AdditiveGaussianRule(scale * np.array([[1.0, 1e-16], [1e-16, 1.0]]))
        assert near.belief(np.zeros(2), ball) == pytest.approx(
            -math.expm1(-0.5), rel=1e-12
        )
        correlated = AdditiveGaussianRule(scale * np.array([[1.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(UnsupportedPropositionError):
            correlated.belief(np.zeros(2), ball)


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


def _oracle(prop, region):
    """Signed margins ``(inside, meets)`` of the region against the set, from
    the squared-radius range and the half-space support: positive where the
    set contains (meets) the region, of magnitude the relative distance from
    contact."""
    if isinstance(prop, Complement):
        inside, meets = _oracle(prop.inner, region)
        return -meets, -inside
    if isinstance(prop, FullSpace):
        return math.inf, math.inf
    if isinstance(prop, HalfSpace):
        spread = np.linalg.norm(region.semi_lengths * (region.axes.T @ prop.normal))
        room = (prop.offset - prop.normal @ region.center) / spread
        return room - 1.0, room + 1.0
    gmin, gmax = standardized_range(prop.ellipsoid, region)
    return 1.0 - gmax, 1.0 - gmin


def _random_proposition(rng, dim, kind, n_complements):
    if kind == "full":
        prop = FullSpace()
    elif kind == "ball":
        prop = Ball(center=2.0 * rng.standard_normal(dim), radius=rng.uniform(0.2, 5.0))
    elif kind == "ellipsoid":
        axes = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        semi = 10.0 ** rng.uniform(-0.5, 0.7, dim)
        prop = EllipsoidSet(Ellipsoid(2.0 * rng.standard_normal(dim), axes, semi))
    else:
        prop = HalfSpace(normal=rng.standard_normal(dim), offset=2.0 * rng.normal())
    for _ in range(n_complements):
        prop = Complement(prop)
    return prop


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 3),
    kind=st.sampled_from(["full", "ball", "ellipsoid", "halfspace"]),
    n_complements=st.integers(0, 2),
    alpha=st.floats(min_value=1e-3, max_value=0.999),
    draw=st.integers(0, 2**32 - 1),
)
def test_rule_matches_level_region_decisions(dim, kind, n_complements, alpha, draw):
    # belief >= 1 - alpha exactly where the level-alpha region lies inside
    # the set, and plausibility >= alpha exactly where it meets the set
    rng = np.random.default_rng(draw)
    axes = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    cov = (axes * 10.0 ** rng.uniform(-1.0, 1.0, dim)) @ axes.T
    x = 2.0 * rng.standard_normal(dim)
    prop = _random_proposition(rng, dim, kind, n_complements)
    region = build_ellipsoid(x, cov, ksigma_for_level(alpha, dim))
    inside, meets = _oracle(prop, region)
    assume(min(abs(inside), abs(meets)) > 1e-9)
    rule = gaussian_region_rule(cov)
    bel, pls = region_belief(region, alpha, prop)
    belief, plausibility = rule.belief(x, prop), rule.plausibility(x, prop)
    assert (belief >= 1.0 - alpha) == (bel > 0.0) == (inside > 0.0)
    assert (plausibility >= alpha) == (pls == 1.0) == (meets > 0.0)
    if belief > 0.0:
        assert plausibility == 1.0


def _scaled(region, k):
    return Ellipsoid(region.center, region.axes, k * region.semi_lengths)


@pytest.mark.parametrize("shape", ["long", "thin", "needle region"])
@pytest.mark.parametrize("draw", range(10))
def test_depth_and_reach_bracket_the_oracle_at_axis_ratio_1e13(shape, draw):
    # the region scaled by depth (reach) has its squared-radius maximum
    # (minimum) in the set's own frame cross 1
    rng = np.random.default_rng(draw)
    dim = int(rng.integers(2, 4))
    set_axes, region_axes = (
        np.linalg.qr(rng.standard_normal((dim, dim)))[0] for _ in range(2)
    )
    semi = 10.0 ** rng.uniform(-1.0, 1.0, dim)
    region_semi = 10.0 ** rng.uniform(-0.5, 0.5, dim)
    offset = rng.uniform(-0.5, 0.5, dim) * min(semi)
    if shape == "long":
        semi[0] *= 1e13
    elif shape == "thin":
        semi[-1] *= 1e-13
        offset = np.zeros(dim)
        offset[-1] = rng.uniform(-0.5, 0.5) * semi[-1]
    else:
        semi[:] = semi[0]
        region_semi[-1] *= 1e-13
    prop = Ellipsoid(2.0 * rng.standard_normal(dim), set_axes, semi)
    for center in (prop.center + set_axes @ offset, 3.0 * rng.standard_normal(dim)):
        region = Ellipsoid(center, region_axes, region_semi)
        inside, gap = depth(EllipsoidSet(prop), region), reach(EllipsoidSet(prop), region)
        assert (inside > 0.0) == (gap == 0.0) == prop.contains(center)
        if inside > 0.0:
            assert standardized_range(prop, _scaled(region, inside * (1 - 1e-6)))[1] < 1.0
            assert standardized_range(prop, _scaled(region, inside * (1 + 1e-6)))[1] > 1.0
        else:
            assert standardized_range(prop, _scaled(region, gap * (1 - 1e-6)))[0] > 1.0
            assert standardized_range(prop, _scaled(region, gap * (1 + 1e-6)))[0] < 1.0


class TestValidityCheck:
    def test_rule_evaluated_once_per_trial_and_proposition(self):
        calls = []

        class Counted(AdditiveGaussianRule):
            def belief(self, x, proposition):
                calls.append(1)
                return super().belief(x, proposition)

        cov = [[1.0]]
        family = [Complement(Ball(center=[0.0], radius=r)) for r in (0.1, 0.5)]
        report = validity_check(
            Counted(cov), gaussian_sampling_model([0.0], cov), [0.0], family,
            alpha_grid=[0.01, 0.05, 0.1], n_trials=1000, seed=57,
        )
        assert len(report.rates) == 3
        assert len(calls) == 1000 * len(family)

    def test_ksigma_rule_accepts_levels_zero_and_one(self):
        cov = [[1.0]]
        report = validity_check(
            gaussian_region_rule(cov), gaussian_sampling_model([0.0], cov), [0.0],
            [Complement(Ball(center=[0.0], radius=0.5))],
            alpha_grid=[0.0, 1.0], n_trials=1000, seed=58,
        )
        assert report.rates == (0.0, 1.0)
        assert report.verdicts == ("pass", "pass")

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
