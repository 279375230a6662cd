"""Region belief assignments and the empirical validity harness."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from scipy import special

from conjrisk import (
    AdditiveGaussianRule,
    Ball,
    BeliefRule,
    ConfidenceRegionRule,
    Complement,
    Ellipsoid,
    EllipsoidSet,
    FullSpace,
    HalfSpace,
    InputValidationError,
    NumericalError,
    UnsupportedPropositionError,
    build_ellipsoid,
    false_confidence_demo,
    gaussian_region_rule,
    gaussian_sampling_model,
    ncx2_cdf,
    proof_halfwidth,
    region_belief,
    validity_check,
)
from conjrisk import ellipsoids, probability, validity
from conjrisk import rng as rngmod
from conjrisk.ellipsoids import standardized_range
from conjrisk.propositions import (
    contains_point,
    contains_region,
    depth,
    intersects_region,
    reach,
)

from conftest import mp_band_edge


def _ksigma(alpha, dim):
    """Sigma multiple whose ellipsoid has coverage ``1 - alpha``."""
    return math.sqrt(2.0 * special.gammaincinv(dim / 2.0, 1.0 - alpha))


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
    @staticmethod
    def _block(n_rows):
        """A rule, two propositions and ``n_rows`` estimates, each of which
        needs a secular solve: outside the small ball, inside the ellipsoid."""
        rule = gaussian_region_rule(np.diag([2.0, 1.0, 0.5]))
        props = [
            Complement(Ball(center=[0.0, 0.0, 0.0], radius=0.1)),
            EllipsoidSet(Ellipsoid([0.0, 0.0, 0.0], np.eye(3), [30.0, 20.0, 10.0])),
        ]
        xs = np.random.default_rng(44).uniform(1.0, 3.0, (n_rows, 3))
        return rule, props, xs

    def test_belief_runs_one_secular_solve(self, monkeypatch):
        # every row of a block that needs a secular equation is solved in
        # one call per (block, proposition), whatever the row count
        solves = []
        solve = ellipsoids._secular_roots

        def counted(c, d):
            solves.append(len(c))
            return solve(c, d)

        monkeypatch.setattr(ellipsoids, "_secular_roots", counted)
        for n_rows in (1, 1000):
            rule, props, xs = self._block(n_rows)
            for prop in props:
                assert (rule.belief(xs, prop) > 0.0).all()
        assert solves == [1, 1, 1000, 1000]

    @pytest.mark.parametrize("n_rows", [1, 1000])
    def test_belief_runs_one_svd_per_block(self, n_rows, monkeypatch):
        # the decomposed matrix does not depend on the estimate, so one SVD
        # serves the whole block
        rule, props, xs = self._block(n_rows)
        svds = []
        svd = np.linalg.svd

        def counted(mat):
            svds.append(1)
            return svd(mat)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for prop in props:
            rule.belief(xs, prop)
        assert len(svds) == len(props)

    def test_belief_builds_no_ellipsoid(self, monkeypatch):
        # the rule moves its unit ellipsoid's shape to each estimate without
        # constructing, let alone validating, a region per estimate
        rule, props, xs = self._block(1000)
        built = []
        post_init = ellipsoids.Ellipsoid.__post_init__

        def counted(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(ellipsoids.Ellipsoid, "__post_init__", counted)
        for prop in props:
            rule.belief(xs, prop)
            rule.belief(xs[:1], prop)
        assert built == []

    def test_plausibility_matches_region_belief(self):
        cov = np.diag([2.0, 1.0, 0.5])
        rule = gaussian_region_rule(cov)
        rng = np.random.default_rng(41)
        for _ in range(30):
            x = rng.standard_normal(3) * 2.0
            alpha = rng.uniform(0.01, 0.5)
            prop = Ball(center=rng.standard_normal(3), radius=rng.uniform(0.1, 2.0))
            region = build_ellipsoid(x, cov, _ksigma(alpha, 3))
            for candidate in (prop, Complement(prop)):
                bel, pls = region_belief(region, alpha, candidate)
                belief = rule.belief(x[None], candidate)[0]
                assert (belief >= 1.0 - alpha) == (bel > 0.0)
                assert (rule.plausibility(x[None], candidate)[0] >= alpha) == (pls == 1.0)

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
            region = build_ellipsoid(x, cov, _ksigma(alpha, dim))
            for candidate in (prop, Complement(prop)):
                inside, meets = _oracle(candidate, region)
                if min(abs(inside), abs(meets)) <= 1e-9:
                    continue
                belief = rule.belief(x[None], candidate)[0]
                assert (belief >= 1.0 - alpha) == (inside > 0.0)
                assert (rule.plausibility(x[None], candidate)[0] >= alpha) == (meets > 0.0)

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


class TestAdditiveGaussianRule:
    def test_halfspace_mass(self):
        rule = AdditiveGaussianRule(np.diag([4.0, 1.0]))
        prop = HalfSpace(normal=[1.0, 0.0], offset=1.0)
        x = np.array([0.0, 0.0])
        assert rule.belief(x[None], prop)[0] == pytest.approx(
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
        assert rule.belief(x[None], prop)[0] == pytest.approx(expected, rel=1e-10)
        assert rule.belief(x[None], Complement(prop))[0] == pytest.approx(
            1.0 - expected, rel=1e-10
        )

    @pytest.mark.parametrize("center, radius", [(0.0, 0.0626), (0.3, 1.5), (-2.0, 7.0)])
    def test_interval_mass_is_the_one_dimensional_ball_mass(self, center, radius):
        # the closed form against the 1-dof noncentral chi-squared law of
        # (theta - x)^2, over estimates up to 40 deviations out
        x = np.linspace(-40.0, 40.0, 801)
        mass = AdditiveGaussianRule([[1.0]]).belief(
            x[:, None], Ball(center=[center], radius=radius)
        )
        expected = ncx2_cdf(1, (x - center) ** 2, radius**2)
        assert np.max(np.abs(mass - expected)) <= 1e-12

    @pytest.mark.parametrize("radius, x", [
        (1e-12, 0.5), (1e-9, 0.0), (1e-9, 3.0), (1e-6, -1.0), (0.3, 0.2), (0.7, 2.0),
        (3.0, 0.0), (3.0, 5.0), (30.0, 36.0),
    ])
    def test_interval_mass_against_mpmath(self, radius, x):
        # a difference of two ndtr values was 3.9e-8 off at radius 1e-9 and
        # x = 0, and 1.7e-5 at radius 1e-12 and x = 0.5
        sigma, center = 1.5, 0.25
        rule = AdditiveGaussianRule([[sigma**2]])
        est = center + sigma * x
        with mpmath.workdps(40):
            d, r = (mpmath.mpf(est) - mpmath.mpf(center)) / sigma, mpmath.mpf(radius) / sigma
            ref = float(mpmath.ncdf(r - d) - mpmath.ncdf(-r - d))
        mass = rule.belief([[est]], Ball(center=[center], radius=radius))[0]
        assert mass == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("w", [1e-3, 0.05, 0.5, 3.0, 30.0])
    def test_edge_counts_equal_belief_counts(self, w):
        # the band-edge counts against the default counts of the same rule's
        # beliefs, on a block drawn at the ball's centre and on points 1e-10
        # either side of the 40-digit edge of each level. (At alpha = 0 the
        # edge is infinite, while 1 - mass rounds to 1 below a mass of
        # 2^-54, beyond 7.8 deviations out at these w: no draw gets there.)
        sigma, center = 2.5, -0.4
        alphas = np.array([0.0, 1e-6, 0.01, 0.2, 1.0])
        rule = AdditiveGaussianRule([[sigma**2]])
        prop = Complement(Ball(center=[center], radius=w * sigma))
        z = np.random.default_rng(int(w * 1000)).standard_normal(20000)
        edges = [float(mp_band_edge(w, a)[0]) for a in alphas]
        for edge in edges:
            if 0.0 < edge < math.inf:
                z = np.concatenate([z, edge * np.array([1 - 1e-10, 1 + 1e-10, -1 - 1e-10])])
        xs = (center + sigma * z)[:, None]
        counts = rule.hits(xs, prop, alphas)
        assert counts.tolist() == BeliefRule.hits(rule, xs, prop, alphas).tolist()
        assert counts[0] == 0 and counts[-1] == len(xs)
        for edge, a in zip(edges, alphas):
            assert rule._edge(w, float(a)) == pytest.approx(edge, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("w", [1e-8, 1e-3, 0.25, 3.0, 30.0, 1e3])
    def test_band_edge_against_mpmath(self, w):
        # the step variable is formed from log masses: one formed from the
        # masses themselves loses digits as alpha nears the subnormal range
        for alpha in (5e-324, 1e-320, 1e-300, 1e-16, 1e-6, 0.05, 0.5):
            ref = float(mp_band_edge(w, alpha)[0])
            assert validity._band_edge(w, alpha) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_failed_band_edge_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(probability, "_NEWTON_MAX_ITERS", 1)
        with pytest.raises(NumericalError, match=(
            r"^band edge did not converge in 1 steps: "
            r"the root is bracketed by z in \[")) as info:
            validity._band_edge(0.5, 1e-6)
        lo, hi = (float(v) for v in str(info.value).split("[")[1].rstrip("]").split(","))
        assert lo <= float(mp_band_edge(0.5, 1e-6)[0]) <= hi

    def test_block_beliefs_are_the_row_beliefs(self):
        rng = np.random.default_rng(43)
        xs = rng.standard_normal((50, 2)) * 2.0
        ball = Ball(center=[0.5, -0.5], radius=1.5)
        for rule in (AdditiveGaussianRule(np.eye(2)), gaussian_region_rule(np.eye(2))):
            for prop in (ball, Complement(ball), HalfSpace(normal=[1.0, 2.0], offset=0.5)):
                block = rule.belief(xs, prop)
                assert block.shape == (50,)
                rows = [rule.belief(x[None], prop)[0] for x in xs]
                assert block == pytest.approx(rows, rel=1e-14, abs=1e-300)

    def test_plausibility_equals_belief(self):
        # additive rules are self-conjugate
        rule = AdditiveGaussianRule([[1.0]])
        prop = Ball(center=[0.0], radius=0.5)
        x = np.array([0.2])
        assert rule.plausibility(x[None], prop)[0] == pytest.approx(
            rule.belief(x[None], prop)[0], rel=1e-12
        )

    @pytest.mark.parametrize("center, mass", [(0.5, 1.0), (3e5, 0.0)])
    def test_ball_whose_radius_ratio_squared_overflows(self, center, mass):
        # radius / sigma = 1e155: the ball holds all the mass about a point
        # inside it and none about a point beyond it
        rule = AdditiveGaussianRule([[1e-300]])
        prop = Ball(center=[center], radius=1e5)
        assert rule.belief(np.zeros((1, 1)), prop)[0] == mass

    @pytest.mark.parametrize("center, mass", [(5e159, 1.0), (1e160, 0.5), (2e160, 0.0)])
    def test_interval_whose_radius_ratio_overflows(self, center, mass):
        # sigma 1e-160: radius / sigma and the distance over sigma are both
        # beyond the float range, (radius - distance) / sigma is not
        rule = AdditiveGaussianRule([[1e-320]])
        prop = Ball(center=[center], radius=1e160)
        assert rule.belief(np.zeros((1, 1)), prop)[0] == mass
        alphas = np.array([0.0, 0.4, 0.6, 1.0])
        hits = rule.hits(np.zeros((1, 1)), Complement(prop), alphas)
        assert hits.tolist() == (1.0 - mass >= 1.0 - alphas).tolist()

    def test_interval_whose_radius_ratio_underflows(self):
        # radius / sigma = 0: no mass on the ball, full belief in its
        # complement at every level, from the belief and the band edge alike
        rule = AdditiveGaussianRule([[1e10]])
        prop = Ball(center=[0.0], radius=1e-320)
        xs = np.array([[0.0], [1e-320], [3e5]])
        assert rule.belief(xs, prop).tolist() == [0.0, 0.0, 0.0]
        assert rule.hits(xs, Complement(prop), np.array([0.0, 0.5, 1.0])).tolist() == [3, 3, 3]

    def test_anisotropic_ball_unsupported(self):
        rule = AdditiveGaussianRule(np.diag([1.0, 9.0]))
        with pytest.raises(UnsupportedPropositionError):
            rule.belief(np.zeros((1, 2)), Ball(center=[0.0, 0.0], radius=1.0))

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_isotropy_verdict_independent_of_scale(self, scale):
        # an off-diagonal of 1e-16 of the variance is isotropic, one of half
        # the variance is correlated, however small or large the variance
        ball = Ball(center=[0.0, 0.0], radius=math.sqrt(scale))
        near = AdditiveGaussianRule(scale * np.array([[1.0, 1e-16], [1e-16, 1.0]]))
        assert near.belief(np.zeros((1, 2)), ball)[0] == pytest.approx(
            -math.expm1(-0.5), rel=1e-12
        )
        correlated = AdditiveGaussianRule(scale * np.array([[1.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(UnsupportedPropositionError):
            correlated.belief(np.zeros((1, 2)), ball)[0]


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
    region = build_ellipsoid(x, cov, _ksigma(alpha, dim))
    inside, meets = _oracle(prop, region)
    assume(min(abs(inside), abs(meets)) > 1e-9)
    rule = gaussian_region_rule(cov)
    bel, pls = region_belief(region, alpha, prop)
    belief = rule.belief(x[None], prop)[0]
    plausibility = rule.plausibility(x[None], prop)[0]
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
    def test_rule_evaluated_once_per_block_and_proposition(self):
        # a rule on the default hits: one belief call per block and proposition
        rows = []

        class Counted(ConfidenceRegionRule):
            def belief(self, xs, proposition):
                rows.append(len(xs))
                return super().belief(xs, proposition)

        cov = [[1.0]]
        family = [Complement(Ball(center=[0.0], radius=r)) for r in (0.1, 0.5)]
        n_trials = 70000  # a full substream block and part of a second
        report = validity_check(
            Counted(cov), gaussian_sampling_model([0.0], cov), [0.0], family,
            alpha_grid=[0.01, 0.05, 0.1], n_trials=n_trials, seed=57,
        )
        assert len(report.rates) == 3
        # blocks may be scored at once and finish in any order: one call per
        # block and proposition, as a multiset of block lengths
        assert sorted(rows) == [4464, 4464, 65536, 65536]
        assert sum(rows) == len(family) * n_trials

    def test_rule_returning_one_number_per_block_rejected(self):
        class Scalar(ConfidenceRegionRule):
            def belief(self, xs, proposition):
                return float(super().belief(xs, proposition)[0])

        cov = [[1.0]]
        with pytest.raises(InputValidationError, match="one belief per realization"):
            validity_check(
                Scalar(cov), gaussian_sampling_model([0.0], cov), [0.0],
                [Complement(Ball(center=[0.0], radius=0.5))],
                alpha_grid=[0.05], n_trials=1000, seed=59,
            )

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


#: A 3-D round of the validity benchmark: covariance, truth, level, seed.
_COV3 = np.array([
    [2.2153695098502797, -1.2499338277233998, 0.5850193541396296],
    [-1.2499338277233998, 1.2446703097742895, -0.6749485547732861],
    [0.5850193541396296, -0.6749485547732861, 0.6643082352247142],
])
_THETA3 = np.array([-4.262746838001551, 3.86211794778154, 2.724770053695986])
_GRID3 = [0.03143617251002992, 0.01, 0.05, 0.2, 0.5, 0.9]


def _family3():
    """A ball complement, a half-space and an ellipsoid, none holding the
    truth, scaled by the covariance's largest deviation."""
    scale = math.sqrt(float(np.linalg.eigvalsh(_COV3)[-1]))
    normal = np.array([1.0, 0.5, -0.25])
    return [
        Complement(Ball(center=_THETA3, radius=0.1 * scale)),
        HalfSpace(normal=normal, offset=float(normal @ _THETA3) - 0.5 * scale),
        EllipsoidSet(Ellipsoid(center=_THETA3 + np.array([3.0 * scale, 0.0, 0.0]),
                               axes=np.eye(3), semi_lengths=np.full(3, 2.0 * scale))),
    ]


def test_three_dimensional_hit_counts_are_pinned():
    # hit counts of a seed-fixed 3-D K-sigma check, recorded when each
    # belief still built its own region ellipsoid
    rule = gaussian_region_rule(_COV3)
    model = gaussian_sampling_model(_THETA3, _COV3)

    def hits(family):
        report = validity_check(rule, model, _THETA3, family, _GRID3,
                                n_trials=2000, seed=1391687736)
        return report, [round(rate * 2000) for rate in report.rates]

    family = _family3()
    report, worst = hits(family)
    assert worst == [28, 9, 49, 216, 688, 1583]
    assert report.verdicts == ("pass",) * 6
    assert (report.worst_alpha, report.worst_proposition_index) == (0.01, 0)
    assert [hits([prop])[1] for prop in family] == [
        [28, 9, 49, 216, 688, 1583],
        [0, 0, 1, 4, 24, 111],
        [0, 0, 0, 0, 1, 13],
    ]


def _row_beliefs(cov, xs, prop):
    """Reference beliefs: one region ellipsoid and one depth per row."""
    unit = build_ellipsoid(np.zeros(len(cov)), cov, 1.0)
    k = np.array([depth(prop, Ellipsoid(x, unit.axes, unit.semi_lengths)) for x in xs])
    return special.gammainc(len(cov) / 2.0, 0.5 * k * k)


def _block_case(dim):
    """A covariance, every kind of proposition with its complement and
    double complement, and estimates that include each set's center (the
    hard case of the sphere minimum) and points within 1e-13 of each
    boundary on either side."""
    rng = np.random.default_rng(90 + dim)
    axes = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    cov = (axes * 10.0 ** rng.uniform(-1.0, 1.0, dim)) @ axes.T
    ell_axes = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    ell = Ellipsoid(rng.standard_normal(dim), ell_axes, 10.0 ** rng.uniform(-0.3, 0.7, dim))
    ball = Ball(center=rng.standard_normal(dim), radius=1.5)
    half = HalfSpace(normal=rng.standard_normal(dim), offset=0.7)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    foot = half.normal * half.offset / (half.normal @ half.normal)
    rows = [3.0 * rng.standard_normal((200, dim)), ell.center[None], ball.center[None]]
    for side in (1.0 - 1e-13, 1.0 + 1e-13):
        rows.append((ell.center + ell_axes @ (side * ell.semi_lengths * direction))[None])
        rows.append((ball.center + side * ball.radius * direction)[None])
        rows.append((side * foot)[None])
    bases = [FullSpace(), ball, EllipsoidSet(ell), half]
    props = [
        p for base in bases for p in (base, Complement(base), Complement(Complement(base)))
    ]
    return cov, props, np.vstack(rows)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_block_beliefs_equal_row_beliefs(dim):
    cov, props, xs = _block_case(dim)
    rule = gaussian_region_rule(cov)
    alphas = np.array([0.0, 1e-3, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0])[:, None]
    for prop in props:
        block, rows = rule.belief(xs, prop), _row_beliefs(cov, xs, prop)
        assert np.all(np.abs(block - rows) <= 1e-12)
        assert np.array_equal(block >= 1.0 - alphas, rows >= 1.0 - alphas)
        assert rule.belief(xs[-1:], prop)[0] == pytest.approx(rows[-1], abs=1e-12)


def test_block_in_which_no_row_needs_a_solve(monkeypatch):
    # every estimate lies outside the ellipsoid (depth 0) and inside the ball
    # whose complement is scored (reach 0): no SVD and no secular equation
    cov, _, _ = _block_case(3)
    ell = Ellipsoid([10.0, 0.0, 0.0], np.eye(3), [1.0, 2.0, 3.0])
    ball = Ball(center=[0.0, 0.0, 0.0], radius=1.0)
    xs = 0.5 * np.random.default_rng(95).uniform(-1.0, 1.0, (50, 3))
    rule = gaussian_region_rule(cov)
    references = {prop: _row_beliefs(cov, xs, prop)
                  for prop in (EllipsoidSet(ell), Complement(ball))}

    def unreachable(*args):
        raise AssertionError("no row needs a frame or a secular solve")

    monkeypatch.setattr(np.linalg, "svd", unreachable)
    monkeypatch.setattr(ellipsoids, "_secular_roots", unreachable)
    for prop, reference in references.items():
        beliefs = rule.belief(xs, prop)
        assert np.array_equal(beliefs, reference)
        assert not beliefs.any()


def test_last_block_of_one_row_equals_its_row_beliefs():
    # 65536 + 1 trials: the second substream block holds a single row
    cov, props, _ = _block_case(3)
    blocks = []

    class Recorded(ConfidenceRegionRule):
        def belief(self, xs, proposition):
            beliefs = super().belief(xs, proposition)
            blocks.append((xs, proposition, beliefs))
            return beliefs

    theta = props[3].center
    family = [p for p in props if not contains_point(p, theta)]
    assert len(family) >= 4
    validity_check(Recorded(cov), gaussian_sampling_model(theta, cov), theta, family,
                   alpha_grid=[0.05], n_trials=65536 + 1, seed=96)
    # blocks may be scored at once and finish in any order
    assert sorted(len(xs) for xs, _, _ in blocks) == [1] * len(family) + [65536] * len(family)
    for length in (1, 65536):
        scored = [prop for xs, prop, _ in blocks if len(xs) == length]
        assert sorted(map(id, scored)) == sorted(map(id, family))
    sample = np.random.default_rng(97).choice(65536, 100, replace=False)
    for xs, prop, beliefs in blocks:
        rows = sample if len(xs) > 1 else [0]
        reference = _row_beliefs(cov, xs[rows], prop)
        assert np.all(np.abs(beliefs[rows] - reference) <= 1e-12)
        assert np.array_equal(beliefs[rows] >= 0.95, reference >= 0.95)


@pytest.mark.parametrize("n", [1000, 20000, 65536])
def test_one_column_draw_is_the_blas_product(n):
    # the 1-D draw scales the normals in place; it must keep the bits of
    # ``theta + np.dot(z, chol.T)`` on the same substream
    theta, var = np.array([-3.75]), 0.37
    draw = gaussian_sampling_model(theta, [[var]])
    z = rngmod.stream(17, 2).standard_normal((n, 1))
    ref = theta + np.dot(z, np.linalg.cholesky([[var]]).T)
    xs = draw(rngmod.stream(17, 2), n)
    assert xs.shape == (n, 1)
    assert np.array_equal(xs.view(np.uint64), ref.view(np.uint64))


def test_one_dimensional_checks_run_without_a_tall_dot(monkeypatch):
    # OpenBLAS threads a product over a tall block, and its threads spin on
    # into later work: no 1-D check may hand one to ``np.dot``. The counts
    # were recorded when the draw still was such a product.
    dot = np.dot

    def guarded(a, b, *args, **kwargs):
        if max(np.shape(a)[:1] + np.shape(b)[:1]) > 1024:
            raise AssertionError(f"np.dot on shapes {np.shape(a)} and {np.shape(b)}")
        return dot(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "dot", guarded)
    n = 200000
    assert false_confidence_demo(1.0, 0.0123, 0.01, n, seed=3).empirical_rate == 1.0
    assert false_confidence_demo(2.0, 1.1, 0.05, n, seed=5).empirical_rate == 5969 / n
    sigma = 2.5
    cov, theta = [[sigma**2]], [0.3 + 0.01 * sigma]
    family = [Complement(Ball(center=[0.3], radius=0.02 * sigma))]
    expected = [
        (AdditiveGaussianRule(cov), [0, 66585, n, n]),
        (gaussian_region_rule(cov), [0, 1810, 9446, 38321]),
    ]
    for rule, counts in expected:
        report = validity_check(rule, gaussian_sampling_model(theta, cov), theta,
                                family, [0.0, 0.01, 0.05, 0.2], n, seed=29)
        assert report.rates == tuple(c / n for c in counts)
    with pytest.raises(AssertionError):
        np.dot(np.ones((1025, 1)), np.ones((1, 1)))


def test_hits_leave_the_block_unchanged():
    # ``validity_check`` scores one block against every proposition, so no
    # rule may write into it; on a 1-D ball complement the additive rule's
    # band-edge count is the count of its own beliefs on the same block
    sigma = 1.5
    cov = [[sigma**2]]
    alphas = np.array([0.0, 0.01, 0.1, 0.5])
    xs = rngmod.stream(23).standard_normal((5000, 1)) * sigma + 0.2
    xs.setflags(write=False)
    before = xs.copy()
    props = [Complement(Ball(center=[0.2], radius=0.3 * sigma)),
             Ball(center=[1.0], radius=0.5 * sigma),
             HalfSpace(normal=[-2.0], offset=1.0)]
    additive = AdditiveGaussianRule(cov)
    for rule in (additive, gaussian_region_rule(cov)):
        for prop in props:
            rule.hits(xs, prop, alphas)
            assert np.array_equal(xs, before)
    beliefs = additive.belief(xs, props[0])
    assert additive.hits(xs, props[0], alphas).tolist() == np.count_nonzero(
        beliefs >= 1.0 - alphas[:, None], axis=1).tolist()


class _Drawing(AdditiveGaussianRule):
    """The additive rule with ``counts_every_row`` forced off: it draws."""

    def counts_every_row(self, proposition, alphas):
        return False


class TestDecidedWithoutDrawing:
    """At or below the proof halfwidth of every level the additive rule's
    band edges are 0, so ``validity_check`` knows every count before it
    draws; above it the blocks are drawn as before."""

    MODEL = staticmethod(gaussian_sampling_model([0.0], [[1.0]]))

    @pytest.mark.parametrize("n_trials", [1000, 65536, 65537, 200000])
    def test_report_equals_the_drawn_report(self, n_trials):
        for run_seed in range(21):
            rng = np.random.default_rng(run_seed)
            levels = sorted([*10.0 ** rng.uniform(-12.0, math.log10(0.5), 2), 0.5])
            if run_seed == 0:
                levels[0] = 1e-12
            widths = [1.0, rng.uniform(0.0, 1.0)]
            family = [Complement(Ball(center=[0.0], radius=f * proof_halfwidth(1.0, levels[0])))
                      for f in widths]
            assert all(AdditiveGaussianRule([[1.0]]).counts_every_row(p, np.array(levels))
                       for p in family)
            reports = [validity_check(rule([[1.0]]), self.MODEL, [0.0], family, levels,
                                      n_trials, run_seed)
                       for rule in (AdditiveGaussianRule, _Drawing)]
            assert reports[0] == reports[1]
            assert reports[0].rates == (1.0, 1.0, 1.0)

    def test_sampling_model_not_called(self):
        def unreachable(gen, n):
            raise AssertionError("sampling model called")

        levels = [0.01, 0.05, 0.2]
        family = [Complement(Ball(center=[0.0], radius=proof_halfwidth(1.0, 0.01))),
                  Complement(Ball(center=[0.0], radius=1e-300))]
        report = validity_check(AdditiveGaussianRule([[1.0]]), unreachable, [0.0], family,
                                levels, 200000, 5)
        assert report.rates == (1.0, 1.0, 1.0)
        assert report.stderrs == (0.0, 0.0, 0.0)
        assert report.verdicts == ("fail", "fail", "fail")
        assert (report.worst_alpha, report.worst_proposition_index) == (0.01, 0)

    def test_mixed_grid_draws_with_the_same_rates(self):
        # 0.02 is beyond the proof halfwidth of 0.01 only
        n = 2 * rngmod.BLOCK_SIZE + 1000
        report = validity_check(AdditiveGaussianRule([[1.0]]), self.MODEL, [0.0],
                                [Complement(Ball(center=[0.0], radius=0.02))],
                                [0.01, 0.05, 0.2], n, 17)
        assert report.rates == (44300 / n, 1.0, 1.0)
        assert report.verdicts == ("fail", "fail", "fail")

    def test_one_undecided_proposition_draws_every_block(self):
        calls = []

        def model(gen, n):
            calls.append(n)
            return self.MODEL(gen, n)

        n = 2 * rngmod.BLOCK_SIZE + 1000
        family = [Complement(Ball(center=[0.0], radius=0.05)),
                  Complement(Ball(center=[0.0], radius=0.5))]
        report = validity_check(AdditiveGaussianRule([[1.0]]), model, [0.0], family,
                                [0.05], n, 18)
        assert sorted(calls) == [1000, rngmod.BLOCK_SIZE, rngmod.BLOCK_SIZE]
        assert report.rates == (1.0,)
        assert report.worst_proposition_index == 0

    def test_edges_solved_before_the_first_block(self):
        rule = AdditiveGaussianRule([[1.0]])
        levels = [0.01, 0.05, 0.2]
        radii = (0.02, 0.5)

        def model(gen, n):
            assert set(rule._edges) == {(r, a) for r in radii for a in levels}
            return self.MODEL(gen, n)

        validity_check(rule, model, [0.0], [Complement(Ball(center=[0.0], radius=r))
                                            for r in radii],
                       levels, 2 * rngmod.BLOCK_SIZE + 1000, 19)
