"""Ellipsoid construction, projection, exact range queries, and distance."""

import math
import re

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from conjrisk import (
    Ellipsoid,
    EllipsoidSet,
    InputValidationError,
    NumericalError,
    build_ellipsoid,
    contains_region,
    min_distance,
    project_point,
)
from conjrisk import ellipsoids
from conjrisk.ellipsoids import standardized_range

from conftest import (
    dense_min_distance_oracle,
    ellipsoid_pair_with_gap,
    fibonacci_sphere,
    mp_ellipsoid_distance,
    mp_secular_root,
    random_ellipsoid,
    random_spd,
    separated_ellipsoid_pair,
)


def _scale(e1, e2):
    return max(
        float(np.linalg.norm(e1.center - e2.center)),
        e1.bounding_radius,
        e2.bounding_radius,
    )


def _mp_distance(e1, e2):
    """The mpmath distance of two ellipsoids, shapes ``A S^2 A'``."""
    shapes = [(e.axes * e.semi_lengths**2) @ e.axes.T for e in (e1, e2)]
    return mp_ellipsoid_distance(e1.center, shapes[0], e2.center, shapes[1])


def _sphere(center, radius, dim=3):
    return Ellipsoid(
        center=np.asarray(center, dtype=float),
        axes=np.eye(dim),
        semi_lengths=np.full(dim, float(radius)),
    )


class TestBuildEllipsoid:
    def test_isotropic_covariance_gives_sphere(self):
        e = build_ellipsoid([1.0, 2.0, 3.0], 4.0 * np.eye(3), k=2.0)
        assert_allclose(e.semi_lengths, [4.0, 4.0, 4.0])
        assert_allclose(e.center, [1.0, 2.0, 3.0])

    def test_diagonal_covariance(self):
        e = build_ellipsoid([0.0, 0.0, 0.0], np.diag([4.0, 1.0, 1.0]), k=3.0)
        assert_allclose(sorted(e.semi_lengths, reverse=True), [6.0, 3.0, 3.0])
        # the major axis is the first canonical direction
        major = e.axes[:, int(np.argmax(e.semi_lengths))]
        assert abs(major @ np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_boundary_points_satisfy_pivot_equation(self):
        rng = np.random.default_rng(12)
        cov = random_spd(rng, 3, 2.0)
        k = 2.5
        e = build_ellipsoid([5.0, -1.0, 2.0], cov, k=k)
        # independent pivot check straight from the covariance
        eigvals, eigvecs = np.linalg.eigh(cov)
        points = e.center + (fibonacci_sphere(10**5) * e.semi_lengths) @ e.axes.T
        xi = (points - np.array([5.0, -1.0, 2.0])) @ eigvecs / np.sqrt(eigvals)
        norms = np.linalg.norm(xi, axis=1)
        assert np.max(np.abs(norms - k)) < 1e-9

    def test_singular_covariance_rejected(self):
        with pytest.raises(InputValidationError, match="degenerate"):
            build_ellipsoid([0.0, 0.0, 0.0], np.diag([1.0, 1.0, 0.0]), k=1.0)

    def test_invalid_k_rejected(self):
        with pytest.raises(InputValidationError):
            build_ellipsoid([0.0, 0.0, 0.0], np.eye(3), k=0.0)

    def test_caller_center_stays_writable(self):
        center = np.zeros(3)
        e = build_ellipsoid(center, np.eye(3), k=1.0)
        assert center.flags.writeable and not e.center.flags.writeable

    @pytest.mark.parametrize("fields, message", [
        (([0.0, 0.0], np.eye(3), [1.0, 1.0, 1.0]),
         "inconsistent ellipsoid shapes: center (2,), axes (3, 3), semi_lengths (3,)"),
        (([0.0, math.nan, 0.0], np.eye(3), [1.0, 1.0, 1.0]),
         "ellipsoid fields contain non-finite entries"),
        (([0.0, 0.0, 0.0], np.eye(3), [1.0, 0.0, 1.0]),
         "semi_lengths must be positive, got [1.0, 0.0, 1.0]"),
    ], ids=["shape", "non-finite", "non-positive"])
    def test_outside_construction_is_checked(self, fields, message):
        # test_axes_must_be_orthonormal below has the fourth check
        with pytest.raises(InputValidationError, match=f"^{re.escape(message)}$"):
            Ellipsoid(*fields)

    def test_axes_must_be_orthonormal(self):
        with pytest.raises(InputValidationError, match="orthonormal"):
            Ellipsoid(
                center=[0.0, 0.0, 0.0],
                axes=np.ones((3, 3)),
                semi_lengths=[1.0, 1.0, 1.0],
            )


class TestProjection:
    def test_interior_point_unchanged(self):
        e = _sphere([0, 0, 0], 2.0)
        p = np.array([0.5, 0.5, 0.0])
        assert_allclose(project_point(e, p), p)

    def test_sphere_projection(self):
        e = _sphere([1.0, 0.0, 0.0], 2.0)
        assert_allclose(project_point(e, [10.0, 0.0, 0.0]), [3.0, 0.0, 0.0])

    def test_projection_lands_on_boundary_and_is_nearest(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            e = random_ellipsoid(rng, center=rng.standard_normal(3))
            y = e.center + rng.standard_normal(3) * 10.0
            if e.contains(y):
                continue
            x = project_point(e, y)
            assert e.squared_radius(x) == pytest.approx(1.0, abs=1e-10)
            # nearest among a dense boundary sample
            cloud = e.center + (fibonacci_sphere(2000) * e.semi_lengths) @ e.axes.T
            dists = np.linalg.norm(cloud - y, axis=1)
            assert np.linalg.norm(x - y) <= dists.min() + 1e-9

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
    def test_far_projection_lands_on_boundary(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)))
        for _ in range(50):
            e = random_ellipsoid(rng, center=rng.standard_normal(3))
            x = project_point(e, e.center + rng.standard_normal(3) * scale)
            assert e.squared_radius(x) == pytest.approx(1.0, abs=1e-13)


def _near_hard_case(top_c, excess):
    """Sphere-maximum terms: a pole term ``top_c`` at ``d = 0`` and two
    terms whose sum at ``t = 0`` (the leak) is ``1 + excess``."""
    d = np.array([0.0, 0.5, 1.0])
    base = np.array([0.0, 0.3, 0.7])
    c = base * np.sqrt((1.0 + excess) / np.sum((base[1:] / d[1:]) ** 2))
    c[0] = top_c
    return c, d


def _mp_sphere_max(w, sigma):
    """Secular root and maximum of ``||w + sigma * y||**2`` over the unit
    ball at 40 digits, for descending ``sigma`` with ``sigma[0] = 1``
    outside the hard case."""
    gap = 1.0 - sigma * sigma
    with mpmath.workdps(40):
        t = mp_secular_root(sigma * w, gap)
        return t, mpmath.fsum(
            (mpmath.mpf(wi) * (1 + t) / (mpmath.mpf(gi) + t)) ** 2
            for wi, gi in zip(w, gap)
        )


def _mp_sphere_min(w, sigma):
    """Minimum of ``||w + sigma * y||**2`` over the unit sphere at 40
    digits, for descending ``sigma`` outside the hard case: the multiplier
    is ``sigma_min**2 - t`` with ``gap = sigma**2 - sigma_min**2``."""
    sig2 = sigma * sigma
    gap = sig2 - sig2[-1]
    with mpmath.workdps(40):
        t = mp_secular_root(sigma * w, gap)
        multiplier = mpmath.mpf(float(sig2[-1])) - t
        return mpmath.fsum(
            (mpmath.mpf(wi) * multiplier / (mpmath.mpf(gi) + t)) ** 2
            for wi, gi in zip(w, gap)
        )


class TestSphereMinimum:
    def test_against_mpmath(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            sigma = np.sort(10.0 ** rng.uniform(-3.0, 0.0, n))[::-1]
            w = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 0.5)
            scale = max(sigma[0], float(np.linalg.norm(w)))
            w, sigma = w / scale, sigma / scale
            reference = _mp_sphere_min(w, sigma)
            got = ellipsoids._sphere_extreme(w, sigma, -1.0)
            assert abs(got - reference) <= 1e-13 * reference

    def test_hard_case_against_dense_sphere(self):
        # no offset along the smallest axis, and a secular sum below 1 there:
        # the leftover length goes into that axis
        w = np.array([0.2, 0.1, 0.0])
        sigma = np.array([1.0, 0.8, 0.5])
        values = np.sum((w + sigma * fibonacci_sphere(10**5)) ** 2, axis=1)
        got = ellipsoids._sphere_extreme(w, sigma, -1.0)
        assert values.min() - 1e-4 <= got <= values.min()


    def test_offset_beside_a_thin_pole(self):
        # an offset of 5e-15 is half the thin axis: not the hard case
        got = ellipsoids._sphere_extreme(np.array([0.0, 5e-15]), np.array([1.0, 1e-13]), -1.0)
        assert got == pytest.approx((1e-13 - 5e-15) ** 2, rel=1e-12, abs=0.0)

    def test_hard_case_pole_is_only_the_smallest_axis(self):
        # axes 1e-7 and 1e-13 are far apart, though their squares differ by
        # less than 1e-12 of the largest: the offset along 1e-7 is cancelled
        # and the rest of the unit length goes into the 1e-13 axis
        w = np.array([0.0, 1e-9, 0.0])
        sigma = np.array([1.0, 1e-7, 1e-13])
        end = 1e-26
        leak = (1e-16 / (1e-14 - end)) ** 2
        expected = end * (1.0 - leak) + (1e-9 * end / (1e-14 - end)) ** 2
        got = ellipsoids._sphere_extreme(w, sigma, -1.0)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestSecularRoot:
    @staticmethod
    def _check(c, d, rtol=1e-14):
        got = ellipsoids._secular_root(c, d)
        reference = mp_secular_root(c, d)
        assert abs(got - reference) <= rtol * reference

    def test_pole_terms(self):
        rng = np.random.default_rng(60)
        for n_poles in (1, 2):
            for _ in range(40):
                c = rng.standard_normal(3) * 10.0 ** rng.uniform(-3.0, 1.0, 3)
                d = 10.0 ** rng.uniform(-4.0, 0.0, 3)
                d[:n_poles] = 0.0
                self._check(c, d)

    def test_widely_spread_poles_axis_ratio_1e4(self):
        # d = sigma^2 with singular values spread over four decades
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 100:
            d = np.sort(10.0 ** rng.uniform(-8.0, 0.0, 3))
            d[0], d[-1] = 1e-8, 1.0
            c = np.sqrt(d) * rng.standard_normal(3) * 10.0 ** rng.uniform(-1.0, 2.0, 3)
            if np.sum((c / d) ** 2) > 2.0:
                self._check(c, d)
                checked += 1

    def test_near_hard_case_maximum(self):
        self._check(*_near_hard_case(1e-15, 0.1))

    @pytest.mark.parametrize("excess", [1e-6, 1e-10])
    def test_near_hard_case_maximum_value(self, excess):
        # a leak barely above 1 leaves the root itself ill-conditioned
        # (relative condition number about 1 / excess), but not the maximum:
        # it moves by only (sig_max2 + t) times the error left in the sum
        w = np.array([1e-15, 0.3, 0.7])
        sigma = np.array([1.0, 0.8, 0.6])
        gap = 1.0 - sigma * sigma
        w[1:] *= np.sqrt((1.0 + excess) / np.sum((sigma[1:] * w[1:] / gap[1:]) ** 2))
        t, reference = _mp_sphere_max(w, sigma)
        got = ellipsoids._sphere_extreme(w, sigma, 1.0)
        assert abs(got - reference) <= 1e-14 * reference
        root = ellipsoids._secular_root(sigma * w, gap)
        assert abs(root - t) <= 64 * np.finfo(float).eps / excess * t

    @pytest.mark.parametrize("excess", [1e-10, 1e-14])
    def test_tiny_pole_needs_few_evaluations(self, excess, monkeypatch):
        # from the pole's own root Newton alone needs 36-47 evaluations;
        # geometric-mean jumps reach the leak's scale at once
        monkeypatch.setattr(ellipsoids, "_SECULAR_MAX_ITERS", 8)
        c, d = _near_hard_case(1e-300, excess)
        got = ellipsoids._secular_root(c, d)
        reference = mp_secular_root(c, d)
        assert abs(got - reference) <= 64 * np.finfo(float).eps / excess * reference

    def test_iteration_cap_reports_bracket(self, monkeypatch):
        c, d = np.array([0.3, 2.0, 0.5]), np.array([0.0, 0.1, 1.0])
        monkeypatch.setattr(ellipsoids, "_SECULAR_MAX_ITERS", 1)
        with pytest.raises(NumericalError, match="did not converge") as info:
            ellipsoids._secular_root(c, d)
        bounds = re.search(r"between (\S+) and (\S+)$", str(info.value))
        lower, upper = (float(b) for b in bounds.groups())
        assert lower < float(mp_secular_root(c, d)) < upper


class TestSecularRoots:
    """The block solve row by row against the scalar one and the oracle."""

    @staticmethod
    def _rows(rng, n):
        """Rows with ``f(0) > 1``: up to two pole terms (``d = 0``), ``d``
        over 8 decades and ``c`` over 4, and about a quarter of the ``c``
        terms exactly 0, a pole's among them."""
        c = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-3.0, 1.0, (n, 3))
        d = 10.0 ** rng.uniform(-8.0, 0.0, (n, 3))
        d[np.arange(3) < rng.integers(0, 3, n)[:, None]] = 0.0
        c[rng.uniform(size=(n, 3)) < 0.25] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            f0 = np.where(c != 0.0, (c / d) ** 2, 0.0).sum(axis=1)
        keep = f0 > 1.0
        return c[keep], d[keep]

    def test_rows_agree_with_the_scalar_solve_and_the_oracle(self):
        c, d = self._rows(np.random.default_rng(63), 400)
        assert len(c) > 300 and (c == 0.0).any() and (d == 0.0).any()
        roots = ellipsoids._secular_roots(c, d)
        scalar = np.array([ellipsoids._secular_root(ci, di) for ci, di in zip(c, d)])
        assert np.all(np.abs(roots - scalar) <= 2.0 * np.spacing(scalar))
        for ci, di, root in list(zip(c, d, roots))[::5]:
            reference = mp_secular_root(ci, di)
            assert abs(root - reference) <= 1e-14 * reference

    def test_a_row_is_its_own_block(self):
        # a row's root does not depend on the rows solved with it
        c, d = self._rows(np.random.default_rng(64), 60)
        roots = ellipsoids._secular_roots(c, d)
        for i in (0, 7, len(c) - 1):
            assert ellipsoids._secular_roots(c[i:i + 2], d[i:i + 2])[0] == roots[i]

    def test_iteration_cap_reports_the_failing_rows_bracket(self, monkeypatch):
        # the first row converges at its start, the second hits the cap
        c = np.array([[2.0, 0.0, 0.0], [0.3, 2.0, 0.5]])
        d = np.array([[1.0, 0.0, 0.0], [0.0, 0.1, 1.0]])
        monkeypatch.setattr(ellipsoids, "_SECULAR_MAX_ITERS", 1)
        with pytest.raises(NumericalError, match="did not converge") as scalar:
            ellipsoids._secular_root(c[1], d[1])
        with pytest.raises(NumericalError, match="did not converge") as block:
            ellipsoids._secular_roots(c, d)
        assert str(block.value) == str(scalar.value)


class TestStandardizedRange:
    def test_concentric_spheres(self):
        gmin, gmax = standardized_range(_sphere([0, 0, 0], 2.0), _sphere([0, 0, 0], 1.0))
        assert gmin == pytest.approx(0.0, abs=1e-14)
        assert gmax == pytest.approx(0.25, rel=1e-12)

    def test_offset_spheres_closed_form(self):
        prop = _sphere([0, 0, 0], 1.0)
        region = _sphere([3.0, 0.0, 0.0], 0.5)
        gmin, gmax = standardized_range(prop, region)
        assert gmin == pytest.approx(2.5**2, rel=1e-12)
        assert gmax == pytest.approx(3.5**2, rel=1e-12)

    def test_hard_case_on_minor_axis(self):
        # offset orthogonal to the major axis: the secular pole carries no
        # component, exercising the degenerate branch
        prop = Ellipsoid(
            center=[0.0, 0.0, 0.0], axes=np.eye(3), semi_lengths=[1.0, 2.0, 2.0]
        )
        region = _sphere([0.0, 0.0, 0.0], 0.5)
        gmin, gmax = standardized_range(prop, region)
        assert gmin == pytest.approx(0.0, abs=1e-14)
        assert gmax == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("offset", [1e-13, 1e-12, 1e-10])
    def test_maximum_with_pole_just_above_hard_case(self, offset):
        # the secular root is about ``offset``: the distance to the pole has
        # to be carried as such, since 1 + offset keeps few of its digits
        w = np.array([offset, 0.2, 0.1])
        sigma = np.array([1.0, 0.5, 0.3])
        region = Ellipsoid(center=w, axes=np.eye(3), semi_lengths=sigma)
        _, gmax = standardized_range(_sphere([0.0, 0.0, 0.0], 1.0), region)
        _, reference = _mp_sphere_max(w, sigma)
        assert abs(gmax - reference) <= 1e-14 * reference

    def test_tiny_far_region(self):
        # a pole term sigma * w below 1e-14 is not a hard case when w itself
        # is large: the tiny region far away is not inside the unit segment
        prop = _sphere([0.0], 1.0, dim=1)
        region = Ellipsoid(center=[5.0], axes=np.eye(1), semi_lengths=[1e-20])
        gmin, gmax = standardized_range(prop, region)
        assert gmin == pytest.approx(25.0, rel=1e-12)
        assert gmax == pytest.approx(25.0, rel=1e-12)
        assert not contains_region(EllipsoidSet(prop), region)

    def test_range_matches_sampling(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            prop = random_ellipsoid(rng, center=rng.standard_normal(3) * 2.0)
            region = random_ellipsoid(rng, center=rng.standard_normal(3) * 2.0)
            gmin, gmax = standardized_range(prop, region)
            # dense interior + boundary sample of the region
            dirs = fibonacci_sphere(4000)
            radii = rng.uniform(0.0, 1.0, (4000, 1)) ** (1.0 / 3.0)
            for cloud_scale in (radii, np.ones((4000, 1))):
                cloud = region.center + (
                    dirs * cloud_scale * region.semi_lengths
                ) @ region.axes.T
                values = np.einsum(
                    "ij,ij->i",
                    ((cloud - prop.center) @ prop.axes) / prop.semi_lengths,
                    ((cloud - prop.center) @ prop.axes) / prop.semi_lengths,
                )
                assert values.min() >= gmin - 1e-9
                assert values.max() <= gmax + 1e-9
            # extremes are nearly attained on the dense sample
            boundary = region.center + (dirs * region.semi_lengths) @ region.axes.T
            vals = np.einsum(
                "ij,ij->i",
                ((boundary - prop.center) @ prop.axes) / prop.semi_lengths,
                ((boundary - prop.center) @ prop.axes) / prop.semi_lengths,
            )
            assert vals.max() >= gmax * 0.99 - 1e-9


class TestIntersectionAndContainment:
    def test_disjoint_and_touching_spheres(self):
        a = _sphere([0, 0, 0], 1.0)
        # min_distance is 0.0 exactly when the intersection test finds contact
        assert min_distance(a, _sphere([3.0, 0, 0], 1.0)) > 0.0
        assert min_distance(a, _sphere([2.0, 0, 0], 1.0)) == 0.0
        assert min_distance(a, _sphere([1.5, 0, 0], 1.0)) == 0.0

    def test_containment(self):
        outer = _sphere([0, 0, 0], 5.0)
        inner = _sphere([1.0, 1.0, 0.0], 1.0)
        assert contains_region(EllipsoidSet(outer), inner)
        assert not contains_region(EllipsoidSet(inner), outer)

    def test_crossing_needles_detected(self):
        # intersection far from both centers; centerline checks miss it
        a = Ellipsoid(
            center=[0, 0, 0], axes=np.eye(3), semi_lengths=[10.0, 0.01, 0.01]
        )
        b = Ellipsoid(
            center=[9.0, 5.0, 0.0],
            axes=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).T,
            semi_lengths=[6.0, 0.01, 0.01],
        )
        assert min_distance(a, b) == 0.0


class TestMinDistance:
    def test_sphere_closed_form(self):
        a = _sphere([0, 0, 0], 1.0)
        b = _sphere([5.0, 0, 0], 1.0)
        assert min_distance(a, b) == pytest.approx(3.0, abs=1e-10)

    def test_random_sphere_pairs_exact(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            c1 = rng.standard_normal(3) * 5.0
            c2 = rng.standard_normal(3) * 5.0
            r1, r2 = rng.uniform(0.2, 2.0, 2)
            expected = max(0.0, float(np.linalg.norm(c1 - c2)) - r1 - r2)
            got = min_distance(_sphere(c1, r1), _sphere(c2, r2))
            assert got == pytest.approx(expected, abs=1e-10 * max(1.0, expected))

    def test_coincident_centers(self):
        a = _sphere([0, 0, 0], 1.0)
        b = Ellipsoid(center=[0, 0, 0], axes=np.eye(3), semi_lengths=[3.0, 2.0, 1.0])
        assert min_distance(a, b) == 0.0

    def test_symmetry_and_center_bound(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            e1, e2 = separated_ellipsoid_pair(rng)
            d12 = min_distance(e1, e2)
            d21 = min_distance(e2, e1)
            gap = float(np.linalg.norm(e1.center - e2.center))
            assert abs(d12 - d21) <= 1e-10 * max(1.0, gap)
            assert d12 <= gap

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            e1, e2 = separated_ellipsoid_pair(rng)
            got = min_distance(e1, e2)
            oracle = dense_min_distance_oracle(e1, e2)
            assert abs(got - oracle) <= 1e-6 * _scale(e1, e2)

    @pytest.mark.parametrize("rel_gap", [1e-2, 1e-3, 1e-10])
    @pytest.mark.parametrize("axis_ratio", [10.0, 30.0, 100.0, 1e3, 1e4])
    def test_elongated_near_touching_against_mpmath(self, axis_ratio, rel_gap):
        rng = np.random.default_rng([int(axis_ratio), int(1.0 / rel_gap)])
        for offset in (0.0, 7.0e6):
            e1, e2 = ellipsoid_pair_with_gap(rng, axis_ratio, rel_gap, offset)
            reference = float(_mp_distance(e1, e2))
            assert reference > 0.0
            got = min_distance(e1, e2)
            assert abs(got - reference) <= 1e-9 * _scale(e1, e2)

    def test_iteration_cap_reports_both_bounds(self, monkeypatch):
        rng = np.random.default_rng(31)
        e1, e2 = ellipsoid_pair_with_gap(rng, 30.0, 1e-3)
        monkeypatch.setattr(ellipsoids, "_DISTANCE_MAX_ITERS", 1)
        with pytest.raises(NumericalError, match="did not converge") as info:
            min_distance(e1, e2)
        bounds = re.search(r"between (\S+) and (\S+)$", str(info.value))
        lower, upper = (float(b) for b in bounds.groups())
        reference = float(_mp_distance(e1, e2))
        assert 0.0 <= lower < reference < upper

    def test_newton_work_budget(self, monkeypatch):
        # the better of the center line and the intersection test's
        # separating normal is a start that a few Newton steps finish alone
        projections, probes = [], []
        probe = ellipsoids._probe

        def counted(*args):
            probes.append(1)
            return probe(*args)

        monkeypatch.setattr(ellipsoids, "project_point", lambda *a: projections.append(1))
        monkeypatch.setattr(ellipsoids, "_probe", counted)
        rng = np.random.default_rng(19)
        for _ in range(50):
            pair = separated_ellipsoid_pair(rng, min_factor=1.0)
            probes.clear()
            assert min_distance(*pair) > 0.0
            assert 0 < len(probes) <= 10
        assert projections == []

    @pytest.mark.parametrize("seed", [43, 750, 1086, 2090, 2116, 2915, 2961, 3677])
    def test_elongated_pairs_that_defeated_projection(self, seed):
        # the hardest of 4000 pairs drawn this way, with axis ratios up to
        # 1e6 and gaps down to 1e-12 of the touching size
        rng = np.random.default_rng(seed)
        ratio, gap = 10 ** rng.uniform(0, 6), 10 ** rng.uniform(-12, 0)
        offset = rng.choice([0.0, 7e6])
        e1, e2 = ellipsoid_pair_with_gap(rng, ratio, gap, offset)
        reference = float(_mp_distance(e1, e2))
        assert abs(min_distance(e1, e2) - reference) <= 1e-12 * _scale(e1, e2)

    def test_far_separation(self):
        rng = np.random.default_rng(18)
        e1 = random_ellipsoid(rng)
        e2 = Ellipsoid(
            center=[1000.0, 0.0, 0.0], axes=np.eye(3), semi_lengths=[1.0, 2.0, 3.0]
        )
        d = min_distance(e1, e2)
        assert d > 1000.0 - e1.bounding_radius - 3.0 - 1e-6

    def test_dimension_mismatch(self):
        a = _sphere([0, 0, 0], 1.0)
        b = Ellipsoid(center=[0.0], axes=np.eye(1), semi_lengths=[1.0])
        with pytest.raises(InputValidationError, match="dimension"):
            min_distance(a, b)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("rows", [(), (7,), (3000,)])
def test_row_product_equals_matmul(dim, rows):
    rng = np.random.default_rng(dim + len(rows))
    block = rng.standard_normal(rows + (dim,)) * 1e3
    for mat in (rng.standard_normal((dim, dim)), rng.standard_normal(dim)):
        got = ellipsoids.row_product(block, mat)
        ref = block @ mat
        assert np.shape(got) == np.shape(ref)
        assert np.array_equal(got, ref)
