"""Proposition algebra: membership, containment, intersection decidability."""

import numpy as np
import pytest

from conjrisk import (
    Ball,
    Complement,
    Ellipsoid,
    EllipsoidSet,
    FullSpace,
    HalfSpace,
    InputValidationError,
    Proposition,
    UnsupportedPropositionError,
    contains_point,
    contains_region,
    intersects_region,
)
from conjrisk.propositions import depth

from conftest import random_ellipsoid


def _unit_ball_region(center=(0.0, 0.0, 0.0), radius=1.0):
    return Ball(center=np.asarray(center), radius=radius).ellipsoid


class TestContainsPoint:
    def test_primitives(self):
        assert contains_point(FullSpace(), [5.0, 5.0, 5.0])
        ball = Ball(center=[0.0, 0.0, 0.0], radius=2.0)
        assert contains_point(ball, [1.0, 1.0, 1.0])
        assert not contains_point(ball, [2.0, 2.0, 0.0])
        hs = HalfSpace(normal=[1.0, 0.0, 0.0], offset=1.0)
        assert contains_point(hs, [0.5, 9.0, -3.0])
        assert not contains_point(hs, [1.5, 0.0, 0.0])

    def test_composites(self):
        ball = Ball(center=[0.0, 0.0, 0.0], radius=1.0)
        assert contains_point(Complement(ball), [2.0, 0.0, 0.0])
        assert not contains_point(Complement(ball), [0.0, 0.0, 0.0])

    def test_ellipsoid_set(self):
        e = Ellipsoid(center=[0.0, 0.0, 0.0], axes=np.eye(3), semi_lengths=[2.0, 1.0, 1.0])
        assert contains_point(EllipsoidSet(e), [1.9, 0.0, 0.0])
        assert not contains_point(EllipsoidSet(e), [0.0, 1.1, 0.0])


class TestRegionPredicates:
    def test_full_space(self):
        region = _unit_ball_region()
        assert contains_region(FullSpace(), region)
        assert intersects_region(FullSpace(), region)

    def test_ball_proposition(self):
        region = _unit_ball_region()
        assert contains_region(Ball(center=[0.0, 0.0, 0.0], radius=1.5), region)
        assert not contains_region(Ball(center=[0.0, 0.0, 0.0], radius=0.9), region)
        assert intersects_region(Ball(center=[1.5, 0.0, 0.0], radius=0.6), region)
        assert not intersects_region(Ball(center=[3.0, 0.0, 0.0], radius=0.5), region)

    def test_ball_carries_its_ellipsoid(self):
        ball = Ball(center=[1.0, -2.0, 0.5], radius=2.0)
        np.testing.assert_array_equal(ball.ellipsoid.center, ball.center)
        np.testing.assert_array_equal(ball.ellipsoid.axes, np.eye(3))
        np.testing.assert_array_equal(ball.ellipsoid.semi_lengths, [2.0, 2.0, 2.0])

    def test_halfspace_proposition(self):
        region = _unit_ball_region()
        assert contains_region(HalfSpace(normal=[1.0, 0.0, 0.0], offset=1.0), region)
        assert not contains_region(
            HalfSpace(normal=[1.0, 0.0, 0.0], offset=0.5), region
        )
        assert intersects_region(
            HalfSpace(normal=[1.0, 0.0, 0.0], offset=-0.5), region
        )
        assert not intersects_region(
            HalfSpace(normal=[1.0, 0.0, 0.0], offset=-1.5), region
        )

    def test_complement_duality(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            region = random_ellipsoid(rng, center=rng.standard_normal(3))
            prop = Ball(center=rng.standard_normal(3) * 2.0, radius=rng.uniform(0.5, 3.0))
            comp = Complement(prop)
            assert contains_region(comp, region) == (
                not intersects_region(prop, region)
            )
            assert intersects_region(comp, region) == (
                not contains_region(prop, region)
            )

    def test_unknown_descriptor_is_unsupported(self):
        class Odd(Proposition):
            __slots__ = ()

        region = _unit_ball_region()
        with pytest.raises(UnsupportedPropositionError):
            contains_point(Odd(), [0.0, 0.0, 0.0])
        with pytest.raises(UnsupportedPropositionError):
            contains_region(Odd(), region)
        with pytest.raises(UnsupportedPropositionError):
            intersects_region(Odd(), region)

    def test_validation(self):
        with pytest.raises(InputValidationError):
            Ball(center=[0.0, 0.0], radius=-1.0)
        with pytest.raises(InputValidationError):
            HalfSpace(normal=[0.0, 0.0, 0.0], offset=1.0)


class TestHalfSpaceSlack:
    """The contact slack scales with the magnitudes involved, not the unit."""

    def test_point_just_outside_a_tiny_offset(self):
        hs = HalfSpace(normal=[-1.0, 0.0], offset=-1e-13)  # x1 >= 1e-13
        assert not contains_point(hs, [0.0, 0.0])
        assert contains_point(hs, [1e-13, 0.0])

    def test_tiny_ball_beside_a_tiny_offset(self):
        hs = HalfSpace(normal=[-1.0, 0.0], offset=-1e-13)
        assert depth(hs, Ball(center=[0.0, 0.0], radius=1e-14).ellipsoid) == 0.0
        inside = Ball(center=[2e-13, 0.0], radius=1e-14).ellipsoid
        assert depth(hs, inside) == pytest.approx(10.0, rel=1e-9)

    def test_tiny_normal_and_offset_about_a_tinier_region(self):
        # x1 >= 1e-100 holds nowhere on a region 1e-150 across at the origin
        hs = HalfSpace(normal=[-1e-200, 0.0], offset=-1e-300)
        region = Ball(center=[0.0, 0.0], radius=1e-150).ellipsoid
        assert depth(hs, region) == 0.0
        assert not contains_region(hs, region)
        assert not contains_point(hs, [0.0, 0.0])
