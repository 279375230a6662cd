"""Set descriptors with decidable geometry against ellipsoidal regions.

Propositions about the inferred parameter are represented as a closed
algebra of sets: the full space, balls, ellipsoids, half-spaces and
complements. The algebra is deliberately restricted so that point
membership, containment of an ellipsoidal confidence region and
intersection with one are each decided exactly, in closed form or by the
ellipsoid kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ellipsoids import (
    _CONTACT_RTOL,
    Ellipsoid,
    ellipsoid_contains,
    ellipsoids_intersect,
)
from .errors import InputValidationError, UnsupportedPropositionError


class Proposition:
    """Marker base class for set descriptors."""

    __slots__ = ()


@dataclass(frozen=True)
class FullSpace(Proposition):
    """The entire parameter space (the trivially true proposition)."""


@dataclass(frozen=True, eq=False)
class Ball(Proposition):
    """Closed Euclidean ball, with its unit-axes ellipsoid built once."""

    center: np.ndarray
    radius: float
    ellipsoid: Ellipsoid = field(init=False, repr=False)

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1 or not np.all(np.isfinite(center)):
            raise InputValidationError("ball center must be a finite vector")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise InputValidationError(f"ball radius must be positive, got {self.radius}")
        n = center.shape[0]
        ellipsoid = Ellipsoid(center, np.eye(n), np.full(n, float(self.radius)))
        object.__setattr__(self, "center", ellipsoid.center)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "ellipsoid", ellipsoid)


@dataclass(frozen=True, eq=False)
class EllipsoidSet(Proposition):
    """Closed solid ellipsoid as a proposition."""

    ellipsoid: Ellipsoid


@dataclass(frozen=True, eq=False)
class HalfSpace(Proposition):
    """Closed half-space ``{x : normal . x <= offset}``."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = np.atleast_1d(np.asarray(self.normal, dtype=float))
        if normal.ndim != 1 or not np.all(np.isfinite(normal)):
            raise InputValidationError("half-space normal must be a finite vector")
        if float(np.linalg.norm(normal)) == 0.0:
            raise InputValidationError("half-space normal must be nonzero")
        if not math.isfinite(self.offset):
            raise InputValidationError(f"half-space offset must be finite, got {self.offset}")
        normal = np.array(normal)
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))


@dataclass(frozen=True)
class Complement(Proposition):
    """Set complement of another proposition."""

    inner: Proposition


def contains_point(prop: Proposition, point) -> bool:
    """Point membership, exact for every descriptor."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if isinstance(prop, FullSpace):
        return True
    if isinstance(prop, Ball):
        return float(np.linalg.norm(point - prop.center)) <= prop.radius * (
            1.0 + _CONTACT_RTOL
        )
    if isinstance(prop, EllipsoidSet):
        return prop.ellipsoid.contains(point)
    if isinstance(prop, HalfSpace):
        bound = abs(prop.offset) + float(np.linalg.norm(prop.normal)) * float(
            np.linalg.norm(point)
        )
        return float(prop.normal @ point) <= prop.offset + _CONTACT_RTOL * max(
            bound, 1.0
        )
    if isinstance(prop, Complement):
        return not contains_point(prop.inner, point)
    raise UnsupportedPropositionError(f"unknown proposition type {type(prop).__name__}")


def _halfspace_support(hs: HalfSpace, region: Ellipsoid) -> tuple[float, float]:
    """Range of ``normal . x`` over the region."""
    mid = float(hs.normal @ region.center)
    reach = float(
        np.linalg.norm(region.semi_lengths * (region.axes.T @ hs.normal))
    )
    return mid - reach, mid + reach


def _halfspace_tol(hs: HalfSpace, region: Ellipsoid) -> float:
    span = abs(hs.offset) + float(np.linalg.norm(hs.normal)) * (
        float(np.linalg.norm(region.center)) + region.bounding_radius
    )
    return _CONTACT_RTOL * max(span, 1.0)


def contains_region(prop: Proposition, region: Ellipsoid) -> bool:
    """Whether the proposition set contains the whole ellipsoidal region."""
    if isinstance(prop, FullSpace):
        return True
    if isinstance(prop, (Ball, EllipsoidSet)):
        return ellipsoid_contains(prop.ellipsoid, region)
    if isinstance(prop, HalfSpace):
        _, hi = _halfspace_support(prop, region)
        return hi <= prop.offset + _halfspace_tol(prop, region)
    if isinstance(prop, Complement):
        return not intersects_region(prop.inner, region)
    raise UnsupportedPropositionError(f"unknown proposition type {type(prop).__name__}")


def intersects_region(prop: Proposition, region: Ellipsoid) -> bool:
    """Whether the proposition set meets the ellipsoidal region."""
    if isinstance(prop, FullSpace):
        return True
    if isinstance(prop, (Ball, EllipsoidSet)):
        return ellipsoids_intersect(prop.ellipsoid, region)
    if isinstance(prop, HalfSpace):
        lo, _ = _halfspace_support(prop, region)
        return lo <= prop.offset + _halfspace_tol(prop, region)
    if isinstance(prop, Complement):
        return not contains_region(prop.inner, region)
    raise UnsupportedPropositionError(f"unknown proposition type {type(prop).__name__}")
