"""Set descriptors with decidable geometry against ellipsoidal regions.

Propositions about the inferred parameter are represented as a closed
algebra of sets: the full space, balls, ellipsoids, half-spaces and
complements. The algebra is deliberately restricted so that point
membership is exact, and so are the ``depth`` and ``reach`` of a set
about an ellipsoidal region, the largest scale of the region inside the
set and the smallest that meets it, in closed form or by the ellipsoid
kernels. They decide containment (``depth >= 1``) and intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ellipsoids import (
    _CONTACT_RTOL,
    Ellipsoid,
    ellipsoid_depth,
    ellipsoid_reach,
    row_product,
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
        if not normal.any():
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
        return bool(prop.ellipsoid.contains(point))
    if isinstance(prop, HalfSpace):
        bound = abs(prop.offset) + float(np.linalg.norm(prop.normal)) * float(
            np.linalg.norm(point)
        )
        return float(prop.normal @ point) <= prop.offset + _CONTACT_RTOL * bound
    if isinstance(prop, Complement):
        return not contains_point(prop.inner, point)
    raise UnsupportedPropositionError(f"unknown proposition type {type(prop).__name__}")


def depth(prop: Proposition, region: Ellipsoid, centers=None):
    """Largest ``k`` such that ``region`` scaled by ``k`` about its center
    lies inside the proposition set: the region-standardized distance from
    the center to the set's complement (0 for a center outside the set).

    Given ``centers``, an ``(n, dim)`` array, ``region`` is only a shape:
    the ``(n,)`` depths are those of that shape about each row, decided
    with array operations. Without it, the region's own center is the one
    row and the depth is a float.
    """
    rows = region.center[None] if centers is None else np.asarray(centers, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != region.dim:
        raise InputValidationError(
            f"centers of shape {rows.shape} do not fit dimension {region.dim}"
        )
    inside = True
    while isinstance(prop, Complement):  # a complement swaps depth and reach
        prop, inside = prop.inner, not inside
    if isinstance(prop, FullSpace):
        depths = np.full(rows.shape[0], math.inf if inside else 0.0)
    elif isinstance(prop, (Ball, EllipsoidSet)):
        kernel = ellipsoid_depth if inside else ellipsoid_reach
        depths = kernel(prop.ellipsoid, region, rows)
    elif isinstance(prop, HalfSpace):
        # ``normal . x`` spans ``mid +- k * rho`` over the region scaled by
        # ``k``; the contact slack grows with the magnitudes involved
        rho = math.hypot(*(region.semi_lengths * (region.axes.T @ prop.normal)))
        with np.errstate(over="ignore"):  # an overflow is ``inf``, as in floats
            mid = row_product(rows, prop.normal)
            span = abs(prop.offset) + math.hypot(*prop.normal) * (
                np.hypot.reduce(rows, axis=1) + region.bounding_radius
            )
            room = prop.offset + _CONTACT_RTOL * span - mid
            margin = room / rho if rho > 0.0 else np.copysign(math.inf, room)
        depths = np.maximum(margin if inside else -margin, 0.0)
    else:
        raise UnsupportedPropositionError(
            f"unknown proposition type {type(prop).__name__}"
        )
    return float(depths[0]) if centers is None else depths


def reach(prop: Proposition, region: Ellipsoid, centers=None):
    """Smallest ``k`` such that ``region`` scaled by ``k`` about its center
    meets the proposition set: the depth of its complement, per row of
    ``centers`` as in ``depth``."""
    return depth(Complement(prop), region, centers)


def contains_region(prop: Proposition, region: Ellipsoid) -> bool:
    """Whether the proposition set contains the whole ellipsoidal region."""
    return depth(prop, region) >= 1.0 - _CONTACT_RTOL


def intersects_region(prop: Proposition, region: Ellipsoid) -> bool:
    """Whether the proposition set meets the ellipsoidal region."""
    return reach(prop, region) <= 1.0 + _CONTACT_RTOL
