"""Uncertainty ellipsoids and exact distance/overlap primitives.

An ellipsoid is stored as center, orthonormal axes, and semi-axis lengths.
Every geometric decision reduces to the range of one ellipsoid's
standardized squared radius over another ellipsoid, which diagonalizes to a
one-dimensional secular equation solved by bracketing. The distance between
separated bodies is the largest separation ``n.delta - h1(n) - h2(n)`` over
unit directions, from the closed-form support functions ``h``; one run of
Newton steps on the sphere brackets it from both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputValidationError, NumericalError
from .geometry import covariance_eigh

_ORTHONORMAL_ATOL = 1e-10
_CONTACT_RTOL = 1e-12
_PROJECTION_MAX_ITERS = 10**4
_DISTANCE_TOL_SCALE = 1e-10
_NEWTON_HALVINGS = 20
_DEGENERATE_SIGMA = 1e-12


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Solid ellipsoid: center, orthonormal axis columns, semi-axis lengths."""

    center: np.ndarray
    axes: np.ndarray
    semi_lengths: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        axes = np.asarray(self.axes, dtype=float)
        semi = np.asarray(self.semi_lengths, dtype=float)
        n = center.shape[0] if center.ndim == 1 else -1
        if center.ndim != 1 or axes.shape != (n, n) or semi.shape != (n,):
            raise InputValidationError(
                f"inconsistent ellipsoid shapes: center {center.shape}, "
                f"axes {axes.shape}, semi_lengths {semi.shape}"
            )
        if not (
            np.all(np.isfinite(center))
            and np.all(np.isfinite(axes))
            and np.all(np.isfinite(semi))
        ):
            raise InputValidationError("ellipsoid fields contain non-finite entries")
        if np.any(semi <= 0.0):
            raise InputValidationError(
                f"semi_lengths must be positive, got {semi.tolist()}"
            )
        resid = np.max(np.abs(axes.T @ axes - np.eye(n)))
        if resid > _ORTHONORMAL_ATOL:
            raise InputValidationError(
                f"axes are not orthonormal: max|A^T A - I| = {resid:.3e}"
            )
        for name, arr in (("center", center), ("axes", axes), ("semi_lengths", semi)):
            arr = np.array(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def bounding_radius(self) -> float:
        return float(np.max(self.semi_lengths))

    def standardized(self, point) -> np.ndarray:
        """Coordinates of ``point`` in the unit-ball frame of this ellipsoid."""
        point = np.asarray(point, dtype=float)
        return (self.axes.T @ (point - self.center)) / self.semi_lengths

    def squared_radius(self, point) -> float:
        """Standardized squared radius; <= 1 on the solid, 1 on the surface."""
        xi = self.standardized(point)
        return float(xi @ xi)

    def contains(self, point, tol: float = _CONTACT_RTOL) -> bool:
        return self.squared_radius(point) <= 1.0 + tol

    def surface_point(self, direction) -> np.ndarray:
        """Boundary point in the given direction from the center."""
        direction = np.asarray(direction, dtype=float)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            raise InputValidationError("direction must be nonzero")
        unit = direction / norm
        scaled = (self.axes.T @ unit) / self.semi_lengths
        return self.center + unit / float(np.linalg.norm(scaled))


def build_ellipsoid(center, cov, k: float) -> Ellipsoid:
    """Scale a covariance into a geometric uncertainty ellipsoid.

    Eigendecomposes the covariance and sets the semi-axis lengths to
    ``k * sqrt(eigenvalue)`` along the eigenvector directions, i.e. the
    image of the radius-``k`` sphere under the standardizing pivot.

    Raises:
        InputValidationError: if ``cov`` is not positive definite (degenerate
            region) or ``k`` is not positive.
    """
    if not (k > 0.0 and math.isfinite(k)):
        raise InputValidationError(f"k must be positive, got {k}")
    center = np.asarray(center, dtype=float)
    cov, eigvals, eigvecs = covariance_eigh(cov, "ellipsoid covariance")
    if center.ndim != 1 or cov.shape != (center.shape[0],) * 2:
        raise InputValidationError(
            f"center shape {center.shape} inconsistent with covariance "
            f"shape {cov.shape}"
        )
    if not np.all(np.isfinite(center)):
        raise InputValidationError("center contains non-finite entries")
    if eigvals[0] <= 0.0:
        raise InputValidationError(
            f"covariance is not positive definite (eigenvalue "
            f"{eigvals[0]:.6e}): uncertainty region is degenerate"
        )
    order = np.argsort(eigvals)[::-1]
    return Ellipsoid(
        center=center,
        axes=eigvecs[:, order],
        semi_lengths=k * np.sqrt(eigvals[order]),
    )


def _brentq(fn, lo: float, hi: float) -> float:
    from scipy import optimize  # imported on first use: slow to import

    return float(optimize.brentq(fn, lo, hi, xtol=1e-300, rtol=8.9e-16))


def _min_max_quad_on_ball(b: np.ndarray, mat: np.ndarray) -> tuple[float, float]:
    """Exact range of ``||b + M z||^2`` over the unit ball ``||z|| <= 1``.

    Diagonalizes via the SVD of ``M`` and solves the resulting secular
    equations; the maximum handles the degenerate ("hard") case where the
    offset has no component along the largest singular direction.
    """
    u_mat, sigma, _ = np.linalg.svd(mat)
    w = u_mat.T @ b
    scale = max(float(sigma.max(initial=0.0)), float(np.linalg.norm(w)))
    if scale == 0.0:
        return 0.0, 0.0
    sigma = sigma / scale
    w = w / scale
    sig2 = sigma * sigma
    sw = sigma * w

    active = sigma > _DEGENERATE_SIGMA
    base = float(np.sum(w[~active] ** 2))

    # minimum: inside test, else root of the shrinking secular sum
    if np.sum((w[active] / sigma[active]) ** 2) <= 1.0:
        gmin = base
    else:

        def ball_norm_sq(mu: float) -> float:
            return float(np.sum((sw[active] / (sig2[active] + mu)) ** 2))

        hi = float(np.linalg.norm(sw[active]))
        while ball_norm_sq(hi) > 1.0:
            hi *= 2.0
        mu_star = _brentq(lambda mu: ball_norm_sq(mu) - 1.0, 0.0, hi)
        resid = w[active] * mu_star / (sig2[active] + mu_star)
        gmin = base + float(np.sum(resid * resid))

    # maximum: always on the sphere
    sig_max2 = float(sig2.max())
    if sig_max2 == 0.0:
        return scale * scale * base, scale * scale * base
    top = sig2 >= sig_max2 * (1.0 - 1e-12)

    def sphere_norm_sq(nu: float) -> float:
        return float(np.sum((sw / (nu - sig2)) ** 2))

    if np.all(np.abs(sw[top]) <= 1e-14):
        # offset has no component on the largest axis: the secular sum stays
        # finite at the pole; if it fits inside the sphere budget there, the
        # remaining length goes into the largest axis itself (hard case)
        leak = float(np.sum((sw[~top] / (sig_max2 - sig2[~top])) ** 2))
        if leak <= 1.0:
            rest = w[~top] * sig_max2 / (sig_max2 - sig2[~top])
            gmax = sig_max2 * (1.0 - leak) + float(np.sum(rest * rest))
            return scale * scale * gmin, scale * scale * gmax

    lo = np.nextafter(sig_max2, math.inf)
    hi = sig_max2 + float(np.linalg.norm(sw))
    while sphere_norm_sq(hi) >= 1.0:
        hi = sig_max2 + (hi - sig_max2) * 2.0
    nu_star = _brentq(lambda nu: sphere_norm_sq(nu) - 1.0, lo, hi)
    stretched = w * nu_star / (nu_star - sig2)
    gmax = float(np.sum(stretched * stretched))
    return scale * scale * gmin, scale * scale * gmax


def standardized_range(prop: Ellipsoid, region: Ellipsoid) -> tuple[float, float]:
    """Range of ``prop``'s standardized squared radius over ``region``.

    The pair ``(gmin, gmax)`` decides overlap and containment exactly:
    ``region`` meets ``prop`` iff ``gmin <= 1`` and lies inside ``prop`` iff
    ``gmax <= 1``.
    """
    if prop.dim != region.dim:
        raise InputValidationError(
            f"dimension mismatch: {prop.dim} vs {region.dim}"
        )
    inv_ap = 1.0 / prop.semi_lengths
    b = inv_ap * (prop.axes.T @ (region.center - prop.center))
    mat = (inv_ap[:, None] * prop.axes.T) @ (region.axes * region.semi_lengths)
    return _min_max_quad_on_ball(b, mat)


def ellipsoids_intersect(e1: Ellipsoid, e2: Ellipsoid) -> bool:
    """Exact solid-intersection test."""
    gmin, _ = standardized_range(e1, e2)
    return gmin <= 1.0 + _CONTACT_RTOL


def ellipsoid_contains(outer: Ellipsoid, inner: Ellipsoid) -> bool:
    """Exact solid-containment test (``inner`` inside ``outer``)."""
    _, gmax = standardized_range(outer, inner)
    return gmax <= 1.0 + _CONTACT_RTOL


def project_point(ell: Ellipsoid, point) -> np.ndarray:
    """Euclidean projection of a point onto the solid ellipsoid.

    Interior points project to themselves; exterior points solve the
    Lagrange-multiplier secular equation for the nearest boundary point.
    """
    point = np.asarray(point, dtype=float)
    z = ell.axes.T @ (point - ell.center)
    a = ell.semi_lengths
    if float(np.sum((z / a) ** 2)) <= 1.0:
        return point.copy()
    a2 = a * a
    az = a * z

    def surface_norm_sq(t: float) -> float:
        return float(np.sum((az / (a2 + t)) ** 2))

    hi = float(np.linalg.norm(az))
    while surface_norm_sq(hi) > 1.0:
        hi *= 2.0
    t_star = _brentq(lambda t: surface_norm_sq(t) - 1.0, 0.0, hi)
    local = a2 * z / (a2 + t_star)
    return ell.center + ell.axes @ local


def _segment_interval(ell: Ellipsoid, origin: np.ndarray, direction: np.ndarray):
    """Parameter interval of ``origin + t * direction`` inside the solid."""
    u = (ell.axes.T @ (origin - ell.center)) / ell.semi_lengths
    v = (ell.axes.T @ direction) / ell.semi_lengths
    a = float(v @ v)
    b = 2.0 * float(u @ v)
    c = float(u @ u) - 1.0
    if a == 0.0:
        return (-math.inf, math.inf) if c <= 0.0 else None
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    return ((-b - root) / (2.0 * a), (-b + root) / (2.0 * a))


def _centerline_crosses_both(e1: Ellipsoid, e2: Ellipsoid) -> bool:
    direction = e2.center - e1.center
    span1 = _segment_interval(e1, e1.center, direction)
    span2 = _segment_interval(e2, e1.center, direction)
    if span1 is None or span2 is None:
        return False
    lo = max(span1[0], span2[0], 0.0)
    hi = min(span1[1], span2[1], 1.0)
    return lo <= hi


class _Probe(NamedTuple):
    """One unit direction with the separation data ``_probe`` computes."""

    n: np.ndarray
    g: float
    grad: np.ndarray
    hess: np.ndarray


def _probe(shapes, delta: np.ndarray, direction: np.ndarray) -> _Probe:
    """Separation of the two bodies along ``direction``, scaled to unit length.

    ``shapes`` holds ``M = S A^T`` of each body, so that a body's support
    function is ``h(n) = n.c + ||M n||``. Gives the lower bound
    ``g(n) = n.delta - ||M1 n|| - ||M2 n||`` on the distance, its gradient
    ``q - p`` (the gap between the two support points, whose norm is an
    upper bound) and its Hessian, all taken in the ambient space.
    """
    n = direction / float(np.linalg.norm(direction))
    g = float(n @ delta)
    grad = np.array(delta)
    hess = np.zeros((n.size, n.size))
    for mat in shapes:
        u = mat @ n
        radius = float(np.linalg.norm(u))
        w = mat.T @ u
        g -= radius
        grad -= w / radius
        hess -= (mat.T @ mat - np.outer(w, w) / (radius * radius)) / radius
    return _Probe(n, g, grad, hess)


def _newton_ascent(shapes, delta, best: _Probe, halvings: int, upper: float):
    """A Riemannian Newton step on the unit sphere that raises ``g``.

    The Hessian on the tangent space is ``P hess P - g P`` (``g`` is
    positively homogeneous, so ``n.grad = g``); ``P hess P`` is negative
    semidefinite, so the whole is negative definite wherever ``g > 0`` and
    often a little below. Adding ``-n n^T`` makes the system regular and
    keeps the step tangent. Where the Hessian is not negative definite the
    step need not ascend and none is tried. Otherwise the step is halved
    until ``g`` rises, at most ``halvings`` tries. Returns the probe that
    raised ``g`` (or None) and ``upper`` lowered to the smallest
    support-point gap of the tries: near the optimum that gap still shrinks
    when ``g`` no longer rises above its round-off.
    """
    n = best.n
    proj = np.eye(n.size) - np.outer(n, n)
    tangent_hess = proj @ best.hess @ proj - best.g * proj - np.outer(n, n)
    try:
        np.linalg.cholesky(-tangent_hess)
    except np.linalg.LinAlgError:
        return None, upper
    step = np.linalg.solve(tangent_hess, -(proj @ best.grad))
    for halving in range(halvings):
        trial = _probe(shapes, delta, n + 0.5**halving * step)
        upper = min(upper, float(np.linalg.norm(trial.grad)))
        if trial.g > best.g:
            return trial, upper
    return None, upper


def min_distance(e1: Ellipsoid, e2: Ellipsoid) -> float:
    """Euclidean distance between two solid ellipsoids.

    Zero when the solids intersect, which is certified exactly first.
    Otherwise one run brackets the distance: each unit direction ``n`` gives
    the lower bound ``g(n) = n.delta - ||S1 A1^T n|| - ||S2 A2^T n||`` from
    the closed-form support functions, and the distance ``||q - p||``
    between its two support points is an upper bound (``delta`` is the
    center offset). The first direction joins the center-line surface point of
    ``e1`` to its projection onto ``e2``; Riemannian Newton steps then
    maximize ``g``, with an alternating-projection step wherever no Newton
    step raises it. Once the bracket is within ``_DISTANCE_TOL_SCALE`` of
    the problem scale, full Newton steps polish it to round-off and the
    upper bound is returned. All work is relative to ``e1``'s center, so
    large absolute coordinates cost no precision.

    Raises:
        NumericalError: if the bracket does not close within
            ``_PROJECTION_MAX_ITERS`` steps; the message carries both bounds.
    """
    if e1.dim != e2.dim:
        raise InputValidationError(f"dimension mismatch: {e1.dim} vs {e2.dim}")
    delta = e2.center - e1.center
    scale = max(float(np.linalg.norm(delta)), e1.bounding_radius, e2.bounding_radius)

    # cheap sufficient checks, then the exact certificate
    if e1.contains(e2.center) or e2.contains(e1.center):
        return 0.0
    if _centerline_crosses_both(e1, e2):
        return 0.0
    if ellipsoids_intersect(e1, e2):
        return 0.0

    body1 = Ellipsoid(np.zeros_like(delta), e1.axes, e1.semi_lengths)
    body2 = Ellipsoid(delta, e2.axes, e2.semi_lengths)
    shapes = [e.semi_lengths[:, None] * e.axes.T for e in (e1, e2)]
    tol = _DISTANCE_TOL_SCALE * scale

    p = body1.surface_point(delta)
    q = project_point(body2, p)
    best = _probe(shapes, delta, q - p)
    lower = max(0.0, best.g)
    upper = min(float(np.linalg.norm(q - p)), float(np.linalg.norm(best.grad)))
    newton = True    # a Newton step from ``best`` is untried
    for _ in range(_PROJECTION_MAX_ITERS):
        certified = upper - lower <= tol
        trial = None
        if newton:
            halvings = 1 if certified else _NEWTON_HALVINGS
            trial, upper = _newton_ascent(shapes, delta, best, halvings, upper)
        if trial is None:
            if certified:
                return upper
            p = project_point(body1, q)
            q = project_point(body2, p)
            trial = _probe(shapes, delta, q - p)
            upper = min(
                upper, float(np.linalg.norm(q - p)), float(np.linalg.norm(trial.grad))
            )
        newton = trial.g > best.g
        if newton:
            best = trial
            lower = max(lower, best.g)
    if upper - lower <= tol:
        return upper
    raise NumericalError(
        "ellipsoid distance iteration did not converge: distance between "
        f"{lower:.6e} and {upper:.6e}"
    )
