"""Uncertainty ellipsoids and exact distance/overlap primitives.

An ellipsoid is stored as center, orthonormal axes, and semi-axis lengths.
Every geometric decision reduces to one bound of one ellipsoid's
standardized squared radius over another ellipsoid: the minimum decides
overlap and the maximum containment. The depth and reach of an ellipsoid
about a region, the largest scale of the region inside it and the smallest
that meets it, are the minimum of the region's standardized radius over the
ellipsoid's surface and solid. In a shared SVD frame each bound, and
the projection of a point onto an ellipsoid, is the root of one secular
equation ``sum((c_i / (d_i + t))**2) = 1``, solved by one safeguarded
Newton kernel. The distance between separated bodies is the largest
separation ``n.delta - h1(n) - h2(n)`` over unit directions, from the
closed-form support functions ``h``; one run of Newton steps on the sphere
brackets it from both sides.
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
_EPS = float(np.finfo(float).eps)
_SECULAR_MAX_ITERS = 100
_PROJECTION_MAX_ITERS = 10**4
_DISTANCE_TOL_SCALE = 1e-10
_NEWTON_HALVINGS = 20


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
            np.isfinite(center).all()
            and np.isfinite(axes).all()
            and np.isfinite(semi).all()
        ):
            raise InputValidationError("ellipsoid fields contain non-finite entries")
        if (semi <= 0.0).any():
            raise InputValidationError(
                f"semi_lengths must be positive, got {semi.tolist()}"
            )
        resid = np.abs(axes.T @ axes - np.eye(n)).max()
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
        """Standardized squared radius; <= 1 on the solid, 1 on the surface,
        ``inf`` where it overflows."""
        with np.errstate(over="ignore"):
            xi = self.standardized(point)
            return float(xi @ xi)

    def contains(self, point) -> bool:
        return self.squared_radius(point) <= 1.0 + _CONTACT_RTOL

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


def _secular_root(c, d) -> float:
    """The ``t >= 0`` where ``f(t) = sum((c_i / (d_i + t))**2)`` equals 1.

    Needs ``d_i >= 0`` and ``f(0) > 1``, infinite if some ``d_i = 0`` has
    ``c_i != 0``; terms with ``c_i = 0`` are dropped. ``1/sqrt(f) - 1`` is
    concave and increasing (Moré & Sorensen 1983), so every Newton point on
    it is a lower bound: Newton rises monotonically from the largest
    single-term root ``max(|c_i| - d_i, 0)``, jumps to the geometric mean
    of the bracket where its steps grow yet do not double ``t``, and stops
    at the round-off of ``f``. The vectors have the dimension of the space,
    so the sums run in Python floats.

    Raises:
        NumericalError: after ``_SECULAR_MAX_ITERS`` evaluations, with the
            bracket reached.
    """
    terms = [(ci, di) for ci, di in zip(c.tolist(), d.tolist()) if ci != 0.0]
    t = max(0.0, max(abs(ci) - di for ci, di in terms))
    norm = math.hypot(*(ci for ci, _ in terms))
    lo, hi = t, max(t, norm - min(di for _, di in terms))
    slack = (len(terms) + 3) * _EPS
    last_rise = math.inf
    for _ in range(_SECULAR_MAX_ITERS):
        f = slope = 0.0
        for ci, di in terms:
            r = ci / (di + t)
            f += r * r
            slope += r * r / (di + t)
        if f <= 1.0:
            hi = t
        step = f * (math.sqrt(f) - 1.0) / slope
        if abs(step) <= slack * f / slope:
            return t + step
        lo = max(lo, t + step)
        t = math.sqrt(lo * hi) if last_rise < step < t else lo
        if step > 0.0:
            last_rise = step
    raise NumericalError(
        f"secular equation did not converge: root between {lo:.6e} and {hi:.6e}"
    )


def _range_frame(prop: Ellipsoid, region: Ellipsoid):
    """``(w, sigma, scale)``: over ``region``, ``prop``'s standardized squared
    radius is ``scale**2 * ||w + sigma * y||**2`` for ``||y|| <= 1``, from
    one SVD; ``sigma`` is descending and ``max(sigma, ||w||) = 1``. Raises
    ``NumericalError`` if a standardized offset or axis ratio overflows.

    The SVD is of ``diag(1 / prop.semi) C diag(region.semi)`` with ``C``
    orthogonal. LAPACK's SVD keeps the small singular values of such a
    graded matrix to relative accuracy when its rows and columns shrink
    from first to last, and only to the largest one's round-off otherwise
    (1e-4 against 1e-15 at an axis ratio of 1e12), so both axis sets are
    put in that order first.
    """
    if prop.dim != region.dim:
        raise InputValidationError(
            f"dimension mismatch: {prop.dim} vs {region.dim}"
        )
    rows = np.argsort(prop.semi_lengths)
    cols = np.argsort(-region.semi_lengths)
    prop_axes = prop.axes[:, rows]
    with np.errstate(over="ignore"):
        inv_ap = 1.0 / prop.semi_lengths[rows]
        b = inv_ap * (prop_axes.T @ (region.center - prop.center))
        mat = (inv_ap[:, None] * prop_axes.T) @ (
            region.axes[:, cols] * region.semi_lengths[cols]
        )
    if not (np.isfinite(b).all() and np.isfinite(mat).all()):
        raise NumericalError("standardized ellipsoid offset or axis ratio overflows")
    u_mat, sigma, _ = np.linalg.svd(mat)
    w = u_mat.T @ b
    scale = max(float(sigma[0]), math.hypot(*w.tolist()))
    return w / scale, sigma / scale, scale


def _ball_min(w: np.ndarray, sigma: np.ndarray) -> float:
    """Minimum of ``||w + sigma * y||**2`` over the unit ball ``||y|| <= 1``.

    Only an axis with ``sigma`` exactly 0 is left out of the secular
    equation: a thin axis still decides a minimum as small as itself.
    """
    active = sigma > 0.0
    base = float((w[~active] ** 2).sum())
    w, sigma = w[active], sigma[active]
    # each ratio is bounded by 1 first, so that ``w / sigma`` cannot overflow
    if (np.abs(w) <= sigma).all() and ((w / sigma) ** 2).sum() <= 1.0:
        return base
    mu = _secular_root(sigma * w, sigma * sigma)
    resid = w * mu / (sigma * sigma + mu)
    return base + float(resid @ resid)


def _sphere_extreme(w: np.ndarray, sigma: np.ndarray, sign: float) -> float:
    """Maximum (``sign = 1``) or minimum (``sign = -1``) of
    ``||w + sigma * y||**2`` over the unit sphere ``||y|| = 1``.

    The pole ``end`` is the largest or smallest ``sigma**2``, and the
    multiplier ``end + sign * t`` solves the secular equation with
    ``gap = |sigma**2 - end|``; the multiplier minus ``sigma**2`` is taken
    as ``sign * (gap + t)``, because ``end + t`` rounds away the digits of
    a small ``t``. Handles the "hard" case: no offset along the pole, which
    is an offset small beside the pole's own ``sigma``, however small that
    is.
    """
    sig2 = sigma * sigma
    if sig2[0] == 0.0:
        return float(w @ w)
    end = float(sig2[0] if sign > 0 else sig2[-1])
    gap = sign * (end - sig2)
    pole = gap <= 1e-12 * end
    sw = sigma * w
    if np.all(np.abs(sw[pole]) <= 1e-14 * end):
        # the secular sum stays finite at the pole; if it fits inside the
        # sphere budget there, the remaining length goes into the pole axis
        leak = float(np.sum((sw[~pole] / gap[~pole]) ** 2))
        if leak <= 1.0:
            rest = w[~pole] * end / gap[~pole]
            return end * (1.0 - leak) + float(rest @ rest)
    t = _secular_root(sw, gap)
    stretched = w * (end + sign * t) / (gap + t)
    return float(stretched @ stretched)


def standardized_range(prop: Ellipsoid, region: Ellipsoid) -> tuple[float, float]:
    """Range of ``prop``'s standardized squared radius over ``region``.

    The pair ``(gmin, gmax)`` decides overlap and containment exactly:
    ``region`` meets ``prop`` iff ``gmin <= 1`` and lies inside ``prop`` iff
    ``gmax <= 1``.
    """
    w, sigma, scale = _range_frame(prop, region)
    gmax = scale * scale * _sphere_extreme(w, sigma, 1.0)
    return scale * scale * _ball_min(w, sigma), gmax


def ellipsoid_depth(prop: Ellipsoid, region: Ellipsoid) -> float:
    """Largest ``k`` such that ``region`` scaled by ``k`` about its center
    lies inside ``prop``: 0 for a center outside, else the region-standardized
    distance from the center to ``prop``'s surface."""
    if not prop.contains(region.center):
        return 0.0
    w, sigma, scale = _range_frame(region, prop)
    return scale * math.sqrt(_sphere_extreme(w, sigma, -1.0))


def ellipsoid_reach(prop: Ellipsoid, region: Ellipsoid) -> float:
    """Smallest ``k`` such that ``region`` scaled by ``k`` about its center
    meets ``prop``: 0 for a center inside, else the region-standardized
    distance from the center to ``prop``."""
    if prop.contains(region.center):
        return 0.0
    w, sigma, scale = _range_frame(region, prop)
    return scale * math.sqrt(_ball_min(w, sigma))


def ellipsoids_intersect(e1: Ellipsoid, e2: Ellipsoid) -> bool:
    """Exact solid-intersection test."""
    w, sigma, scale = _range_frame(e1, e2)
    return scale * scale * _ball_min(w, sigma) <= 1.0 + _CONTACT_RTOL


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
    t_star = _secular_root(a * z, a2)
    local = a2 * z / (a2 + t_star)
    return ell.center + ell.axes @ local


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
