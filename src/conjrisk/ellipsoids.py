"""Uncertainty ellipsoids and exact distance/overlap primitives.

An ellipsoid is stored as center, orthonormal axes, and semi-axis lengths.
Every geometric decision reduces to one bound of one ellipsoid's
standardized squared radius over another ellipsoid: the minimum decides
overlap and the maximum containment. The depth and reach of an ellipsoid
about a region, the largest scale of the region inside it and the smallest
that meets it, are the minimum of the region's standardized radius over the
ellipsoid's surface and solid. In a shared SVD frame each bound, the
projection of a point onto an ellipsoid and the separating plane of two is
the root of one secular equation ``sum((c_i / (d_i + t))**2) = 1``, solved
by one safeguarded Newton iteration: in Python floats for a single body,
and row by row for a block of region centers, which share the frame's SVD
since it does not depend on them. The distance between separated bodies is
the largest separation ``n.delta - h1(n) - h2(n)`` over unit directions,
from the closed-form support functions ``h``; one run of Newton steps on
the sphere brackets it from both sides.
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
_DISTANCE_MAX_ITERS = 100
_DISTANCE_TOL_SCALE = 1e-10
_NEWTON_HALVINGS = 20


def row_product(rows, mat):
    """``rows @ mat`` for a point or an ``(n, dim)`` block of points and a
    ``(dim, m)`` matrix or ``(dim,)`` vector.

    At ``dim = 1`` each entry of the product is one exactly rounded
    multiply, so it is taken element-wise, to the same value (a zero
    product keeps its sign, which ``@`` drops): a tall one-column block
    then never reaches BLAS, which runs it on threads that spin on into
    later work, nor numpy's scalar matmul loop.
    """
    if mat.shape[0] != 1:
        return rows @ mat
    return rows[..., 0] * mat[0] if mat.ndim == 1 else rows * mat[0]


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
        self._freeze(np.array(center), np.array(axes), np.array(semi))

    def _freeze(self, center, axes, semi_lengths) -> Ellipsoid:
        """Keep three float arrays as the fields, made read-only, unchecked."""
        for name, arr in (("center", center), ("axes", axes), ("semi_lengths", semi_lengths)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        return self

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def bounding_radius(self) -> float:
        return float(np.max(self.semi_lengths))

    def standardized(self, point) -> np.ndarray:
        """Coordinates of ``point``, or of each row of an ``(n, dim)`` array
        of points, in the unit-ball frame of this ellipsoid."""
        point = np.asarray(point, dtype=float)
        return row_product(point - self.center, self.axes) / self.semi_lengths

    def squared_radius(self, point):
        """Standardized squared radius, per row for an array of points; <= 1
        on the solid, 1 on the surface, ``inf`` where it overflows."""
        with np.errstate(over="ignore"):
            xi = self.standardized(point)
            return (xi * xi).sum(axis=-1)

    def contains(self, point):
        return self.squared_radius(point) <= 1.0 + _CONTACT_RTOL


def check_k(k: float) -> None:
    """Raise ``InputValidationError`` unless the scale ``k`` is positive and finite."""
    if not (k > 0.0 and math.isfinite(k)):
        raise InputValidationError(f"k must be positive, got {k}")


def build_ellipsoid(center, cov, k: float) -> Ellipsoid:
    """Scale a covariance into a geometric uncertainty ellipsoid.

    Eigendecomposes the covariance and sets the semi-axis lengths to
    ``k * sqrt(eigenvalue)`` along the eigenvector directions, i.e. the
    image of the radius-``k`` sphere under the standardizing pivot.

    Raises:
        InputValidationError: if ``cov`` is not positive definite (degenerate
            region) or ``k`` is not positive.
        NumericalError: if a semi-axis length overflows.
    """
    check_k(k)
    center = np.array(center, dtype=float)  # a copy: the ellipsoid freezes it
    cov, eigvals, eigvecs = covariance_eigh(cov, "ellipsoid covariance")
    if center.ndim != 1 or cov.shape != (center.shape[0],) * 2:
        raise InputValidationError(
            f"center shape {center.shape} inconsistent with covariance "
            f"shape {cov.shape}"
        )
    if not np.all(np.isfinite(center)):
        raise InputValidationError("center contains non-finite entries")
    return ellipsoid_from_eigh(center, eigvals, eigvecs, k)


def ellipsoid_from_eigh(center: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray,
                        k: float) -> Ellipsoid:
    """``build_ellipsoid`` from a checked covariance's ascending eigenvalues,
    round-off clipped as ``covariance_eigh`` gives them, its eigenvector
    columns, a finite center, which becomes read-only, and a checked ``k``:
    the semi-axes ordered longest first. ``Ellipsoid``'s checks are not run
    on these derived fields; an eigenvalue that is not positive or a
    semi-axis that underflows to 0 raises ``InputValidationError``, one
    that overflows ``NumericalError``."""
    if eigvals[0] <= 0.0:
        raise InputValidationError(
            f"covariance is not positive definite (eigenvalue "
            f"{eigvals[0]:.6e}): uncertainty region is degenerate"
        )
    order = np.argsort(eigvals)[::-1]
    with np.errstate(over="ignore"):
        semi_lengths = k * np.sqrt(eigvals[order])
    if math.isinf(semi_lengths[0]):
        raise NumericalError(
            f"semi-axis k * sqrt(eigenvalue) overflows at k = {k!r}, "
            f"eigenvalue = {float(eigvals[order[0]])!r}"
        )
    if semi_lengths[-1] == 0.0:
        raise InputValidationError(
            f"semi_lengths must be positive, got {semi_lengths.tolist()}"
        )
    return object.__new__(Ellipsoid)._freeze(center, eigvecs[:, order], semi_lengths)


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
            bracket reached, or where every term underflows.
    """
    terms = [(ci, di) for ci, di in zip(c.tolist(), d.tolist()) if ci != 0.0]
    t = max([0.0] + [abs(ci) - di for ci, di in terms])
    norm = math.hypot(*(ci for ci, _ in terms))
    lo, hi = t, max(t, norm - min((di for _, di in terms), default=0.0))
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
        if slope == 0.0:
            raise NumericalError(f"secular equation underflows at {t:.6e}")
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


def _secular_roots(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``_secular_root`` of each row of the ``(n, m)`` arrays ``c`` and ``d``.

    Runs the same iteration on every row at once: the same start, bracket,
    geometric-mean jump and stopping rule, with the terms ``c_i = 0``
    masked out and each row frozen once it converges. Its arithmetic is
    that of Python floats, where an overflow gives ``inf``. A single row
    goes to ``_secular_root``, which is about 12 times faster at that size.

    Raises:
        NumericalError: as ``_secular_root``, for the first row that fails.
    """
    if c.shape[0] == 1:
        return np.array([_secular_root(c[0], d[0])])
    live = c != 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.max(np.where(live, np.abs(c) - d, 0.0), axis=1, initial=0.0)
        floor = np.min(d, axis=1, where=live, initial=np.inf)
        floor = np.where(live.any(axis=1), floor, 0.0)
        hi = np.maximum(t, np.hypot.reduce(c, axis=1) - floor)
        lo = t
        slack = (np.count_nonzero(live, axis=1) + 3) * _EPS
        last_rise = np.full(t.shape, np.inf)
        rows = np.arange(t.size)
        roots = np.empty(t.size)
        for _ in range(_SECULAR_MAX_ITERS):
            shifted = d + t[:, None]
            ratio = np.divide(c, shifted, out=np.zeros_like(c), where=live)
            square = ratio * ratio
            f = square.sum(axis=1)
            slope = np.divide(square, shifted, out=np.zeros_like(c), where=live)
            slope = slope.sum(axis=1)
            hi = np.where(f <= 1.0, t, hi)
            if (slope == 0.0).any():
                raise NumericalError(
                    f"secular equation underflows at {t[slope == 0.0][0]:.6e}"
                )
            step = f * (np.sqrt(f) - 1.0) / slope
            done = np.abs(step) <= slack * f / slope
            roots[rows[done]] = (t + step)[done]
            lo = np.where(t + step > lo, t + step, lo)
            t = np.where((last_rise < step) & (step < t), np.sqrt(lo * hi), lo)
            last_rise = np.where(step > 0.0, step, last_rise)
            if done.all():
                return roots
            more = ~done
            rows, c, d, live, t, lo, hi, slack, last_rise = (
                a[more] for a in (rows, c, d, live, t, lo, hi, slack, last_rise)
            )
    raise NumericalError(
        f"secular equation did not converge: root between {lo[0]:.6e} and {hi[0]:.6e}"
    )


def _range_frame(prop: Ellipsoid, region: Ellipsoid, centers):
    """``(w, sigma, scale, axes, inv, u)``: with ``prop``'s shape moved to
    each row of ``centers`` (a point or an ``(n, dim)`` array), its
    standardized squared radius over ``region`` is ``scale**2 * ||w +
    sigma * y||**2`` for ``||y|| <= 1``, row by row; ``sigma`` is
    descending and ``max(sigma, ||w||) = 1`` in each row. Such a point is
    ``scale * u @ (w + sigma * y)`` on ``prop``'s sorted ``axes``, with
    inverse semi-axes ``inv``. Raises ``NumericalError`` if an offset or
    axis ratio overflows.

    The SVD is of ``diag(1 / prop.semi) C diag(region.semi)`` with ``C``
    orthogonal. It does not depend on the centers, so one SVD serves them
    all, and their offsets enter through one matrix product. LAPACK's SVD
    keeps the small singular values of such a graded matrix to relative
    accuracy when its rows and columns shrink from first to last, and only
    to the largest one's round-off otherwise (1e-4 against 1e-15 at an axis
    ratio of 1e12), so both axis sets are put in that order first.
    """
    if prop.dim != region.dim:
        raise InputValidationError(
            f"dimension mismatch: {prop.dim} vs {region.dim}"
        )
    rows = np.argsort(prop.semi_lengths)
    cols = np.argsort(-region.semi_lengths)
    prop_axes = prop.axes[:, rows]
    # a subnormal semi-axis gives inf * 0 = NaN, which the check below catches
    with np.errstate(over="ignore", invalid="ignore"):
        inv_ap = 1.0 / prop.semi_lengths[rows]
        b = inv_ap * row_product(region.center - centers, prop_axes)
        mat = (inv_ap[:, None] * prop_axes.T) @ (
            region.axes[:, cols] * region.semi_lengths[cols]
        )
    if not (np.isfinite(b).all() and np.isfinite(mat).all()):
        raise NumericalError("standardized ellipsoid offset or axis ratio overflows")
    u_mat, sigma, _ = np.linalg.svd(mat)
    w = row_product(b, u_mat)
    scale = np.maximum(sigma[0], np.hypot.reduce(w, axis=-1))[..., None]
    return w / scale, sigma / scale, scale[..., 0], prop_axes, inv_ap, u_mat


def _ball_nearest(w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The point ``w + sigma * y`` nearest the origin over ``||y|| <= 1``,
    for each row of ``(..., m)`` arrays; the rows that need a secular
    equation are solved in one call.

    Only an axis with ``sigma`` exactly 0 is left out of the secular
    equation: a thin axis still decides a minimum as small as itself.
    """
    shape = w.shape
    w, sigma = w.reshape(-1, shape[-1]), sigma.reshape(-1, shape[-1])
    active = sigma > 0.0
    # an overflowing ratio is ``inf``, so the origin does not pass as inside;
    # the ``w / 0`` of a left-out axis is masked
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(active, w / sigma, 0.0)
        far = (ratio * ratio).sum(axis=1) > 1.0
    nearest = np.where(active, 0.0, w)
    if far.any():
        rows = slice(None) if far.all() else far  # a pair of bodies: no copies
        w, sigma, active = w[rows], sigma[rows], active[rows]
        sig2 = sigma * sigma
        mu = _secular_roots(sigma * w, sig2)[:, None]
        nearest[rows] = np.divide(w * mu, sig2 + mu, out=nearest[rows], where=active)
    return nearest.reshape(shape)


def _sphere_extreme(w: np.ndarray, sigma: np.ndarray, sign: float):
    """Maximum (``sign = 1``) or minimum (``sign = -1``) of
    ``||w + sigma * y||**2`` over the unit sphere ``||y|| = 1``, for each
    row of ``(..., m)`` arrays; the rows that need a secular equation are
    solved in one call.

    The pole ``end`` is the largest or smallest ``sigma**2``, and the
    multiplier ``end + sign * t`` solves the secular equation with
    ``gap = |sigma**2 - end|``; the multiplier minus ``sigma**2`` is taken
    as ``sign * (gap + t)``, because ``end + t`` rounds away the digits of
    a small ``t``. Handles the "hard" case: no offset along the pole, which
    is an offset small beside the pole's own ``sigma``, however small that
    is.
    """
    shape = w.shape[:-1]
    w, sigma = w.reshape(-1, w.shape[-1]), sigma.reshape(-1, w.shape[-1])
    sig2 = sigma * sigma
    end = (sig2[:, :1] if sign > 0 else sig2[:, -1:])
    gap = sign * (end - sig2)
    pole = gap <= 1e-12 * end
    sw = sigma * w
    extreme = (w * w).sum(axis=1)  # the value where every sigma is 0
    todo = sig2[:, 0] != 0.0
    hard = todo & np.all(np.abs(sw) <= 1e-14 * end, axis=1, where=pole)
    if hard.any():
        # the secular sum stays finite at the pole; if it fits inside the
        # sphere budget there, the remaining length goes into the pole axis
        off, gap_h, end_h = ~pole[hard], gap[hard], end[hard]
        leak = np.divide(sw[hard], gap_h, out=np.zeros(gap_h.shape), where=off)
        leak = (leak * leak).sum(axis=1)
        rest = np.divide(w[hard] * end_h, gap_h, out=np.zeros(gap_h.shape), where=off)
        value = end_h[:, 0] * (1.0 - leak) + (rest * rest).sum(axis=1)
        fits = leak <= 1.0
        settled = np.flatnonzero(hard)[fits]
        extreme[settled] = value[fits]
        todo[settled] = False
    if todo.any():
        t = _secular_roots(sw[todo], gap[todo])[:, None]
        stretched = w[todo] * (end[todo] + sign * t) / (gap[todo] + t)
        extreme[todo] = (stretched * stretched).sum(axis=1)
    return extreme.reshape(shape)[()]


def standardized_range(prop: Ellipsoid, region: Ellipsoid) -> tuple[float, float]:
    """Range of ``prop``'s standardized squared radius over ``region``.

    The pair ``(gmin, gmax)`` decides overlap and containment exactly:
    ``region`` meets ``prop`` iff ``gmin <= 1`` and lies inside ``prop`` iff
    ``gmax <= 1``.
    """
    w, sigma, scale, *_ = _range_frame(prop, region, prop.center)
    scale = float(scale)
    gmax = scale * scale * float(_sphere_extreme(w, sigma, 1.0))
    nearest = _ball_nearest(w, sigma)
    return float(nearest @ nearest) * scale * scale, gmax


def ellipsoid_depth(prop: Ellipsoid, region: Ellipsoid, centers) -> np.ndarray:
    """For each row of the ``(n, dim)`` array ``centers``, the largest ``k``
    such that ``region``'s shape about that center, scaled by ``k``, lies
    inside ``prop``: 0 for a center outside, else the region-standardized
    distance from the center to ``prop``'s surface."""
    inside = prop.contains(centers)
    depths = np.zeros(inside.shape)
    if inside.any():
        w, sigma, scale, *_ = _range_frame(region, prop, centers[inside])
        depths[inside] = scale * np.sqrt(_sphere_extreme(w, sigma, -1.0))
    return depths


def ellipsoid_reach(prop: Ellipsoid, region: Ellipsoid, centers) -> np.ndarray:
    """For each row of the ``(n, dim)`` array ``centers``, the smallest
    ``k`` such that ``region``'s shape about that center, scaled by ``k``,
    meets ``prop``: 0 for a center inside, else the region-standardized
    distance from the center to ``prop``."""
    outside = ~prop.contains(centers)
    reaches = np.zeros(outside.shape)
    if outside.any():
        w, sigma, scale, *_ = _range_frame(region, prop, centers[outside])
        nearest = _ball_nearest(w, sigma)
        reaches[outside] = scale * np.sqrt((nearest * nearest).sum(axis=1))
    return reaches


def _separating_normal(e1: Ellipsoid, e2: Ellipsoid):
    """Normal, from ``e1`` toward ``e2``, of a plane between the solids, or
    None where they meet: in ``e1``'s unit-ball frame, the tangent plane at
    the point of ``e2`` nearest the center, mapped back."""
    w, sigma, scale, axes, inv, u = _range_frame(e1, e2, e1.center)
    scale = float(scale)
    nearest = _ball_nearest(w, sigma)
    # the bounded factor goes first: ``scale * scale`` may overflow
    if float(nearest @ nearest) * scale * scale <= 1.0 + _CONTACT_RTOL:
        return None
    return axes @ (inv / inv[0] * (u @ nearest))  # inv[0] is the largest


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
    t_star = _secular_roots((a * z)[None], a2[None])[0]
    return ell.center + ell.axes @ (a2 * z / (a2 + t_star))


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
    upper bound) and its Hessian, all taken in the ambient space. Each
    product is divided by ``||M n||`` as it is formed, so that none exceeds
    the Hessian's own scale ``a^2 / ||M n||`` for semi-axes ``a``: ``M^T M``
    alone overflows once a semi-axis passes 1.3e154.
    """
    n = direction / float(np.linalg.norm(direction))
    g = float(n @ delta)
    grad = np.array(delta)
    hess = np.zeros((n.size, n.size))
    for mat in shapes:
        u = mat @ n
        radius = math.hypot(*u)
        tip = mat.T @ (u / radius)
        g -= radius
        grad -= tip
        hess -= mat.T @ (mat / radius) - np.outer(tip, tip / radius)
    return _Probe(n, g, grad, hess)


def _newton_ascent(shapes, delta, best: _Probe, halvings: int, upper: float):
    """A Riemannian Newton step on the unit sphere that raises ``g``.

    The Hessian on the tangent space is ``P hess P - g P`` (``g`` is
    positively homogeneous, so ``n.grad = g``); ``P hess P`` is negative
    semidefinite, so the whole is negative definite wherever ``g > 0``.
    Taking ``-g I`` for ``-g P`` makes the system regular at the problem's
    scale and keeps the step tangent. Where it is not negative definite the
    step need not ascend and none is tried. Otherwise the step is halved
    until ``g`` rises, at most ``halvings`` tries. Returns the probe that
    raised ``g`` (or None) and ``upper`` lowered to the smallest
    support-point gap of the tries: near the optimum that gap still shrinks
    when ``g`` no longer rises above its round-off.
    """
    n = best.n
    proj = np.eye(n.size) - np.outer(n, n)
    tangent_hess = proj @ best.hess @ proj - best.g * np.eye(n.size)
    try:
        np.linalg.cholesky(-tangent_hess)
    except np.linalg.LinAlgError:
        return None, upper
    step = np.linalg.solve(tangent_hess, -(proj @ best.grad))
    for halving in range(halvings):
        trial = _probe(shapes, delta, n + 0.5**halving * step)
        upper = min(upper, math.hypot(*trial.grad))
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
    center offset). Riemannian Newton steps maximize ``g`` until none raises
    it, from the better of the center line and the separating normal of the
    intersection test (``g > 0``), which can follow a flat body's thin axis.
    Once the bracket is within ``_DISTANCE_TOL_SCALE`` of the problem scale,
    full Newton steps polish it to round-off and the upper bound is
    returned. All work is relative to ``e1``'s center, so large absolute
    coordinates cost no precision.

    Raises:
        NumericalError: if the bracket does not close within
            ``_DISTANCE_MAX_ITERS`` steps; the message carries both bounds.
    """
    if e1.dim != e2.dim:
        raise InputValidationError(f"dimension mismatch: {e1.dim} vs {e2.dim}")
    start = _separating_normal(e1, e2)
    if start is None:
        return 0.0

    delta = e2.center - e1.center
    scale = max(math.hypot(*delta), e1.bounding_radius, e2.bounding_radius)
    shapes = [e.semi_lengths[:, None] * e.axes.T for e in (e1, e2)]
    tol = _DISTANCE_TOL_SCALE * scale
    probes = [_probe(shapes, delta, d / np.abs(d).max()) for d in (start, delta)]
    best = max(probes, key=lambda probe: probe.g)
    lower = max(0.0, best.g)
    upper = math.hypot(*best.grad)
    for _ in range(_DISTANCE_MAX_ITERS):
        halvings = 1 if upper - lower <= tol else _NEWTON_HALVINGS
        trial, upper = _newton_ascent(shapes, delta, best, halvings, upper)
        if trial is None:
            break
        best = trial
        lower = max(lower, best.g)
    if upper - lower <= tol:
        return upper
    raise NumericalError(
        "ellipsoid distance iteration did not converge: distance between "
        f"{lower:.6e} and {upper:.6e}"
    )
