"""Shared test helpers: random generators and independent oracles.

The oracles here deliberately avoid the code paths they check: collision
probability is counted from raw normal samples against the disk condition,
relative covariance is recomputed with the explicit difference matrix, and
ellipsoid distance is minimized over densely sampled boundary points with a
derivative-free local refinement, or maximized over separating directions in
mpmath with numerical derivatives. The noncentral chi-squared references sum
every Poisson term from zero at 40 digits, and the circular collision
probability is also taken from the Bessel series of the Marcum Q function.
The anisotropic collision probability is the same strip integral as the
kernel's, in mpmath, where the working precision rather than the formulation
absorbs cancellation. Secular-equation roots are bisected at 40 digits,
and the false-confidence band edge is a 40-digit root of the log of a
difference of two normal CDFs.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from hypothesis import settings
from scipy import optimize

from conjrisk import Ellipsoid, JointState

# property tests run only their seeded examples, never ones replayed from a
# local example database
settings.register_profile("seeded", database=None)
settings.load_profile("seeded")


def random_rotation(rng: np.random.Generator, n: int = 3) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def make_joint_state(
    rng: np.random.Generator,
    pos_scale: float = 1000.0,
    cov_scale: float = 100.0,
    r1: float = 5.0,
    r2: float = 5.0,
) -> JointState:
    theta = np.concatenate(
        [
            rng.uniform(-pos_scale, pos_scale, 3),
            rng.uniform(-50.0, 50.0, 3),
            rng.uniform(-pos_scale, pos_scale, 3),
            rng.uniform(-50.0, 50.0, 3) + np.array([0.0, 0.0, 7000.0]),
        ]
    )
    cov = random_spd(rng, 12, cov_scale)
    return JointState(theta_hat=theta, c_theta=cov, r1=r1, r2=r2)


# explicit relative-displacement difference matrix (3x12)
DIFFERENCE_MATRIX = np.zeros((3, 12))
for _i in range(3):
    DIFFERENCE_MATRIX[_i, _i] = -1.0
    DIFFERENCE_MATRIX[_i, 6 + _i] = 1.0


def mc_pc_oracle(
    u: float,
    v: float,
    s1: float,
    s2: float,
    r: float,
    n: int = 10**6,
    seed: int = 0,
    chunk: int = 2_500_000,
) -> tuple[float, float]:
    """Count standard-normal samples inside the offset disk condition.

    Returns the sample fraction and its binomial standard error.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    hits, done = 0, 0
    while done < n:
        m = min(chunk, n - done)
        xi = rng.standard_normal((m, 2))
        cond = (s1 * xi[:, 0] - u) ** 2 + (s2 * xi[:, 1] - v) ** 2 <= r * r
        hits += int(np.count_nonzero(cond))
        done += m
    p = hits / n
    return p, float(np.sqrt(p * (1.0 - p) / n))


def fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + 5.0**0.5) * i
    return np.stack(
        [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)],
        axis=1,
    )


def _boundary_cloud(e: Ellipsoid, n: int) -> np.ndarray:
    return e.center + (fibonacci_sphere(n) * e.semi_lengths) @ e.axes.T


def dense_min_distance_oracle(e1: Ellipsoid, e2: Ellipsoid, n: int = 1000) -> float:
    """Minimum over n*n boundary point pairs, refined by local descent."""
    p1 = _boundary_cloud(e1, n)
    p2 = _boundary_cloud(e2, n)
    d2 = np.sum((p1[:, None, :] - p2[None, :, :]) ** 2, axis=2)
    i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)

    def boundary_point(e: Ellipsoid, angles) -> np.ndarray:
        th, ph = angles
        u = np.array(
            [np.cos(th) * np.sin(ph), np.sin(th) * np.sin(ph), np.cos(ph)]
        )
        return e.center + (u * e.semi_lengths) @ e.axes.T

    def angles_of(e: Ellipsoid, point) -> tuple[float, float]:
        u = (e.axes.T @ (point - e.center)) / e.semi_lengths
        return float(np.arctan2(u[1], u[0])), float(np.arccos(np.clip(u[2], -1, 1)))

    x0 = np.array([*angles_of(e1, p1[i]), *angles_of(e2, p2[j])])
    result = optimize.minimize(
        lambda x: float(
            np.linalg.norm(boundary_point(e1, x[:2]) - boundary_point(e2, x[2:]))
        ),
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000},
    )
    return float(result.fun)


def random_ellipsoid(
    rng: np.random.Generator,
    dim: int = 3,
    semi_lo: float = 0.3,
    semi_hi: float = 3.0,
    center=None,
) -> Ellipsoid:
    if center is None:
        center = np.zeros(dim)
    return Ellipsoid(
        center=np.asarray(center, dtype=float),
        axes=random_rotation(rng, dim),
        semi_lengths=rng.uniform(semi_lo, semi_hi, dim),
    )


def separated_ellipsoid_pair(
    rng: np.random.Generator,
    min_factor: float = 1.02,
    max_factor: float = 2.0,
) -> tuple[Ellipsoid, Ellipsoid]:
    """Random pair guaranteed disjoint via the bounding-sphere separation."""
    e1 = random_ellipsoid(rng)
    shape2 = random_ellipsoid(rng)
    gap = (e1.bounding_radius + shape2.bounding_radius) * rng.uniform(
        min_factor, max_factor
    )
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    e2 = Ellipsoid(
        center=e1.center + gap * direction,
        axes=shape2.axes,
        semi_lengths=shape2.semi_lengths,
    )
    return e1, e2


def ellipsoid_pair_with_gap(
    rng: np.random.Generator,
    axis_ratio: float,
    rel_gap: float,
    offset: float = 0.0,
) -> tuple[Ellipsoid, Ellipsoid]:
    """Disjoint pair of elongated ellipsoids a set distance apart.

    Both have largest-to-smallest semi-axis ratio ``axis_ratio`` (smallest
    semi-axis 100) and random orientations. The second is placed so that
    the two support points of a random unit direction ``n`` lie apart along
    it by ``rel_gap`` times the touching size ``h1(n) + h2(n)`` (the support
    functions about the centers); that is the distance. ``e1`` sits
    ``offset`` from the origin.
    """
    bodies = []
    for _ in range(2):
        semi = 100.0 * np.array([axis_ratio, axis_ratio ** rng.uniform(0.0, 1.0), 1.0])
        bodies.append((random_rotation(rng), semi))
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    (a1, s1), (a2, s2) = bodies
    m1, m2 = s1[:, None] * a1.T, s2[:, None] * a2.T
    h1, h2 = np.linalg.norm(m1 @ n), np.linalg.norm(m2 @ n)
    tip1, tip2 = m1.T @ (m1 @ n) / h1, -(m2.T @ (m2 @ n)) / h2
    c1 = offset * random_rotation(rng)[:, 0]
    c2 = c1 + tip1 + rel_gap * (h1 + h2) * n - tip2
    return Ellipsoid(c1, a1, s1), Ellipsoid(c2, a2, s2)


def mp_ellipsoid_distance(c1, cov1, c2, cov2, k: float = 1.0, dps: int = 40):
    """Distance between the disjoint solids ``(x-c)' cov^-1 (x-c) <= k^2``.

    Maximizes the separation ``g(n) = n.(c2 - c1) - k sqrt(n' cov1 n) -
    k sqrt(n' cov2 n)`` over unit directions, which equals the distance: a
    float BFGS run finds the direction, then ``mpmath.findroot`` zeroes the
    tangent gradient (by numerical differentiation) at ``dps`` digits. The
    float inputs are taken as exact; the result is an mpf.
    """
    c1, c2 = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)
    covs = [np.asarray(c, dtype=float) for c in (cov1, cov2)]
    delta = c2 - c1

    def separation(m):
        n = m / np.linalg.norm(m)
        return float(n @ delta) - k * sum(math.sqrt(n @ c @ n) for c in covs)

    res = optimize.minimize(
        lambda m: -separation(m), delta / np.linalg.norm(delta), method="BFGS",
        options={"gtol": 1e-14, "maxiter": 2000},
    )
    start = res.x / np.linalg.norm(res.x)
    tangents = np.linalg.svd(start[None, :])[2][1:]
    with mpmath.workdps(dps):
        d = mpmath.matrix([mpmath.mpf(b) - mpmath.mpf(a) for a, b in zip(c1, c2)])
        mp_covs = [mpmath.matrix(c.tolist()) for c in covs]
        mp_k = mpmath.mpf(k)
        n0 = mpmath.matrix(start.tolist())
        t1, t2 = (mpmath.matrix(t.tolist()) for t in tangents)

        def g(a, b):
            m = n0 + a * t1 + b * t2
            n = m / mpmath.norm(m)
            spread = sum(mpmath.sqrt((n.T * c * n)[0]) for c in mp_covs)
            return (n.T * d)[0] - mp_k * spread

        def tangent_gradient(a, b):
            return [
                mpmath.diff(lambda x: g(x, b), a),
                mpmath.diff(lambda y: g(a, y), b),
            ]

        a, b = mpmath.findroot(tangent_gradient, (mpmath.mpf(0), mpmath.mpf(0)))
        return +g(a, b)


def mp_secular_root(c, d, dps: int = 40):
    """The ``t >= 0`` where ``sum((c_i / (d_i + t))**2) = 1``, at ``dps`` digits.

    Bisection on the bracket ``[max(|c_i| - d_i, 0), ||c|| - min d_i]``
    over the terms with ``c_i != 0`` (the sum is at least 1 at the lower
    end, at most 1 at the upper); the float inputs are taken as exact and
    the result is an mpf.
    """
    terms = [(float(ci), float(di)) for ci, di in zip(c, d) if ci != 0.0]
    with mpmath.workdps(dps + 10):
        cs = [mpmath.mpf(ci) for ci, _ in terms]
        ds = [mpmath.mpf(di) for _, di in terms]

        def excess(t):
            return mpmath.fsum((ci / (di + t)) ** 2 for ci, di in zip(cs, ds)) - 1

        lo = max(mpmath.mpf(0), max(abs(ci) - di for ci, di in zip(cs, ds)))
        hi = max(lo, mpmath.sqrt(mpmath.fsum(ci * ci for ci in cs)) - min(ds))
        tol = mpmath.mpf(10) ** (-dps)
        while hi - lo > tol * hi:
            mid = (lo + hi) / 2
            if excess(mid) > 0:
                lo = mid
            else:
                hi = mid
        return +((lo + hi) / 2)


def mp_ncx2_cdf(dof: int, noncentrality: float, x: float, dps: int = 40):
    """Noncentral chi-squared CDF at ``dps`` digits (an mpmath number).

    Sums ``Pois(j; lam/2) P(dof/2 + j, x/2)`` over every ``j`` from 0 to
    40 Poisson standard deviations above the mode. ``P`` is taken from one
    incomplete gamma value at the top and the downward recurrence
    ``P(a, y) = P(a + 1, y) + y^a e^-y / Gamma(a + 1)``, which adds
    positive terms only.
    """
    with mpmath.workdps(dps):
        mu = mpmath.mpf(noncentrality) / 2
        y = mpmath.mpf(x) / 2
        a = mpmath.mpf(dof) / 2
        if mu == 0:
            return mpmath.gammainc(a, 0, y, regularized=True)
        top = int(mu + 40 * mpmath.sqrt(mu) + 40)
        p = mpmath.gammainc(a + top, 0, y, regularized=True)
        g = mpmath.exp((a + top) * mpmath.log(y) - y - mpmath.loggamma(a + top + 1))
        w = mpmath.exp(-mu + top * mpmath.log(mu) - mpmath.loggamma(top + 1))
        total = w * p
        for j in range(top - 1, -1, -1):
            g = g * (a + j + 1) / y  # y^(a+j) e^-y / Gamma(a+j+1)
            p = p + g
            w = w * (j + 1) / mu
            total += w * p
        return +total


def mp_pc_circular(d_over_r, s_over_r, dps: int = 40):
    """Circular-encounter collision probability at ``dps`` digits.

    One minus the Marcum Q function ``Q1(a, b)``, ``a = d/s``, ``b = r/s``,
    from its Bessel series ``exp(-(a^2 + b^2)/2) sum_k (b/a)^k I_k(ab)``
    over ``k >= 1`` when ``a > b`` (no cancellation in the tail), and as one
    minus ``exp(-(a^2 + b^2)/2) sum_k (a/b)^k I_k(ab)`` over ``k >= 0``
    otherwise. ``I_k(z)`` comes from Miller's downward recurrence,
    normalized by ``I_0 + 2 sum_k I_k = exp(z)``. It starts where the
    product of the ratio bounds ``I_k / I_(k-1) < z / (k - 1 + sqrt((k -
    1)^2 + z^2))``, over ``I_1 / I_0`` at least, falls below the working
    precision; the powers of ``b/a`` or ``a/b`` are carried term by term.
    """
    with mpmath.workdps(dps + 20):
        a = mpmath.mpf(d_over_r) / s_over_r
        b = 1 / mpmath.mpf(s_over_r)
        z = a * b
        if z == 0:
            return -mpmath.expm1(-b * b / 2)
        zf = max(float(z), 1e-300)  # a smaller z only loosens the bounds
        budget = (dps + 20) * math.log(10.0) - min(0.0, math.log(zf / 2.0))
        top, log_bound = 0, 0.0
        while log_bound < budget:
            top += 1
            log_bound += math.log((top - 1 + math.hypot(top - 1, zf)) / zf)
        upper, current = mpmath.mpf(0), mpmath.mpf(1)
        bessel = [current]
        for k in range(top, 0, -1):
            upper, current = current, upper + 2 * k / z * current
            bessel.append(current)
        bessel.reverse()  # proportional to I_0 .. I_top
        # exp(-(a^2 + b^2)/2) I_k(z) = exp(-(a - b)^2 / 2) B_k / sum
        scale = mpmath.exp(-(a - b) ** 2 / 2) / (bessel[0] + 2 * mpmath.fsum(bessel[1:]))
        r = b / a if a > b else a / b
        terms, power = [], mpmath.mpf(1)
        for value in bessel:
            terms.append(power * value)
            power *= r
        if a > b:
            return +(scale * mpmath.fsum(terms[1:]))
        return 1 - scale * mpmath.fsum(terms)


def mp_pc(u, v, s1, s2, r, dps: int = 40):
    """Anisotropic collision probability at ``dps`` digits (an mpmath number).

    The mass of ``normal(u, s1^2)`` on the chord ``|x| <= r cos(t)``, times
    the density of ``normal(v, s2^2)`` at ``y = r sin(t)``, integrated over
    the ``t`` of ``|y - v| <= 40 s2`` in 8 equal pieces. The integrand is
    divided by its largest value at the piece ends first, because mpmath
    stops at an absolute error.
    """
    with mpmath.workdps(dps):
        u, v, s1, s2, r = (mpmath.mpf(x) for x in (u, v, s1, s2, r))

        def f(t):
            h = r * mpmath.cos(t)
            mass = mpmath.ncdf((h - abs(u)) / s1) - mpmath.ncdf((-h - abs(u)) / s1)
            return mpmath.npdf((r * mpmath.sin(t) - v) / s2) / s2 * mass * h

        lo, hi = max(-r, v - 40 * s2), min(r, v + 40 * s2)
        if lo >= hi:
            return mpmath.mpf(0)
        ends = mpmath.linspace(mpmath.asin(lo / r), mpmath.asin(hi / r), 9)
        scale = max(f(t) for t in ends)
        return scale * mpmath.quad(lambda t: f(t) / scale, ends, method="gauss-legendre")


def mp_band_edge(w, alpha, dps: int = 40):
    """Band edge ``z*`` and its two-sided normal tail ``erfc(z*/sqrt 2)``
    at ``dps`` digits (mpmath numbers).

    ``z*`` is where the mass of ``normal(z, 1)`` on ``[-w, w]``, the
    difference of two normal CDFs, falls to ``alpha``: 0 (tail 1) where it
    is at most ``alpha`` already at ``z = 0``, infinite (tail 0) at
    ``alpha = 0``.
    """
    with mpmath.workdps(dps):
        w, alpha = mpmath.mpf(w), mpmath.mpf(alpha)
        if alpha == 0:
            return mpmath.inf, mpmath.mpf(0)

        def log_excess(z):
            return mpmath.log(mpmath.ncdf(w - z) - mpmath.ncdf(-w - z)) - mpmath.log(alpha)

        if log_excess(0) <= 0:
            return mpmath.mpf(0), mpmath.mpf(1)
        z = mpmath.findroot(log_excess, (0, w + mpmath.sqrt(-2 * mpmath.log(alpha))),
                            solver="anderson")
        return z, mpmath.erfc(z / mpmath.sqrt(2))
