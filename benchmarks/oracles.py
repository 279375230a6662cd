"""Reference answers that do not use the code under test.

Nothing in this module imports ``conjrisk``. Conjunction files are read by a
parser of their own, the encounter plane is formed from the raw numbers, the
collision probability is a one-dimensional adaptive quadrature in log space,
ellipsoid distance is bracketed by a support-function lower bound and a
boundary-pair upper bound, and the noncentral chi-squared CDF comes from
mpmath (used to spot-check the fast references).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import integrate, optimize, special

_KVN_LINE = re.compile(r"^(\w+)\s*=\s*(\S+)")
_KVN_AXES = ("R", "T", "N", "RDOT", "TDOT", "NDOT")
_KVN_STATE = ("X", "Y", "Z", "X_DOT", "Y_DOT", "Z_DOT")


@dataclass(frozen=True)
class Conjunction:
    """The raw numbers of one conjunction file (object 1, object 2)."""

    x1: np.ndarray
    v1: np.ndarray
    x2: np.ndarray
    v2: np.ndarray
    p1: np.ndarray      # 3x3 position covariance of object 1
    p2: np.ndarray      # 3x3 position covariance of object 2
    cross: np.ndarray   # 3x3 position cross covariance cov(object 1, object 2)
    r: float            # combined hard-body radius


def read_conjunction(text: str, fmt: str) -> Conjunction:
    """Read a JSON or KVN conjunction file."""
    if fmt == "json":
        doc = json.loads(text)
        o1, o2, cov = doc["object1"], doc["object2"], doc["covariance"]
        if "cov12_row_major" in cov:
            full = np.array(cov["cov12_row_major"], dtype=float).reshape(12, 12)
            p1, p2, cross = full[0:3, 0:3], full[6:9, 6:9], full[0:3, 6:9]
        else:
            p1 = np.array(cov["object1_cov6"], dtype=float).reshape(6, 6)[:3, :3]
            p2 = np.array(cov["object2_cov6"], dtype=float).reshape(6, 6)[:3, :3]
            cross = np.zeros((3, 3))
            if "cross6" in cov:
                cross = np.array(cov["cross6"], dtype=float).reshape(6, 6)[:3, :3]
        return Conjunction(
            x1=np.array(o1["position_m"], dtype=float),
            v1=np.array(o1["velocity_mps"], dtype=float),
            x2=np.array(o2["position_m"], dtype=float),
            v2=np.array(o2["velocity_mps"], dtype=float),
            p1=p1, p2=p2, cross=cross,
            r=float(o1["radius_m"]) + float(o2["radius_m"]),
        )
    values = {}
    for line in text.splitlines():
        match = _KVN_LINE.match(line.strip())
        if match:
            values[match.group(1)] = float(match.group(2))

    def state(obj):
        return np.array([values[f"{obj}_{s}"] for s in _KVN_STATE])

    def position_cov(obj):
        mat = np.zeros((3, 3))
        for i in range(3):
            for j in range(i + 1):
                mat[i, j] = mat[j, i] = values[f"{obj}_C{_KVN_AXES[i]}_{_KVN_AXES[j]}"]
        return mat

    s1, s2 = state("OBJECT1"), state("OBJECT2")
    return Conjunction(
        x1=s1[:3], v1=s1[3:], x2=s2[:3], v2=s2[3:],
        p1=position_cov("OBJECT1"), p2=position_cov("OBJECT2"),
        cross=np.zeros((3, 3)),
        r=values["OBJECT1_RADIUS"] + values["OBJECT2_RADIUS"],
    )


def encounter_plane(c: Conjunction) -> tuple[float, float, float, float, float]:
    """``(u, v, s1, s2, r)``: displacement along the principal axes of the
    encounter-plane covariance, its deviations with ``s1 >= s2``, and the
    combined radius."""
    w = c.v2 - c.v1
    w = w / np.linalg.norm(w)
    # any orthonormal basis of the plane normal to w: Pc is rotation invariant
    _, _, vt = np.linalg.svd(w[None, :])
    basis = vt[1:].T
    delta = c.x2 - c.x1
    c_delta = c.p1 + c.p2 - c.cross - c.cross.T
    cov2 = basis.T @ c_delta @ basis
    cov2 = 0.5 * (cov2 + cov2.T)
    eigvals, eigvecs = np.linalg.eigh(cov2)
    uv = eigvecs.T @ (basis.T @ delta)
    return (float(uv[1]), float(uv[0]), math.sqrt(eigvals[1]),
            math.sqrt(eigvals[0]), c.r)


def _log_strip_mass(h, v, s2):
    """log P(|Y| <= h) for Y ~ normal(v, s2^2), without cancellation."""
    a = (-h - v) / s2
    b = (h - v) / s2
    out = np.full(np.shape(h), -np.inf)
    upper = a >= 0.0
    lower = b <= 0.0
    mid = ~(upper | lower)
    with np.errstate(divide="ignore", invalid="ignore"):
        la, lb = special.log_ndtr(-a[upper]), special.log_ndtr(-b[upper])
        out[upper] = la + np.log(-np.expm1(lb - la))
        la, lb = special.log_ndtr(a[lower]), special.log_ndtr(b[lower])
        out[lower] = lb + np.log(-np.expm1(la - lb))
        root2 = math.sqrt(2.0)
        out[mid] = np.log(0.5 * (special.erf(b[mid] / root2) + special.erf(-a[mid] / root2)))
    return out


def pc_reference(u: float, v: float, s1: float, s2: float, r: float) -> float:
    """Probability that normal((u, v), diag(s1^2, s2^2)) lies in the disk of
    radius ``r`` about the origin.

    The strip mass in the second axis is exact; the first axis is integrated
    over ``x = r sin(t)`` by adaptive quadrature, normalised by the peak of the
    integrand so that probabilities down to the underflow limit keep their
    relative accuracy.
    """

    def log_integrand(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = r * np.sin(t)
        h = r * np.cos(t)
        z = (x - u) / s1
        with np.errstate(divide="ignore"):
            return (-0.5 * z * z - math.log(s1 * math.sqrt(2.0 * math.pi))
                    + _log_strip_mass(h, v, s2) + np.log(np.maximum(h, 0.0)))

    grid = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 4001)
    values = log_integrand(grid)
    peak = int(np.argmax(values))
    top = float(values[peak])
    if not math.isfinite(top) or top < -800.0:
        return 0.0
    total, _ = integrate.quad(
        lambda t: math.exp(float(log_integrand(t)[0]) - top),
        -0.5 * math.pi, 0.5 * math.pi,
        points=[float(grid[peak])], epsabs=0.0, epsrel=1e-12, limit=400,
    )
    return math.exp(top + math.log(total)) if total > 0.0 else 0.0


# -- ellipsoids -------------------------------------------------------------

def _support(mat: np.ndarray, n: np.ndarray) -> tuple[float, np.ndarray]:
    """Support function ``sqrt(n' M n)`` of ``{z' M^-1 z <= 1}`` and its gradient."""
    mn = mat @ n
    h = math.sqrt(max(float(n @ mn), 1e-300))
    return h, mn / h


def _maximise_direction(fun_grad, start: np.ndarray) -> np.ndarray:
    """Direction maximising a degree-0 homogeneous function with gradient."""

    def neg(m):
        f, g = fun_grad(m)
        return -f, -g

    res = optimize.minimize(neg, start / np.linalg.norm(start), jac=True,
                            method="BFGS", options={"gtol": 1e-14, "maxiter": 500})
    return res.x / np.linalg.norm(res.x)


def touching_k(delta: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> float:
    """The sigma multiple at which the ellipsoids ``k^2 p1`` about 0 and
    ``k^2 p2`` about ``delta`` touch: the gauge of their Minkowski sum at
    ``delta``, ``max_n n.delta / (h1(n) + h2(n))``."""

    def ratio(m):
        n = m / np.linalg.norm(m)
        h1, g1 = _support(p1, n)
        h2, g2 = _support(p2, n)
        top, bottom = float(n @ delta), h1 + h2
        grad = (delta * bottom - top * (g1 + g2)) / (bottom * bottom)
        grad = (grad - n * float(grad @ n)) / np.linalg.norm(m)
        return top / bottom, grad

    n = _maximise_direction(ratio, delta)
    return ratio(n)[0]


def gap_bounds(delta: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> tuple[float, float]:
    """Bracket the distance between ``{z' q1^-1 z <= 1}`` and the same set
    for ``q2`` shifted by ``delta``.

    The lower bound is the separation ``n.delta - h1(n) - h2(n)`` of the best
    direction found (every direction gives a valid bound, and so does 0);
    the upper bound is the distance between the two support points of that
    direction, which lie on the ellipsoids. A positive lower bound proves
    the ellipsoids disjoint; an upper bound of 0 is never claimed, so a
    bracket ``(0, inf)`` means the separation certificate failed, which for
    convex bodies means they intersect.
    """

    def separation(m):
        norm = np.linalg.norm(m)
        n = m / norm
        h1, g1 = _support(q1, n)
        h2, g2 = _support(q2, n)
        grad = delta - g1 - g2
        return float(n @ delta) - h1 - h2, (grad - n * float(grad @ n)) / norm

    n = _maximise_direction(separation, delta)
    lower = separation(n)[0]
    if lower <= 0.0:
        return 0.0, math.inf
    p = _support(q1, n)[1]
    q = delta - _support(q2, n)[1]
    return lower, float(np.linalg.norm(p - q))


# -- circular encounters, detection and validity ------------------------------

def circular_cdf(b: float, a: float) -> float:
    """``P(|X| <= b)`` for ``X ~ normal((a, 0), I_2)``: the noncentral
    chi-squared CDF ``F_2(b^2; a^2)``.

    Integrates the Rice density ``t exp(-(t - a)^2 / 2) i0e(a t)`` (all terms
    positive, so no cancellation) over ``[0, b]`` in log space.
    """
    if b <= 0.0:
        return 0.0
    peak = min(max(a, 1.0 if a == 0.0 else a), b)

    def log_density(t):
        return math.log(t) - 0.5 * (t - a) ** 2 + math.log(special.i0e(a * t)) if t > 0.0 else -math.inf

    top = max(log_density(peak), log_density(b))
    if top < -740.0:
        return 0.0
    edges = sorted({0.0, peak, b})
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        part, _ = integrate.quad(lambda t: math.exp(log_density(t) - top), lo, hi,
                                 epsabs=0.0, epsrel=1e-13, limit=200)
        total += part
    return math.exp(top + math.log(total)) if total > 0.0 else 0.0


def circular_cdf_mp(b: float, a: float) -> float:
    """The same CDF from mpmath at 40 digits (slow; for spot checks)."""
    with mpmath.workdps(40):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        val = mpmath.quad(lambda t: t * mpmath.exp(-(t * t + a_ * a_) / 2) * mpmath.besseli(0, a_ * t),
                          mpmath.linspace(0, b_, 8))
        return float(val)


def pc_circular_reference(d_over_r: float, s_over_r: float) -> float:
    """Circular-encounter Pc, ``F_2((r/s)^2; (d/s)^2)``."""
    return circular_cdf(1.0 / s_over_r, d_over_r / s_over_r)


def critical_ratio(threshold: float, s_over_r: float) -> float | None:
    """``d/s`` at which the circular Pc equals ``threshold``; None when the
    threshold is above the head-on maximum ``1 - exp(-1 / (2 s^2))``."""
    b = 1.0 / s_over_r
    if threshold > -math.expm1(-0.5 * b * b):
        return None
    if circular_cdf(b, 0.0) <= threshold:
        return 0.0
    hi = b + 2.0
    while circular_cdf(b, hi) >= threshold:
        hi *= 2.0
    return optimize.brentq(lambda a: math.log(max(circular_cdf(b, a), 1e-320)) - math.log(threshold),
                           0.0, hi, xtol=1e-14, rtol=1e-14)


def detection_rate_reference(threshold: float, s_over_r: float, d_true_over_r: float) -> float:
    """Probability that the redrawn estimate's Pc reaches the threshold."""
    crit = critical_ratio(threshold, s_over_r)
    if not crit:
        return 0.0
    return circular_cdf(crit, d_true_over_r / s_over_r)


def dilution_boundary_reference(threshold: float) -> float:
    return 1.0 / math.sqrt(-2.0 * math.log1p(-threshold))


def ksigma_interval_rate(h: float, alpha: float, sigma: float) -> float:
    """Rate at which the 1-D K-sigma interval about ``x ~ normal(0, sigma^2)``
    misses ``(-h, h)``: ``2 Phi(-(h + k sigma) / sigma)`` with ``k = z(1 - alpha/2)``."""
    k = float(special.ndtri(1.0 - alpha / 2.0))
    return 2.0 * float(special.ndtr(-(h + k * sigma) / sigma))


def additive_rate(h: float, alpha: float, sigma: float) -> float:
    """Rate at which normal(x, sigma^2) puts mass ``<= alpha`` on ``(-h, h)``
    for ``x ~ normal(0, sigma^2)``: 1 when even ``x = 0`` does, else
    ``2 Phi(-x*/sigma)`` at the crossing ``x*``."""

    def mass(x):
        return float(special.ndtr((h - x) / sigma) - special.ndtr((-h - x) / sigma))

    if mass(0.0) <= alpha:
        return 1.0
    x_star = optimize.brentq(lambda x: mass(x) - alpha, 0.0, h + 50.0 * sigma,
                             xtol=1e-14, rtol=1e-15)
    return 2.0 * float(special.ndtr(-x_star / sigma))


def halfspace_rate(normal: np.ndarray, offset: float, theta: np.ndarray,
                   cov: np.ndarray, alpha: float) -> float:
    """Rate at which the K-sigma ellipsoid about ``x ~ normal(theta, cov)``
    lies inside ``{z : normal.z <= offset}``."""
    k = math.sqrt(2.0 * float(special.gammaincinv(1.5, 1.0 - alpha)))
    spread = math.sqrt(float(normal @ cov @ normal))
    return float(special.ndtr((offset - float(normal @ theta)) / spread - k))


def binomial_ok(rate: float, expected: float, n: int, z: float, slack: float = 0.0) -> bool:
    """Whether an observed rate is within ``z`` binomial standard errors (the
    error floored at one trial's worth) plus ``slack`` of the expected one."""
    se = math.sqrt(max(expected * (1.0 - expected), 1.0 / n) / n)
    return abs(rate - expected) <= z * se + slack


def chi2_cdf_3(x: float) -> float:
    """Chi-squared CDF with 3 degrees of freedom, in closed form."""
    root = math.sqrt(0.5 * x)
    return math.erf(root) - math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x)


def dilution_peak_reference(d_over_r: float, s_min: float, s_max: float) -> float:
    """Largest circular Pc over ``s/r`` in ``[s_min, s_max]`` at fixed ``d/r``."""
    logs = np.linspace(math.log(s_min), math.log(s_max), 80)
    values = [pc_circular_reference(d_over_r, math.exp(t)) for t in logs]
    i = int(np.argmax(values))
    if i in (0, len(logs) - 1):
        return values[i]
    res = optimize.minimize_scalar(
        lambda t: -pc_circular_reference(d_over_r, math.exp(t)),
        bounds=(logs[i - 1], logs[i + 1]), method="bounded", options={"xatol": 1e-10},
    )
    return max(values[i], -float(res.fun))
