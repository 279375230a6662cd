"""Collision probability on the standardized encounter plane.

For an anisotropic encounter (``pc_contour``) the probability that the true
relative displacement falls inside the combined-radius disk, under bivariate
normal uncertainty, is integrated across the disk along the axis of the
smaller deviation: that axis's normal density times the mass the other
axis's law puts on the chord. With ``y = r sin(theta)`` the chord is smooth
at the disk's edge. Composite 16-point Gauss-Legendre panels are doubled
until two panel counts agree to ``1e-10`` relative; every term is positive
and the sum is taken in log space, so the relative error holds down to the
underflow limit. The normal tails come from this module's own
``log_ndtr``, so the quadrature needs numpy alone.

For a circular encounter (``s1 == s2 == s``, ``pc_circular``) the squared
displacement over ``s`` is noncentral chi-squared with two degrees of
freedom, so the probability is exactly ``ncx2_cdf(2, (d/s)^2, (r/s)^2)``,
one minus a Marcum Q function, from the series in ``ncx2``, which uses
scipy; it is imported only when a circular Pc is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputValidationError, NumericalError
from .geometry import StandardizedEncounter

#: Largest grid ``dilution_curve`` accepts; each point is one Pc evaluation.
MAX_CURVE_POINTS = 10**5

_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(16)
_MASS_X, _MASS_W = np.polynomial.legendre.leggauss(8)
#: Most panels ``pc_contour`` doubles to before it raises.
_MAX_PANELS = 2**12
_PC_RTOL = 1e-10
#: Most Newton steps, each one batched mass evaluation, a ``_falling_root``
#: solve may take.
_NEWTON_MAX_ITERS = 100
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
#: ``(-1)^n (2n - 1)!!`` for ``n = 1 .. 8``: the asymptotic series of
#: ``log_ndtr`` in powers of ``1 / x^2``, whose next term is below 1e-19
#: for ``x <= -37``.
_ASYMPTOTIC_N = np.arange(1, 9)
_ASYMPTOTIC = np.array([(-1) ** n * math.prod(range(1, 2 * n, 2)) for n in _ASYMPTOTIC_N],
                       dtype=float)


def log_ndtr(x) -> np.ndarray:
    """``log Phi(x)`` elementwise, for the standard normal CDF ``Phi``.

    From -37 up it is ``log(Phi(-|x|))`` below 0 and ``log1p(-Phi(-|x|))``
    above, with ``Phi(-|x|) = erfc(|x| / sqrt(2)) / 2`` from ``math.erfc``
    per element (numpy has no erfc); the ``log1p`` keeps relative precision
    as ``Phi(x)`` nears 1. Below -37, where ``erfc`` nears the end of the
    float range, it is the asymptotic series ``-x^2/2 - log(-x sqrt(2 pi))
    + log(1 + sum_n (-1)^n (2n - 1)!! / x^(2n))``, converged to double
    precision in eight terms there and finite until ``x^2 / 2`` overflows.
    """
    x = np.asarray(x, dtype=float)
    t = np.abs(np.maximum(x, -37.0)).ravel() * _SQRT_HALF
    tail = 0.5 * np.fromiter(map(math.erfc, t.tolist()), float, t.size).reshape(x.shape)
    out = np.log1p(-tail, out=np.empty_like(x))
    np.log(tail, out=out, where=x < 0.0)
    far = x < -37.0
    if far.any():
        z = x[far]
        with np.errstate(over="ignore"):  # -inf where z^2 / 2 overflows
            half_z2 = 0.5 * z * z
        series = (0.5 / half_z2[:, None]) ** _ASYMPTOTIC_N @ _ASYMPTOTIC
        out[far] = np.log1p(series) - (half_z2 + np.log(-z) + _HALF_LOG_2PI)
    return out


def _log_interval_mass(m, w: np.ndarray) -> np.ndarray:
    """``log P(|Z - m| <= w)`` for a standard normal ``Z``, ``m >= 0`` and
    ``w >= 0``, without cancellation; ``m`` is a float or an array of the
    shape of ``w``. Where ``w max(w, m) <= 1/2`` it is ``phi(m)`` times
    8-point Gauss-Legendre on ``exp(-m s - s^2/2)`` over ``|s| <= w``;
    elsewhere ``log(Phi(w - m) - Phi(-w - m))`` from one ``log_ndtr`` call."""
    # the floor keeps 0.5 / max(w, m) finite; every w below it is near
    near = w <= 0.5 / np.maximum(np.maximum(w, m), 1e-300)
    if np.ndim(m):
        m_near, m_far, m_col = m[near], m[~near], m[near, None]
    else:
        m_near = m_far = m_col = m
    out = np.empty_like(w)
    s = w[near, None] * _MASS_X
    out[near] = np.log(w[near] * (np.exp(-s * (m_col + 0.5 * s)) @ _MASS_W))
    out[near] -= 0.5 * m_near * m_near + _HALF_LOG_2PI
    far = w[~near]
    if not far.size:  # log_ndtr costs some microseconds even on no elements
        return out
    tails = log_ndtr(np.concatenate([far - m_far, -far - m_far]))
    lo, hi = tails[: far.size], tails[far.size :]
    out[~near] = lo + np.log(-np.expm1(hi - lo))
    return out


def _falling_root(evaluate, h_t: np.ndarray, u: np.ndarray, rtol: float,
                  name: str, var: str) -> np.ndarray:
    """Where each of a batch of masses ``M(u)``, falling in ``u >= 0``,
    meets its level: safeguarded Newton steps from the starts ``u``, each
    one ``evaluate(u, rows)`` over the open rows (``rows`` indexes the
    caller's per-row data). It returns ``(reached, h, log_rate)``: whether
    ``M(u)`` is at or above the level, ``h = sqrt(2 (log peak - log M(u)))``
    (infinite where ``M`` underflows) and ``log(-dlog M/du)``; ``h_t`` is
    ``h`` at each level. ``log M`` falls like a multiple of ``u^2`` near its
    peak and like ``(u - c)^2 / 2`` far out, so ``h`` is close to linear and
    the step ``u + (h_t - h) h / rate`` lands close to the root. Where ``M``
    rounds to the peak, ``h`` is 0 and that step a false convergence, so
    the step is on ``log M``, whose rise to the level is ``h_t^2 / 2``.

    While a row knows no point below its level, its steps are limited to
    doubling ``u``; after, a step that leaves its bracket ``[lo, hi]`` or
    lands on one of its ends (rounding can cycle Newton between them), or
    one from where ``M`` underflows, bisects. A row converges when its step
    is at most ``rtol`` of ``u``. If ``_NEWTON_MAX_ITERS`` steps leave a row
    open, ``NumericalError`` names its bracket of ``var``.
    """
    roots = np.empty(u.size)
    rows = np.arange(u.size)
    lo, hi = np.zeros(u.size), np.full(u.size, math.inf)
    for _ in range(_NEWTON_MAX_ITERS):
        if not rows.size:
            break
        reached, h, log_rate = evaluate(u, rows)
        lo, hi = np.where(reached, u, lo), np.where(reached, hi, u)
        with np.errstate(invalid="ignore", over="ignore"):
            rise = np.where(h > 0.0, (h_t - h) * h, 0.5 * h_t * h_t)
            nxt = u + rise * np.exp(np.minimum(-log_rate, 700.0))
        nxt[h == math.inf] = math.nan
        open_ = hi == math.inf
        nxt = np.where(open_, np.fmin(2.0 * u, nxt), nxt)
        # a NaN step bisects too; a zero step has converged
        stray = ~open_ & ~((lo < nxt) & (nxt < hi)) & (nxt != u)
        nxt = np.where(stray, 0.5 * (lo + hi), nxt)
        done = np.abs(nxt - u) <= rtol * nxt
        roots[rows[done]] = nxt[done]
        rows, h_t, u, lo, hi = (a[~done] for a in (rows, h_t, nxt, lo, hi))
    if rows.size:
        raise NumericalError(
            f"{name} did not converge in {_NEWTON_MAX_ITERS} steps: "
            f"the root is bracketed by {var} in [{float(lo[0])!r}, {float(hi[0])!r}]"
        )
    return roots


def _strip_integral(a: float, b: float, p: float, q: float) -> tuple[float, int, float]:
    """Probability that ``normal((a, b), diag(p^2, q^2))`` falls in the unit
    disk, integrated along the second axis; returns it, the node count and
    the absolute difference from half the panels.

    Only ``|y - b| <= 40 q`` is integrated (the rest holds under 1e-349 of
    the mass), over ``t = theta - theta_c`` from ``sin(theta_c) = clamp(b)``,
    so that ``y - b`` keeps its digits at every node however small ``q`` is.
    """
    if not math.isfinite(a + b + p + q):  # a ratio to r overflows
        return 0.0, 0, 0.0
    if q < 1e-300:  # below about 1e-306 log_ndtr overflows across the window
        raise NumericalError(f"s2/r = {q!r} is below 1e-300")
    m = abs(a) / p
    c = min(1.0, max(-1.0, b))
    d_lo, d_hi = max(-1.0 - c, b - c - 40.0 * q), min(1.0 - c, b - c + 40.0 * q)
    if d_lo >= d_hi:
        return 0.0, 0, 0.0
    # half-chords at y = c + d: the anchor's, the window ends' and the widest
    cos_c, h_lo, h_hi, widest = (
        math.sqrt((1.0 - c - d) * (1.0 + c + d))
        for d in (0.0, d_lo, d_hi, min(max(-c, d_lo), d_hi))
    )
    # the mass on the widest chord bounds Pc; where it underflows, so does Pc
    if math.erfc((abs(a) - widest) / p * _SQRT_HALF) == 0.0:
        return 0.0, 0, 0.0
    # tan(t/2) = (y - c) / (cos(theta_c) + cos(theta)) at the window's ends
    t_lo, t_hi = (2.0 * math.atan2(d, cos_c + h) for d, h in ((d_lo, h_lo), (d_hi, h_hi)))
    panels, last = 1, None
    with np.errstate(divide="ignore"):
        while panels <= _MAX_PANELS:
            half = 0.5 * (t_hi - t_lo) / panels
            t = (np.arange(1.0, 2 * panels, 2.0)[:, None] + _PANEL_X).ravel() * half + t_lo
            sin_t = np.sin(t)
            h = np.maximum(cos_c * np.cos(t) - c * sin_t, 0.0)
            z = ((c - b) + cos_c * sin_t - 2.0 * c * np.sin(0.5 * t) ** 2) / q
            log_f = _log_interval_mass(m, h / p) + np.log(h) - 0.5 * z * z
            top = log_f.max()
            total = float(np.exp(log_f - top).reshape(panels, -1).sum(axis=0) @ _PANEL_W)
            log_scale = top + math.log(half) - math.log(q) - _HALF_LOG_2PI
            if last is not None:
                diff = abs(total - last[1] * math.exp(last[0] - log_scale))
                if diff <= _PC_RTOL * total:
                    pc = math.exp(log_scale + math.log(total))
                    return min(1.0, pc), t.size, diff * math.exp(log_scale)
            last = (log_scale, total)
            panels *= 2
    pc, diff = math.exp(log_scale + math.log(total)), diff * math.exp(log_scale)
    raise NumericalError(f"Pc quadrature reached {pc:.6g} with difference {diff:.3g}")


@dataclass(frozen=True)
class PcResult:
    """Collision probability with quadrature metadata.

    ``n_quad`` is the node count of the accepted rule, 0 where Pc underflows
    before any rule runs; ``quad_error_est`` is its absolute difference from
    the rule with half the panels.
    """

    pc: float
    n_quad: int
    quad_error_est: float

    def to_json_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[dict]:
        return [asdict(self)]


def pc_contour(enc: StandardizedEncounter) -> PcResult:
    """Collision probability for a standardized encounter, to ``1e-10``
    relative. Raises ``NumericalError`` if ``s2 / r`` is below 1e-300 or
    the rule does not converge in ``_MAX_PANELS`` panels."""
    r = enc.r_combined
    return PcResult(*_strip_integral(enc.u_hat / r, enc.v_hat / r, enc.s1 / r, enc.s2 / r))


def pc_circular(d_over_r: float, s_over_r: float) -> float:
    """Collision probability for the equal-deviation special case.

    With ``s1 == s2`` the probability depends only on the displacement ratio
    ``d_over_r`` and the uncertainty ratio ``s_over_r``; it is the scalar
    form of ``pc_circular_batch``.
    """
    return float(pc_circular_batch(d_over_r, s_over_r))


def pc_circular_batch(d_over_r, s_over_r) -> np.ndarray:
    """Circular-encounter collision probability over displacement and
    uncertainty ratios, broadcast against each other.

    ``ncx2_cdf(2, (d/s)^2, 1/s^2)`` for every pair (a 0-d array for two
    scalars); 0 where ``s^2`` overflows, the limit ``1/s^2`` tends to.
    Raises ``NumericalError`` if ``1 / s_over_r^2`` or
    ``(d_over_r / s_over_r)^2`` overflows, naming the smallest ``s_over_r``
    at which it does.

    A value depends on the other points of its batch, within the series
    tolerance: rows share a series window, and the near-series dot product
    goes through BLAS. Over d/r 0.3-12 and s/r 0.05-100, 40 of 1200 points
    of one batch differ from ``pc_circular``, by at most 2.8e-14 relative.
    """
    d = np.asarray(d_over_r, dtype=float)
    s = np.asarray(s_over_r, dtype=float)
    if not np.all(np.isfinite(d) & (d >= 0.0)):
        raise InputValidationError(f"d_over_r must be finite and >= 0, got {d_over_r}")
    if not np.all(np.isfinite(s) & (s > 0.0)):
        raise InputValidationError(f"s_over_r must be finite and positive, got {s_over_r}")
    with np.errstate(over="ignore", divide="ignore"):
        x = 1.0 / s**2
        lam = (d / s) ** 2
    for name, value in (("1 / s_over_r^2", x), ("(d_over_r / s_over_r)^2", lam)):
        over = np.isinf(value)
        if over.any():
            s_over = float(np.broadcast_to(s, over.shape)[over].min())
            raise NumericalError(f"{name} overflows at s_over_r = {s_over!r}")
    from .ncx2 import ncx2_cdf  # uses scipy, which pc, screen and boundary never need

    return np.asarray(ncx2_cdf(2, lam, x))


def max_pc_head_on(s_over_r: float) -> float:
    """Largest computable collision probability at a given uncertainty ratio.

    Attained at zero estimated displacement: ``1 - exp(-1 / (2 s^2))`` with
    ``s = s_over_r``. Strictly decreasing in ``s_over_r``; this is the
    dilution floor, the confidence in "no collision" can never drop below
    ``1 -`` this value no matter the data.
    """
    if not (s_over_r > 0.0 and math.isfinite(s_over_r)):
        raise InputValidationError(f"s_over_r must be positive, got {s_over_r}")
    s2 = s_over_r * s_over_r
    if s2 == 0.0:  # s^2 underflows below s = 1.6e-162; 1 / (2 s^2) is infinite
        return 1.0
    return -math.expm1(-1.0 / (2.0 * s2))


def dilution_boundary(threshold: float) -> float:
    """Uncertainty ratio beyond which the threshold is unreachable.

    Solves ``max_pc_head_on(s) == threshold`` in closed form:
    ``s = (-2 ln(1 - threshold))^(-1/2)``. The detection rate is exactly
    zero for ``s_over_r`` above the returned value and positive below it.
    """
    if not (0.0 < threshold < 1.0):
        raise InputValidationError(f"threshold must be in (0, 1), got {threshold}")
    return 1.0 / math.sqrt(-2.0 * math.log1p(-threshold))


@dataclass(frozen=True, eq=False)
class DilutionCurve:
    """Collision probability versus uncertainty ratio at fixed displacement.

    ``grid`` is an ascending sequence of ``(s_over_r, pc)`` pairs. The peak
    is where ``dPc/ds = 0``, ``I1(z) / I0(z) = r / d`` with ``z = d r / s^2``,
    clipped to the grid's ends; for ``d <= r`` it is at ``s_over_r_min``.
    """

    d_over_r: float
    grid: tuple[tuple[float, float], ...]
    peak_s_over_r: float
    peak_pc: float

    def to_json_dict(self) -> dict:
        return {**vars(self), "grid": [list(point) for point in self.grid]}

    def csv_rows(self) -> list[dict]:
        return [{"s_over_r": s, "pc": p} for s, p in self.grid]


def _peak_s_over_r(d: float) -> float:
    """Uncertainty ratio of the largest circular Pc at ``d = d_over_r``; 0
    where Pc falls as ``s_over_r`` grows (``d <= 1``).

    With lengths in units of r, Pc is ``F2(x, lam)`` at ``x = 1/s^2``,
    ``lam = d^2/s^2``; since ``dF2/dx = f2`` and ``dF2/dlam = -f4``,
    ``dPc/ds = 0`` exactly where ``R(z) = I1(z) / I0(z) = 1/d`` with
    ``z = d / s^2``. ``R`` is increasing, concave and at most ``z/2``, so
    Newton from ``z = 2/d`` climbs to the root without overshooting. Where
    ``1 - 1/d < 1e-6`` the root is past ``z = 5e5`` and the two-term
    expansion ``1 - R = 1/(2z) + 1/(8z^2)`` is good to ``1e-12``.
    """
    if d <= 1.0:
        return 0.0
    gap = (d - 1.0) / d
    if gap < 1e-6:  # the larger root of 8 gap z^2 - 4 z - 1 = 0
        z = (1.0 + math.sqrt(1.0 + 2.0 * gap)) / (4.0 * gap)
    else:
        # i0e and i1e keep full precision where ive(1, z) underflows, below 1e-300
        from scipy.special import i0e, i1e  # dilution-curve has loaded scipy.special

        z = 2.0 / d
        for _ in range(64):
            ratio = float(i1e(z) / i0e(z))
            step = (1.0 / d - ratio) / (1.0 - ratio / z - ratio * ratio)
            z += step
            if step <= 1e-9 * z:  # the next step would be below 1e-18 z
                break
        else:
            raise NumericalError(f"dilution peak solve at d_over_r = {d!r} did not converge")
    return math.sqrt(d) / math.sqrt(z)


def dilution_curve(
    d_over_r: float,
    s_over_r_min: float,
    s_over_r_max: float,
    n_points: int,
) -> DilutionCurve:
    """Probability-dilution curve over a logarithmic uncertainty-ratio grid.

    The peak is at the root of the stationarity condition
    ``I1(d r / s^2) / I0(d r / s^2) = r / d``, clipped to
    ``[s_over_r_min, s_over_r_max]``, and does not depend on the grid. For
    ``d_over_r <= 1`` there is no root: the curve falls as ``s_over_r``
    grows and the peak is reported at ``s_over_r_min``. ``n_points`` must
    lie in ``[16, MAX_CURVE_POINTS]``. Raises ``NumericalError`` if
    ``(d_over_r / s_over_r)^2`` or ``1 / s_over_r^2`` overflows at
    ``s_over_r_min``.
    """
    if not (0.0 < s_over_r_min < s_over_r_max < math.inf):
        raise InputValidationError(
            f"need 0 < s_over_r_min < s_over_r_max < inf, got "
            f"({s_over_r_min}, {s_over_r_max})"
        )
    if not (16 <= n_points <= MAX_CURVE_POINTS):
        raise InputValidationError(
            f"n_points must be in [16, {MAX_CURVE_POINTS}], got {n_points}"
        )
    if not (math.isfinite(d_over_r) and d_over_r >= 0.0):  # before the peak solve
        raise InputValidationError(f"d_over_r must be finite and >= 0, got {d_over_r}")
    s_grid = np.geomspace(s_over_r_min, s_over_r_max, int(n_points))
    peak_s = min(max(_peak_s_over_r(float(d_over_r)), float(s_grid[0])), float(s_grid[-1]))
    # the peak rides in the grid's batch, one ncx2 call for the whole curve
    pc_grid = pc_circular_batch(d_over_r, np.append(s_grid, peak_s))
    return DilutionCurve(
        d_over_r=float(d_over_r),
        grid=tuple((float(s), float(p)) for s, p in zip(s_grid, pc_grid)),
        peak_s_over_r=peak_s,
        peak_pc=float(pc_grid[-1]),
    )
