"""Collision probability on the standardized encounter plane.

For an anisotropic encounter (``pc_contour``) the probability that the true
relative displacement falls inside the combined-radius disk, under bivariate
normal uncertainty, is integrated across the disk along the axis of the
smaller deviation: that axis's normal density times the mass the other
axis's law puts on the chord. With ``y = r sin(theta)`` the chord is smooth
at the disk's edge. Composite 16-point Gauss-Legendre panels are doubled
until two panel counts agree to ``1e-10`` relative; every term is positive
and the sum is taken in log space, so the relative error holds down to the
underflow limit.

For a circular encounter (``s1 == s2 == s``, ``pc_circular``) the squared
displacement over ``s`` is noncentral chi-squared with two degrees of
freedom, so the probability is exactly ``ncx2_cdf(2, (d/s)^2, (r/s)^2)``,
one minus a Marcum Q function. ``ncx2_cdf`` sums the Poisson series outward
from its largest term, which keeps full relative precision in the far tail
at a cost that grows like the square roots of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammainc, gammaln, log_ndtr, xlog1py, xlogy

from .errors import InputValidationError, NumericalError
from .geometry import StandardizedEncounter

#: Largest grid ``dilution_curve`` accepts; each point is one Pc evaluation.
MAX_CURVE_POINTS = 10**5

_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(16)
_MASS_X, _MASS_W = np.polynomial.legendre.leggauss(8)
#: Most panels ``pc_contour`` doubles to before it raises.
_MAX_PANELS = 2**12
_PC_RTOL = 1e-10
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_interval_mass(m: float, w: np.ndarray) -> np.ndarray:
    """``log P(|Z - m| <= w)`` for a standard normal ``Z``, ``m >= 0`` and
    ``w >= 0``, without cancellation. Where ``w max(w, m) <= 1/2`` it is
    ``phi(m)`` times 8-point Gauss-Legendre on ``exp(-m s - s^2/2)`` over
    ``|s| <= w``; elsewhere the two tails from ``log_ndtr``."""
    near = w <= 0.5 / np.maximum(w, m)
    out = np.empty_like(w)
    s = w[near, None] * _MASS_X
    out[near] = np.log(w[near] * (np.exp(-s * (m + 0.5 * s)) @ _MASS_W))
    out[near] -= 0.5 * m * m + _HALF_LOG_2PI
    far = w[~near]
    lo, hi = log_ndtr(far - m), log_ndtr(-far - m)
    out[~near] = lo + np.log(-np.expm1(hi - lo))
    return out


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
    if math.exp(log_ndtr((widest - abs(a)) / p)) == 0.0:
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

    def __post_init__(self):
        if not (0.0 <= self.pc <= 1.0):
            raise InputValidationError(f"pc must be in [0, 1], got {self.pc}")
        if self.n_quad < 0:
            raise InputValidationError(f"n_quad must be >= 0, got {self.n_quad}")
        if not (self.quad_error_est >= 0.0):
            raise InputValidationError(
                f"quad_error_est must be non-negative, got {self.quad_error_est}"
            )

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


#: Share of the series total that ``ncx2_cdf`` may leave out.
_SERIES_TOL = 1e-13
#: The series is evaluated in blocks of this many consecutive terms, each
#: factor exact at one end of a block and carried through it by its ratio
#: recurrence, which keeps the rounding of the running sums near 1e-14.
_BLOCK = 64
#: Most series terms held at once (rows times window); one evaluation that
#: needs a wider window raises ``NumericalError``. Bounds the memory used.
_MAX_TERMS = 2**20
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# bd0 = d v + 2 x v sum_k v^(2k) / (2k + 1); v^56 / 57 < 1e-19 for |v| < 1/2
_SERIES_K = np.arange(1.0, 29.0)
_SERIES_COEF = 1.0 / (2.0 * _SERIES_K + 1.0)
_FIRST_OF_BLOCK = np.arange(_BLOCK) == 0


def _log_poisson(x: np.ndarray, mean) -> np.ndarray:
    """``log(mean^x exp(-mean) / Gamma(x + 1))`` for ``x >= 0``, ``mean > 0``
    (``mean`` broadcasts against ``x``).

    Loader's saddle-point form ``-stirling_error(x) - bd0 - log(2 pi x)/2``
    with ``bd0 = x log(x/mean) + mean - x``, summed as a series in
    ``v = (x - mean)/(x + mean)`` where ``|v| < 1/2`` and ``|x - mean| > 32``,
    so that the error is a few ulps of ``min(|x - mean|, 32 + bd0)`` rather
    than of ``mean``. The Stirling series serves ``x > 15``. (The direct
    ``x log(mean) - mean - log Gamma(x + 1)`` carries the rounding of its
    large parts: 5e-12 relative in circular Pc at s/r 0.01.)
    """
    d = x - mean
    # d / mean overflows only where mean < x / 1.8e308; bd0 = inf then
    # flushes the weight to 0, for x >= 1 a value below the smallest normal
    with np.errstate(over="ignore"):
        bd0 = xlog1py(x, d / mean) - d
    v = d / (x + mean)
    near = (np.abs(v) < 0.5) & (np.abs(d) > 32.0)
    if np.count_nonzero(near):
        v, d = v[near], d[near]
        series = ((v * v)[:, None] ** _SERIES_K) @ _SERIES_COEF
        bd0[near] = d * v + 2.0 * x[near] * v * series
    inv2 = 1.0 / (x * x)
    stirling = (
        1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))
    ) / x
    out = -stirling - bd0 - _HALF_LOG_2PI - 0.5 * np.log(x)
    small = x <= 15.0
    if np.count_nonzero(small):
        xs = x[small]
        out[small] = xlogy(xs, xs) - xs - gammaln(xs + 1.0) - bd0[small]
    return out


def _poisson_blocks(z: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``mean^z exp(-mean) / Gamma(z + 1)`` over blocks of consecutive
    ``z`` (last axis): exact at each block's first value, then up the block
    by the ratio ``mean / z``. ``mean`` has a trailing axis of length 1.
    """
    steps = np.log1p((mean - z) / z)
    steps[..., 0] = _log_poisson(z[..., 0], mean[..., 0])
    return np.exp(np.cumsum(steps, axis=-1))


def _gamma_blocks(a: float, blocks: np.ndarray, y) -> np.ndarray:
    """``P(a + j, y)`` for the ``_BLOCK`` values of ``j`` of each block id.

    With ``g(x) = y^x e^-y / Gamma(x + 1) = P(x, y) - P(x + 1, y)``, each
    block is filled from ``gammainc`` at its ends: downward from just past
    the block by adding ``g`` where ``x >= y`` (``P`` below about 1/2), and
    upward from its first value by subtracting ``g`` where ``x < y`` (``P``
    above about 1/2), so that no value loses precision to cancellation; the
    first value is ``gammainc``'s own. (One ``gammainc`` call per term
    makes ``ncx2_cdf(2, 1e5, 9e4)`` 8 times slower.) ``y`` broadcasts
    against ``blocks``; the result has a trailing axis of length ``_BLOCK``.
    """
    x = a + (blocks[..., None] * _BLOCK + np.arange(_BLOCK))
    y_col = np.asarray(y)[..., None]
    g = _poisson_blocks(x, y_col)
    down = gammainc(x[..., -1:] + 1.0, y_col) + np.cumsum(g[..., ::-1], axis=-1)[..., ::-1]
    up = gammainc(x[..., :1], y_col) - (np.cumsum(g, axis=-1) - g)
    return np.where((x < y_col) | _FIRST_OF_BLOCK, up, down)


def _window_width(half) -> int:
    """Terms in the whole blocks that cover a window of ``2 half`` terms."""
    return (-(-2 * int(half) // _BLOCK) + 1) * _BLOCK


def _series_window(a: float, mu: np.ndarray, y: np.ndarray, centre, half: int):
    """Sum ``Pois(j; mu) P(a + j, y)`` over the whole blocks of terms that
    cover ``centre - half <= j < centre + half`` in each row. Returns the
    sums and, per row, whether the geometric bound on the terms left out
    on either side is within ``_SERIES_TOL`` of the sum.
    """
    first = np.maximum(np.floor((centre - half) / _BLOCK), 0.0)
    blocks = first[:, None] + np.arange(_window_width(half) // _BLOCK)
    weights = _poisson_blocks(
        blocks[:, :, None] * _BLOCK + np.arange(_BLOCK), mu[:, None, None]
    )
    p = _gamma_blocks(a, blocks, y[:, None])
    terms = (weights * p).reshape(mu.size, -1)
    total = terms.sum(axis=1)
    # The terms are log-concave, so beyond an edge term t whose inner
    # neighbour is t' > t they fall at least geometrically and sum to at
    # most t^2 / (t' - t); beyond one that underflowed to 0 they underflow
    # too, and below j = 0 there is nothing to bound.
    edge = terms[:, [-1, 0]]
    edge[:, 1] *= first > 0.0
    gap = terms[:, [-2, 1]] - edge
    bounded = (edge == 0.0) | (
        (gap > 0.0) & (edge * (edge / gap) <= (_SERIES_TOL * total)[:, None])
    )
    return total, bounded.all(axis=1)


def _ncx2_series(a: float, mu: np.ndarray, y: np.ndarray, centre, half):
    """``_series_window`` over all rows, each with at least its own
    ``half``: rows whose windows are within a factor of two of each other
    share one, in chunks of at most ``_MAX_TERMS`` terms, and rows whose
    tail bound is not met are evaluated again with twice the window.
    Returns the sums and the number of terms evaluated.
    """
    if _window_width(half.max()) > _MAX_TERMS:
        raise NumericalError(
            f"ncx2 series needs more than {_MAX_TERMS} terms "
            f"(noncentrality/2 up to {mu.max():.6g})"
        )
    total = np.empty_like(mu)
    n_terms = 0
    group = np.ceil(np.log2(half))
    for g in np.unique(group):
        rows = np.flatnonzero(group == g)
        h = int(half[rows].max())
        width = _window_width(h)
        chunk = _MAX_TERMS // width
        for i in range(0, rows.size, chunk):
            r = rows[i : i + chunk]
            total[r], done = _series_window(a, mu[r], y[r], centre[r], h)
            n_terms += r.size * width
            if not done.all():
                r = r[~done]
                total[r], more = _ncx2_series(a, mu[r], y[r], centre[r], 2 * half[r])
                n_terms += more
    return total, n_terms


def _ncx2_terms(a: float, mu: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """``sum_j Pois(j; mu) P(a + j, y)`` for 1-D arrays ``mu, y > 0``;
    returns the sums and the number of terms.

    The largest term is near the Poisson mode ``mu`` where ``P`` is near
    one, else near the root of ``(j + 1)(j + a + 1) = mu y``, where ``P``
    decays like ``y^j / j!``. The first window reaches 8 standard
    deviations of a Poisson law at that point, plus 8 terms, to either
    side.
    """
    with np.errstate(over="ignore"):  # mu y beyond the float range: centre mu
        centre = np.minimum(mu, np.sqrt(mu * y + 0.25 * a * a) - 0.5 * a)
    half = np.ceil(8.0 * np.sqrt(centre + 1.0) + 8.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _ncx2_series(a, mu, y, centre, half)


def _ncx2_scalar(a: float, mu: float, y: float) -> tuple[float, int]:
    """``_ncx2_terms`` for one evaluation. Where the first window would lie
    within the first ``2 _BLOCK`` terms, they are summed one by one from
    ``j = 0`` in Python floats, which costs less than numpy's per-call
    overhead."""
    centre = min(mu, math.sqrt(mu * y + 0.25 * a * a) - 0.5 * a)
    if centre + 8.0 * math.sqrt(centre + 1.0) + 8.0 > 2 * _BLOCK:
        values, n_terms = _ncx2_terms(a, np.array([mu]), np.array([y]))
        return float(values[0]), n_terms
    log_w, log_mu = -mu, math.log(mu)
    total = before = 0.0
    for j in range(2 * _BLOCK):
        if j:
            log_w += log_mu - math.log(j)
        term = math.exp(log_w) * float(gammainc(a + j, y))
        total += term
        if before > term and term * (term / (before - term)) <= _SERIES_TOL * total:
            return total, j + 1
        before = term
    values, n_terms = _ncx2_terms(a, np.array([mu]), np.array([y]))
    return float(values[0]), 2 * _BLOCK + n_terms


def _finite_nonnegative(name: str, value) -> np.ndarray:
    values = np.asarray(value, dtype=float)
    valid = (
        math.isfinite(float(values)) and float(values) >= 0.0
        if values.ndim == 0
        else bool(np.all(np.isfinite(values) & (values >= 0.0)))
    )
    if not valid:
        raise InputValidationError(f"{name} must be finite and >= 0, got {value}")
    return values


def _central_cdf(dof: int, y):
    """Chi-squared CDF at ``x = 2 y``: ``1 - exp(-y)`` for two degrees of
    freedom (as ``max_pc_head_on`` computes the head-on circular Pc)."""
    if dof != 2:
        return gammainc(0.5 * dof, y)
    return -math.expm1(-y) if np.ndim(y) == 0 else -np.expm1(-y)


def ncx2_cdf(dof: int, noncentrality, x):
    """CDF of the noncentral chi-squared distribution.

    ``sum_j Pois(j; noncentrality/2) P(dof/2 + j, x/2)``, with ``P`` the
    regularized lower incomplete gamma function. The terms are log-concave
    in ``j``; they are summed outward from the largest one until the
    geometric bound on the rest is under ``1e-13`` of the total, which
    takes ``O(sqrt(noncentrality) + sqrt(x))`` terms and keeps full relative
    precision far into the lower tail (values down to about ``1e-300``).

    Args:
        dof: degrees of freedom, an integer >= 1.
        noncentrality: noncentrality parameter, >= 0; scalar or array.
        x: evaluation point, >= 0; scalar or array broadcast against
            ``noncentrality``.

    Returns:
        A float for scalar arguments, else an array of the broadcast shape.
    """
    if isinstance(dof, bool) or not (isinstance(dof, (int, np.integer)) and dof >= 1):
        raise InputValidationError(f"dof must be an integer >= 1, got {dof!r}")
    lam = _finite_nonnegative("noncentrality", noncentrality)
    xs = _finite_nonnegative("x", x)
    if lam.ndim == 0 and xs.ndim == 0:
        mu, y = 0.5 * float(lam), 0.5 * float(xs)
        if mu == 0.0 or y == 0.0:
            return float(_central_cdf(dof, y))
        return min(_ncx2_scalar(0.5 * dof, mu, y)[0], 1.0)
    shape = np.broadcast_shapes(lam.shape, xs.shape)
    mu = np.broadcast_to(0.5 * lam, shape).ravel()
    y = np.broadcast_to(0.5 * xs, shape).ravel()
    # the central law, and 0 at x = 0, where the series has a single term
    values = _central_cdf(dof, y)
    rows = (mu > 0.0) & (y > 0.0)
    if np.count_nonzero(rows):
        values[rows] = _ncx2_terms(0.5 * dof, mu[rows], y[rows])[0]
    return np.minimum(values, 1.0).reshape(shape)


def pc_circular(d_over_r: float, s_over_r: float) -> float:
    """Collision probability for the equal-deviation special case.

    With ``s1 == s2`` the probability depends only on the displacement ratio
    ``d_over_r`` and the uncertainty ratio ``s_over_r``; it is the validated
    scalar form of ``pc_circular_batch``.
    """
    if not (d_over_r >= 0.0 and math.isfinite(d_over_r)):
        raise InputValidationError(f"d_over_r must be >= 0, got {d_over_r}")
    if not (s_over_r > 0.0 and math.isfinite(s_over_r)):
        raise InputValidationError(f"s_over_r must be positive, got {s_over_r}")
    return float(pc_circular_batch(d_over_r, s_over_r))


def pc_circular_batch(d_over_r, s_over_r: float) -> np.ndarray:
    """Circular-encounter collision probability over displacement ratios.

    ``ncx2_cdf(2, (d/s)^2, 1/s^2)`` with ``s = s_over_r`` for every ``d`` of
    the array (a 0-d array for a scalar). Raises ``NumericalError`` if
    ``1 / s_over_r^2`` or ``(d_over_r / s_over_r)^2`` overflows.
    """
    d = np.asarray(d_over_r, dtype=float)
    if d.size and (not np.all(np.isfinite(d)) or np.any(d < 0.0)):
        raise InputValidationError("d_over_r values must be finite and >= 0")
    if not (s_over_r > 0.0 and math.isfinite(s_over_r)):
        raise InputValidationError(f"s_over_r must be positive, got {s_over_r}")
    s = float(s_over_r)
    # Python float division gives inf past the float range, not a warning
    x = 1.0 / (s * s) if s * s > 0.0 else math.inf
    ratio = float(d.max(initial=0.0)) / s
    if math.isinf(x) or math.isinf(ratio * ratio):
        name = "1 / s_over_r^2" if math.isinf(x) else "(d_over_r / s_over_r)^2"
        raise NumericalError(f"{name} overflows at s_over_r = {s!r}")
    return np.asarray(ncx2_cdf(2, (d / s) ** 2, x))


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


@dataclass(frozen=True, eq=False)
class DilutionCurve:
    """Collision probability versus uncertainty ratio at fixed displacement.

    ``grid`` is an ascending sequence of ``(s_over_r, pc)`` pairs; the peak
    is refined beyond the grid by golden-section search.
    """

    d_over_r: float
    grid: tuple[tuple[float, float], ...]
    peak_s_over_r: float
    peak_pc: float

    def to_json_dict(self) -> dict:
        return {**vars(self), "grid": [list(point) for point in self.grid]}

    def csv_rows(self) -> list[dict]:
        return [{"s_over_r": s, "pc": p} for s, p in self.grid]


def _golden_section_max(fn, lo: float, hi: float, tol: float) -> float:
    """Abscissa of the maximum of a unimodal ``fn`` on ``[lo, hi]``."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def dilution_curve(
    d_over_r: float,
    s_over_r_min: float,
    s_over_r_max: float,
    n_points: int,
) -> DilutionCurve:
    """Probability-dilution curve over a logarithmic uncertainty-ratio grid.

    The peak is located by a grid scan followed by golden-section refinement
    to ``1e-6`` relative in ``s_over_r``. At zero displacement the curve is
    monotone decreasing and the peak is reported at ``s_over_r_min``.
    ``n_points`` must lie in ``[16, MAX_CURVE_POINTS]``.
    Raises ``NumericalError`` if ``(d_over_r / s_over_r)^2`` or
    ``1 / s_over_r^2`` overflows at ``s_over_r_min``.
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
    if not (d_over_r >= 0.0 and math.isfinite(d_over_r)):
        raise InputValidationError(f"d_over_r must be >= 0, got {d_over_r}")
    s_grid = np.geomspace(s_over_r_min, s_over_r_max, int(n_points))
    with np.errstate(over="ignore", divide="ignore"):
        lam = (d_over_r / s_grid) ** 2
        x = 1.0 / s_grid**2  # 0 where s^2 overflows, the limit 1/s^2 tends to
    if not math.isfinite(lam[0] + x[0]):  # both fall as s_over_r grows
        ratio = "1 / s_over_r^2" if math.isinf(x[0]) else "(d_over_r / s_over_r)^2"
        raise NumericalError(f"{ratio} overflows at s_over_r = {s_over_r_min!r}")
    pc_grid = ncx2_cdf(2, lam, x)
    grid = tuple((float(s), float(p)) for s, p in zip(s_grid, pc_grid))
    imax = int(np.argmax(pc_grid))
    if imax == 0:
        peak_s = float(s_grid[0])
    elif imax == len(s_grid) - 1:
        peak_s = float(s_grid[-1])
    else:
        # refine in log space: absolute log tolerance 1e-6 is relative in s
        log_peak = _golden_section_max(
            lambda t: pc_circular(d_over_r, math.exp(t)),
            math.log(s_grid[imax - 1]),
            math.log(s_grid[imax + 1]),
            1e-6,
        )
        peak_s = math.exp(log_peak)
    return DilutionCurve(
        d_over_r=float(d_over_r),
        grid=grid,
        peak_s_over_r=peak_s,
        peak_pc=pc_circular(d_over_r, peak_s),
    )
