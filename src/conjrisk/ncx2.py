"""Noncentral chi-squared CDF by its Poisson series.

``ncx2_cdf(dof, lam, x)`` is ``sum_j Pois(j; lam/2) P(dof/2 + j, x/2)``
with ``P`` the regularized lower incomplete gamma function. For a circular
encounter it is the exact collision probability, one minus a Marcum Q
function. The terms are log-concave in ``j`` and are summed outward from
the largest one, which keeps full relative precision in the far tail at a
cost that grows like the square roots of the arguments.

The series is the package's only user of ``scipy.special`` on the
collision probability path (for ``gammainc``). Its functions import it when
they run, so that importing this module, as ``detection`` and ``validity``
do, loads numpy alone, and ``false-confidence`` and ``validity --rule
additive`` start without scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputValidationError, NumericalError

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
    from scipy.special import gammaln, xlog1py, xlogy

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
    from scipy.special import gammainc

    x = a + (blocks[..., None] * _BLOCK + np.arange(_BLOCK))
    y_col = np.asarray(y)[..., None]
    g = _poisson_blocks(x, y_col)
    down = gammainc(x[..., -1:] + 1.0, y_col) + np.cumsum(g[..., ::-1], axis=-1)[..., ::-1]
    up = gammainc(x[..., :1], y_col) - (np.cumsum(g, axis=-1) - g)
    return np.where((x < y_col) | _FIRST_OF_BLOCK, up, down)


def _window_width(centre, half) -> int:
    """Terms per row in the whole blocks that cover
    ``centre - half <= j < centre + half`` in every row, the first block
    clipped at ``j = 0``: the widest row's blocks, so that a window clipped
    at ``j = 0`` (small ``mu`` and ``y``) costs only the blocks it touches."""
    first = np.maximum(np.floor((centre - half) / _BLOCK), 0.0)
    return int((np.ceil((centre + half) / _BLOCK) - first).max()) * _BLOCK


def _series_window(a: float, mu: np.ndarray, y: np.ndarray, centre, half: int):
    """Sum ``Pois(j; mu) P(a + j, y)`` from the whole block holding
    ``j = centre - half`` (or from ``j = 0``) over ``_window_width`` terms in
    each row, so that every row covers ``centre - half <= j < centre + half``.
    Returns the sums, per row whether the geometric bound on the terms left
    out on either side is within ``_SERIES_TOL`` of the sum, and the number
    of terms evaluated.
    """
    first = np.maximum(np.floor((centre - half) / _BLOCK), 0.0)
    blocks = first[:, None] + np.arange(_window_width(centre, half) // _BLOCK)
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
    return total, bounded.all(axis=1), terms.size


def _ncx2_series(a: float, mu: np.ndarray, y: np.ndarray, centre, half):
    """``_series_window`` over all rows, each with at least its own
    ``half``: rows whose windows are within a factor of two of each other
    share one, in chunks sized so that each holds at most ``_MAX_TERMS``
    terms, and rows whose tail bound is not met are evaluated again with
    twice the window. Returns the sums and the number of terms evaluated.
    """
    # no window takes more than ceil(2 half / 64) + 1 blocks
    if (-(-2 * int(half.max()) // _BLOCK) + 1) * _BLOCK > _MAX_TERMS:
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
        chunk = _MAX_TERMS // _window_width(centre[rows], h)
        for i in range(0, rows.size, chunk):
            r = rows[i : i + chunk]
            total[r], done, evaluated = _series_window(a, mu[r], y[r], centre[r], h)
            n_terms += evaluated
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


def _finite_nonnegative(name: str, value) -> np.ndarray:
    values = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(values) & (values >= 0.0)):
        raise InputValidationError(f"{name} must be finite and >= 0, got {value}")
    return values


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
    from scipy.special import gammainc

    if isinstance(dof, bool) or not (isinstance(dof, (int, np.integer)) and dof >= 1):
        raise InputValidationError(f"dof must be an integer >= 1, got {dof!r}")
    lam = _finite_nonnegative("noncentrality", noncentrality)
    xs = _finite_nonnegative("x", x)
    shape = np.broadcast_shapes(lam.shape, xs.shape)
    mu = np.broadcast_to(0.5 * lam, shape).ravel()
    y = np.broadcast_to(0.5 * xs, shape).ravel()
    # the central law (1 - exp(-y) for two degrees of freedom, as
    # max_pc_head_on computes the head-on circular Pc), and 0 at x = 0,
    # where the series has a single term
    values = -np.expm1(-y) if dof == 2 else gammainc(0.5 * dof, y)
    rows = (mu > 0.0) & (y > 0.0)
    if np.count_nonzero(rows):
        values[rows] = _ncx2_terms(0.5 * dof, mu[rows], y[rows])[0]
    values = np.minimum(values, 1.0).reshape(shape)
    return float(values) if shape == () else values
