"""Aleatory performance of epistemic collision-probability thresholds.

If tracking data were redrawn, the observed displacement-to-uncertainty
ratio would follow the square root of a noncentral chi-squared law with two
degrees of freedom. Combining that law with the threshold applied to the
computed collision probability gives the real-world rate at which an
impending collision is detected, or missed, as a function of data quality.

Also provides a one-dimensional constructive demonstration that an additive
belief function is guaranteed to assign high belief to a suitably chosen
false proposition, no matter the realized data.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import probability
from . import rng as rngmod
from .errors import InputValidationError, NumericalError
from .ncx2 import ncx2_cdf
from .propositions import Ball, Complement
from .validity import (
    AdditiveGaussianRule,
    gaussian_sampling_model,
    halfwidth_in_sigmas,
    validity_check,
)

#: ``probability`` functions that are also importable from this module. They
#: are read from ``probability`` on each access, and this module calls its
#: kernels through it, so it never keeps a copy of a function that has been
#: replaced there, whichever of the two modules was imported first.
_REEXPORTED = ("dilution_boundary", "pc_circular")


def __getattr__(name: str):
    if name in _REEXPORTED:
        return getattr(probability, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_SEMI_ANALYTIC = "semi-analytic"
_MONTE_CARLO = "monte-carlo"
#: Operational triage thresholds on Pc: conjunctions below the first are
#: ignored, those above the second are treated as high risk.
POLICY_THRESHOLDS = (1e-7, 4.4e-4)


@dataclass(frozen=True, eq=False)
class DetectionCurve:
    """Failure-to-detect probability versus epistemic threshold.

    ``points`` is an ascending-threshold sequence of
    ``(threshold, failure_probability)`` pairs; ``method`` records which
    evaluation path produced it. ``seed`` is set for the Monte Carlo path.
    """

    s_over_r: float
    d_true_over_r: float
    points: tuple[tuple[float, float], ...]
    method: str
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {**vars(self), "points": self.csv_rows()}

    def csv_rows(self) -> list[dict]:
        return [
            {"threshold": t, "detection_rate": 1.0 - f, "failure_probability": f}
            for t, f in self.points
        ]


@dataclass(frozen=True)
class FalseConfidenceReport:
    """Outcome of the additive-belief false-confidence simulation."""

    alpha: float
    p_target: float
    neighborhood_halfwidth: float
    empirical_rate: float
    n_trials: int
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[dict]:
        return [asdict(self)]


#: A batch of at least ``_SWEEP_NODES`` thresholds starts its Newton solve
#: from one Pc sweep at these Chebyshev-Lobatto points on ``[0, 1]``; on the
#: default grid the starts are within 1e-14 of the roots.
_SWEEP_NODES = 25
_SWEEP_X = 0.5 - 0.5 * np.cos(np.pi * np.arange(_SWEEP_NODES) / (_SWEEP_NODES - 1))
#: A swept start that moves by more than this share of itself when every
#: other node is dropped is not used.
_SWEEP_TRUST = 1e-2
#: Radii of the disks inside the combined-radius disk whose mass bounds the
#: smallest swept root from below.
_SUB_RADII = np.linspace(0.25, 8.0, 32)


def _swept_starts(h, h_t: np.ndarray, t_max: float, b: float, s_over_r: float):
    """Newton starts for the critical displacements of thresholds whose
    ``h`` is ``h_t`` and the largest of which is ``t_max``: ``u`` as a
    function of ``h``, interpolated through the pairs of one
    ``pc_circular_batch`` call at the ``_SWEEP_X`` points of an interval
    ``[lo, hi]`` that holds every root.

    ``Pc(u) exp((u - b)^2 / 2)`` falls in ``u``, so beyond ``b``, ``Pc(u) <=
    peak exp(-(u - b)^2 / 2)``: each root is at most its ``b + h_t``, and
    ``hi`` is the largest of these. A disk of radius ``rho <= b`` inside the
    combined-radius one, centred at ``c = b - rho`` on the displacement's
    axis, holds by Jensen's inequality a mass of at least ``m exp(-(u -
    c)^2 / 2)``, ``m = 1 - exp(-rho^2 / 2)``; where ``m > t`` the root is
    beyond ``c + sqrt(2 log(m / t))``. ``rho = b`` gives ``h_t`` itself;
    ``lo`` is the best such bound at ``t_max`` over ``b`` and the
    ``_SUB_RADII``, which are tighter where ``b`` is large. A start stays
    ``b + h_t`` where the swept ``h`` is not finite and increasing, or
    where ``_SWEEP_TRUST`` does not trust it.
    """
    rho = _SUB_RADII[_SUB_RADII < b]
    mass = -np.expm1(-0.5 * rho * rho)
    with np.errstate(invalid="ignore"):  # NaN where a disk holds less than t_max
        floors = b - rho + np.sqrt(2.0 * np.log(mass / t_max))
    lo = np.fmax.reduce(floors, initial=float(h_t.min()))
    bound = b + h_t
    hi = bound.max()
    u = lo + (hi - lo) * _SWEEP_X
    h_u = h(probability.pc_circular_batch(u * s_over_r, s_over_r))
    if not (np.all(np.diff(h_u) > 0.0) and math.isfinite(h_u[-1])):
        return bound
    guess = _barycentric(h_u, u, h_t)
    coarse = _barycentric(h_u[::2], u[::2], h_t)
    # NaN, where h_t is a node, is not trusted either
    trusted = np.abs(guess - coarse) <= _SWEEP_TRUST * guess
    return np.where(trusted, np.clip(guess, lo, hi), bound)


def _barycentric(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The polynomial through the points ``(x, y)``, increasing ``x``, at
    each of ``at``: one matrix product in barycentric form, with weights
    taken on ``x`` scaled to unit width so that they stay in range."""
    gaps = (x[:, None] - x) / (x[-1] - x[0])
    np.fill_diagonal(gaps, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = 1.0 / (gaps.prod(axis=1) * (at[:, None] - x))
        return (c @ y) / c.sum(axis=1)


def critical_displacement(threshold, s_over_r: float):
    """Displacement-to-uncertainty ratio at which each threshold is hit.

    For each threshold returns the unique ``u >= 0`` (``D/S``, the
    displacement in units of the uncertainty) with
    ``pc_circular(u * s_over_r, s_over_r) == threshold``, to ``1e-12``
    relative; ``0.0`` where the threshold equals the head-on maximum, and
    no root where it exceeds it (the encounter is fully diluted and the
    threshold unreachable). A scalar threshold returns a float, or
    ``None`` when unreachable; an array returns an array of its shape,
    with NaN where unreachable.

    All thresholds are solved together by ``probability._falling_root``,
    each step one ``pc_circular_batch`` call over the rows not yet
    converged, on ``h(u) = sqrt(2 (log peak - log Pc(u)))``: beyond ``u = b
    = 1/s_over_r``, ``log Pc`` falls off about like ``log peak - (u -
    b)^2 / 2``, and ``b + h_t``, with ``h_t`` the threshold's ``h``, bounds
    the root from above. Fewer than ``_SWEEP_NODES`` thresholds below the
    peak start there; more start from one sweep of Pc across the roots'
    interval (``_swept_starts``), close enough that on the default grid one
    Newton step ends the solve, two batched calls in all. With ``Pc =
    F_2(u^2)``, where ``F_k`` is ``ncx2_cdf`` as a function of its
    noncentrality ``lam``, the slope is ``dF_k/dlam = (F_{k+2} - F_k) /
    2``; for ``k = 2`` that is the Rice density, ``dPc/du = -b exp(-(u -
    b)^2/2) ive(1, u b)``. Near the peak, and where ``Pc`` is near 1, the
    rounding of ``Pc`` rather than the ``1e-12`` step bounds how well the
    root is known. Raises ``NumericalError`` with the bracket of an
    unconverged row if the solve does not converge.
    """
    from scipy.special import ive

    t = np.asarray(threshold, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    if not np.all(inside):
        bad = float(t[~inside].flat[0])
        raise InputValidationError(f"threshold must be in (0, 1), got {bad}")
    if not (s_over_r > 0.0 and math.isfinite(s_over_r)):
        raise InputValidationError(f"s_over_r must be positive, got {s_over_r}")
    if math.isinf(1.0 / s_over_r / s_over_r):
        raise NumericalError(f"1 / s_over_r^2 overflows at s_over_r = {s_over_r!r}")
    peak = probability.max_pc_head_on(s_over_r)
    flat = t.ravel()
    below_peak = flat < peak * (1.0 - 1e-15)
    u_crit = np.where(below_peak | (flat > peak), math.nan, 0.0)
    b = 1.0 / s_over_r
    t_rows = flat[below_peak]
    # a peak that underflows to 0 leaves no row below it
    log_peak = math.log(peak or 1.0)

    def h(p):
        # sqrt(2 (log peak - log p)), from the exact p - peak near the peak:
        # there log p carries an absolute rounding of up to 16 ulps of p
        with np.errstate(divide="ignore"):
            drop = np.where(p > 0.5 * peak, -np.log1p((p - peak) / peak),
                            log_peak - np.log(p))
        return np.sqrt(np.maximum(2.0 * drop, 0.0))

    def evaluate(u, rows):
        pc = probability.pc_circular_batch(u * s_over_r, s_over_r)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # -dlog(Pc)/du = b exp(-(u - b)^2 / 2) ive(1, u b) / Pc
            log_rate = np.log(b * ive(1, u * b)) - 0.5 * (u - b) ** 2 - np.log(pc)
        return pc >= t_rows[rows], h(pc), log_rate

    h_t = h(t_rows)
    start = b + h_t
    if t_rows.size >= _SWEEP_NODES:
        start = _swept_starts(h, h_t, float(t_rows.max()), b, s_over_r)
    u_crit[below_peak] = probability._falling_root(
        evaluate, h_t, start, 1e-12, "critical displacement", "D/S"
    )
    if t.ndim == 0:
        return None if math.isnan(u_crit[0]) else float(u_crit[0])
    return u_crit.reshape(t.shape)


# sorted by hand: np.unique would import numpy.ma into every command that imports this
_DEFAULT_GRID = np.array(sorted({*np.geomspace(1e-8, 1e-1, 43).tolist(), *POLICY_THRESHOLDS}))


def default_threshold_grid() -> np.ndarray:
    """Log-spaced threshold grid including ``POLICY_THRESHOLDS`` exactly (a
    new array each call)."""
    return _DEFAULT_GRID.copy()


def detection_curve(
    s_over_r: float,
    d_true_over_r: float,
    thresholds=None,
    method: str = _SEMI_ANALYTIC,
    n_trials: int = 10**6,
    seed: int | None = None,
) -> DetectionCurve:
    """Failure-to-detect probability across a grid of thresholds.

    The detection rate at a threshold is the aleatory probability of
    flagging the encounter. ``d_true_over_r`` is the true miss distance over
    the combined radius; values ``<= 1`` describe an impending collision, so
    the rate is then the detection rate and its complement the failure rate.

    Both paths take the critical displacements of the whole grid from one
    array call of ``critical_displacement``; an unreachable threshold (NaN
    there) and one reached only by a head-on estimate (0) have rate 0.
    The semi-analytic path evaluates the noncentral chi-squared CDF at the
    critical displacement of each threshold. The Monte Carlo path redraws
    the estimated displacement from its sampling law and counts the draws at
    or below the critical displacement, which are exactly those whose
    collision probability reaches the threshold; it requires a seed and
    shares one displacement sample across all thresholds, which preserves
    the monotone shape of the curve. A noncentrality
    ``(d_true_over_r / s_over_r)^2`` that overflows raises
    ``NumericalError``.
    """
    thresholds = (
        default_threshold_grid() if thresholds is None
        else np.sort(np.asarray(thresholds, dtype=float))
    )
    if thresholds.size == 0:
        raise InputValidationError("threshold grid is empty")
    if not np.all((thresholds > 0.0) & (thresholds < 1.0)):
        raise InputValidationError("thresholds must lie in (0, 1)")
    if not (s_over_r > 0.0 and math.isfinite(s_over_r)):
        raise InputValidationError(f"s_over_r must be positive, got {s_over_r}")
    if not (d_true_over_r >= 0.0 and math.isfinite(d_true_over_r)):
        raise InputValidationError(
            f"d_true_over_r must be >= 0, got {d_true_over_r}"
        )
    if method not in (_SEMI_ANALYTIC, _MONTE_CARLO):
        raise InputValidationError(
            f"method must be '{_SEMI_ANALYTIC}' or '{_MONTE_CARLO}', got {method!r}"
        )
    if method == _MONTE_CARLO:
        seed = rngmod.validate_seed(seed)
    ratio = d_true_over_r / s_over_r
    if math.isinf(ratio * ratio):
        raise NumericalError(
            f"(d_true_over_r / s_over_r)^2 overflows for d_true_over_r = "
            f"{d_true_over_r!r}, s_over_r = {s_over_r!r}"
        )
    # Pc is strictly decreasing in the displacement, so Pc >= t exactly
    # where D/S <= u_crit(t)
    u_crit = np.nan_to_num(critical_displacement(thresholds, s_over_r))
    if method == _SEMI_ANALYTIC:
        rates = ncx2_cdf(2, ratio**2, u_crit * u_crit)
    else:
        def score(gen, count):
            xi = gen.standard_normal((count, 2))
            d_over_s = np.sort(np.hypot(ratio + xi[:, 0], xi[:, 1]))
            return np.searchsorted(d_over_s, u_crit, side="right")

        rates = rngmod.reduce_blocks(seed, n_trials, score) / n_trials
    points = tuple(
        (float(t), float(1.0 - rate)) for t, rate in zip(thresholds, rates)
    )
    return DetectionCurve(
        s_over_r=float(s_over_r),
        d_true_over_r=float(d_true_over_r),
        points=points,
        method=method,
        seed=int(seed) if method == _MONTE_CARLO else None,
    )


def proof_halfwidth(sigma: float, alpha: float) -> float:
    """Neighborhood halfwidth guaranteeing maximal false confidence.

    For a normal epistemic density with scale ``sigma`` the density supremum
    is ``1 / (sigma sqrt(2 pi))`` for every realization, so a neighborhood
    of total measure ``alpha * sigma * sqrt(2 pi)`` (halfwidth = half that)
    can never receive belief above ``alpha``; its complement, a false
    proposition, then always receives belief at least ``1 - alpha``. The
    halfwidth is computed as ``alpha * sigma * sqrt(pi / 2)``, so that no
    intermediate product overflows before it does.

    Raises:
        NumericalError: if the halfwidth itself overflows, which a ``sigma``
            near the largest float allows.
    """
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise InputValidationError(f"sigma must be positive, got {sigma}")
    if not (0.0 < alpha < 1.0):
        raise InputValidationError(f"alpha must be in (0, 1), got {alpha}")
    halfwidth = alpha * sigma * math.sqrt(math.pi / 2.0)
    if math.isinf(halfwidth):
        raise NumericalError(
            f"proof halfwidth alpha * sigma * sqrt(pi / 2) overflows at "
            f"sigma = {sigma!r}, alpha = {alpha!r}"
        )
    return halfwidth


def false_confidence_demo(
    sigma: float,
    halfwidth: float,
    alpha: float,
    n_trials: int,
    seed: int,
) -> FalseConfidenceReport:
    """One-dimensional additive-belief false-confidence simulation.

    The true parameter is zero. Each trial draws an observation from
    ``normal(0, sigma^2)``, forms the additive epistemic density
    ``normal(x, sigma^2)``, and assigns the proposition "the parameter lies
    outside ``(-halfwidth, halfwidth)``" - a false proposition - its
    epistemic mass. Reported is the fraction of trials assigning that false
    proposition belief at least ``1 - alpha``, together with the analytic
    rate ``p_target`` it should approach.

    This is ``validity_check`` of the additive rule at the level ``alpha``,
    run in units of ``sigma``, so the answer depends on ``halfwidth /
    sigma`` alone; a ratio outside the float range raises
    ``NumericalError``. The rule counts the draws at or beyond its band
    edge ``z*``, where the mass on the neighborhood falls to ``alpha``, and
    ``p_target = erfc(z* / sqrt 2)`` is the normal tail beyond that same
    edge (subnormal for ``z*`` from about 37.5 to 38.5). With ``halfwidth
    <= proof_halfwidth(sigma, alpha)`` the edge is 0 and the rate is
    exactly one: the false proposition is always believed at level
    ``1 - alpha``, and no trial is drawn to say so.
    """
    if not (0.0 < alpha < 1.0):
        raise InputValidationError(f"alpha must be in (0, 1), got {alpha}")
    radius = halfwidth_in_sigmas(halfwidth, sigma)
    rule = AdditiveGaussianRule([[1.0]])
    near = Ball(center=[0.0], radius=radius)
    report = validity_check(
        rule, gaussian_sampling_model([0.0], [[1.0]]), [0.0], [Complement(near)],
        [alpha], n_trials, seed,
    )
    return FalseConfidenceReport(
        alpha=float(alpha),
        p_target=math.erfc(rule._edge(radius, float(alpha)) / math.sqrt(2.0)),
        neighborhood_halfwidth=float(halfwidth),
        empirical_rate=report.rates[0],
        n_trials=report.n_trials,
        seed=report.seed,
    )
