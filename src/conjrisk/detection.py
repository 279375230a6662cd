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
from scipy import special

from . import rng as rngmod
from .errors import InputValidationError, NumericalError
from .probability import max_pc_head_on, ncx2_cdf, pc_circular

#: Most Pc evaluations one critical-displacement solve may take.
_NEWTON_MAX_ITERS = 100
_SEMI_ANALYTIC = "semi-analytic"
_MONTE_CARLO = "monte-carlo"
#: ``special.ndtr(-z)`` is exactly 0 from this ``z`` on.
_NDTR_ZERO = 38.0
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
        return {**asdict(self), "points": self.csv_rows()}

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

    def __post_init__(self):
        if not (0.0 <= self.empirical_rate <= 1.0):
            raise InputValidationError(
                f"empirical_rate must be in [0, 1], got {self.empirical_rate}"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[dict]:
        return [asdict(self)]


def critical_displacement(threshold: float, s_over_r: float) -> float | None:
    """Displacement-to-uncertainty ratio at which the threshold is hit.

    Returns the unique ``u >= 0`` (``D/S``, the displacement in units of the
    uncertainty) with ``pc_circular(u * s_over_r, s_over_r) == threshold``,
    to ``1e-12`` relative. Returns ``None`` when the threshold exceeds the
    head-on maximum, i.e. the encounter is fully diluted and the threshold
    is unreachable, and ``0.0`` when it equals that maximum.

    Solved by safeguarded Newton steps on ``log Pc`` in ``u``, each
    evaluating ``Pc`` through ``pc_circular``. With ``Pc = F_2(u^2)``, where
    ``F_k`` is ``ncx2_cdf`` as a function of its noncentrality ``lam``, the
    slope is ``dF_k/dlam = (F_{k+2} - F_k) / 2``; for ``k = 2`` that is the
    Rice density, ``dPc/du = -b exp(-(u - b)^2/2) ive(1, u b)`` with
    ``b = 1/s_over_r``. ``Pc`` is log-concave in ``u``, so a step from above
    the root stays above it and a step from below crosses it. While no
    point with ``Pc < threshold`` is known, steps are limited to doubling
    ``u``; after, a step that leaves the bracket ``[lo, hi]``
    (``Pc(lo) >= threshold > Pc(hi)``), or one from where ``Pc``
    underflows, is replaced by bisection. Raises ``NumericalError`` with
    the bracket reached if ``_NEWTON_MAX_ITERS`` evaluations do not
    converge.
    """
    if not (0.0 < threshold < 1.0):
        raise InputValidationError(f"threshold must be in (0, 1), got {threshold}")
    if not (s_over_r > 0.0 and math.isfinite(s_over_r)):
        raise InputValidationError(f"s_over_r must be positive, got {s_over_r}")
    if math.isinf(1.0 / s_over_r / s_over_r):
        raise NumericalError(f"1 / s_over_r^2 overflows at s_over_r = {s_over_r!r}")
    peak = max_pc_head_on(s_over_r)
    if threshold > peak:
        return None
    if threshold >= peak * (1.0 - 1e-15):
        return 0.0
    b = 1.0 / s_over_r
    log_threshold = math.log(threshold)
    # beyond u = b, Pc falls off about like peak * exp(-(u - b)^2 / 2)
    u = b + math.sqrt(2.0 * (math.log(peak) - log_threshold))
    lo, hi = 0.0, math.inf
    for _ in range(_NEWTON_MAX_ITERS):
        pc = pc_circular(u * s_over_r, s_over_r)
        if pc >= threshold:
            lo = u
        else:
            hi = u
        nxt = math.nan
        if pc > 0.0:
            # -dlog(Pc)/du = b exp(-(u - b)^2 / 2) ive(1, u b) / Pc
            log_rate = (
                math.log(b * float(special.ive(1, u * b)))
                - 0.5 * (u - b) ** 2
                - math.log(pc)
            )
            nxt = u + (math.log(pc) - log_threshold) * math.exp(min(-log_rate, 700.0))
        if hi == math.inf:
            nxt = min(2.0 * u, nxt)
        elif not lo <= nxt <= hi:  # also catches NaN
            nxt = 0.5 * (lo + hi)
        if abs(nxt - u) <= 1e-12 * nxt:
            return nxt
        u = nxt
    raise NumericalError(
        f"critical displacement did not converge in {_NEWTON_MAX_ITERS} steps: "
        f"the root is bracketed by D/S in [{lo!r}, {hi!r}]"
    )


def _detection_rates(
    thresholds: np.ndarray,
    s_over_r: float,
    d_true_over_r: float,
    method: str,
    n_trials: int,
    seed: int | None,
) -> np.ndarray:
    """Detection rate at each threshold of an array (see ``detection_rate``)."""
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
    lam = ratio**2
    # Pc is strictly decreasing in the displacement, so Pc >= t exactly
    # where D/S <= u_crit(t); an unreachable threshold (None) and one
    # reached only by a head-on estimate (0) have rate 0
    u_crit = np.array([critical_displacement(t, s_over_r) or 0.0 for t in thresholds])
    if method == _SEMI_ANALYTIC:
        return ncx2_cdf(2, lam, u_crit * u_crit)
    hits = np.zeros(thresholds.size, dtype=np.int64)
    for gen, count in rngmod.blocks(seed, n_trials):
        xi = gen.standard_normal((count, 2))
        d_over_s = np.sort(np.hypot(ratio + xi[:, 0], xi[:, 1]))
        hits += np.searchsorted(d_over_s, u_crit, side="right")
    return hits / n_trials


def detection_rate(
    threshold: float,
    s_over_r: float,
    d_true_over_r: float,
    method: str = _SEMI_ANALYTIC,
    n_trials: int = 10**6,
    seed: int | None = None,
) -> float:
    """Aleatory probability of flagging an encounter at the given threshold.

    ``d_true_over_r`` is the true miss distance over the combined radius;
    values ``<= 1`` describe an impending collision, so the returned value is
    then the detection rate and its complement the failure rate.

    The semi-analytic path evaluates the noncentral chi-squared CDF at the
    critical displacement. The Monte Carlo path redraws the estimated
    displacement from its sampling law and counts the draws at or below the
    critical displacement, which are exactly those whose collision
    probability reaches the threshold; it requires a seed. A noncentrality
    ``(d_true_over_r / s_over_r)^2`` that overflows raises
    ``NumericalError``.
    """
    rates = _detection_rates(
        np.array([float(threshold)]), s_over_r, d_true_over_r, method, n_trials, seed
    )
    return float(rates[0])


def default_threshold_grid() -> np.ndarray:
    """Log-spaced threshold grid including ``POLICY_THRESHOLDS`` exactly."""
    grid = np.geomspace(1e-8, 1e-1, 43)
    return np.unique(np.concatenate([grid, POLICY_THRESHOLDS]))


def detection_curve(
    s_over_r: float,
    d_true_over_r: float,
    thresholds=None,
    method: str = _SEMI_ANALYTIC,
    n_trials: int = 10**6,
    seed: int | None = None,
) -> DetectionCurve:
    """Failure-to-detect probability across a grid of thresholds.

    The Monte Carlo path shares one displacement sample across all
    thresholds, which preserves the monotone shape of the curve.
    """
    thresholds = (
        default_threshold_grid() if thresholds is None
        else np.sort(np.asarray(thresholds, dtype=float))
    )
    if thresholds.size == 0:
        raise InputValidationError("threshold grid is empty")
    rates = _detection_rates(
        thresholds, s_over_r, d_true_over_r, method, n_trials, seed
    )
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


def dilution_boundary(threshold: float) -> float:
    """Uncertainty ratio beyond which the threshold is unreachable.

    Solves ``max_pc_head_on(s) == threshold`` in closed form:
    ``s = (-2 ln(1 - threshold))^(-1/2)``. The detection rate is exactly
    zero for ``s_over_r`` above the returned value and positive below it.
    """
    if not (0.0 < threshold < 1.0):
        raise InputValidationError(f"threshold must be in (0, 1), got {threshold}")
    return 1.0 / math.sqrt(-2.0 * math.log1p(-threshold))


def proof_halfwidth(sigma: float, alpha: float) -> float:
    """Neighborhood halfwidth guaranteeing maximal false confidence.

    For a normal epistemic density with scale ``sigma`` the density supremum
    is ``1 / (sigma sqrt(2 pi))`` for every realization, so a neighborhood
    of total measure ``alpha * sigma * sqrt(2 pi)`` (halfwidth = half that)
    can never receive belief above ``alpha``; its complement, a false
    proposition, then always receives belief at least ``1 - alpha``.
    """
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise InputValidationError(f"sigma must be positive, got {sigma}")
    if not (0.0 < alpha < 1.0):
        raise InputValidationError(f"alpha must be in (0, 1), got {alpha}")
    return alpha * sigma * math.sqrt(2.0 * math.pi) / 2.0


def _interval_belief(x: np.ndarray, halfwidth: float, sigma: float) -> np.ndarray:
    """Normal(x, sigma^2) mass of the interval (-halfwidth, halfwidth)."""
    with np.errstate(over="ignore"):  # ndtr(+-inf) is the exact limit
        upper, lower = (halfwidth - x) / sigma, (-halfwidth - x) / sigma
    return special.ndtr(upper) - special.ndtr(lower)


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

    With ``halfwidth <= proof_halfwidth(sigma, alpha)`` the rate is exactly
    one: the false proposition is always believed at level ``1 - alpha``.
    """
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise InputValidationError(f"sigma must be positive, got {sigma}")
    if not (halfwidth > 0.0 and math.isfinite(halfwidth)):
        raise InputValidationError(f"halfwidth must be positive, got {halfwidth}")
    if not (0.0 < alpha < 1.0):
        raise InputValidationError(f"alpha must be in (0, 1), got {alpha}")
    if n_trials < 10**3:
        raise InputValidationError(f"n_trials must be >= 1000, got {n_trials}")
    seed = rngmod.validate_seed(seed)

    hits = 0
    for gen, count in rngmod.blocks(seed, n_trials):
        x = sigma * gen.standard_normal(count)
        belief_outside = 1.0 - _interval_belief(x, halfwidth, sigma)
        hits += int(np.count_nonzero(belief_outside >= 1.0 - alpha))

    # analytic rate: interval mass decreases in |x|, so threshold-crossing
    # happens outside a band |x| >= x_star
    max_mass = float(_interval_belief(np.array(0.0), halfwidth, sigma))
    if max_mass <= alpha:
        p_target = 1.0
    elif float(_interval_belief(np.array(_NDTR_ZERO * sigma), halfwidth, sigma)) > alpha:
        # x_star lies beyond _NDTR_ZERO sigmas, where 2 ndtr(-x_star/sigma) is 0
        p_target = 0.0
    else:
        from scipy import optimize  # imported on first use: slow to import

        x_star = optimize.brentq(
            lambda x: float(_interval_belief(np.array(x), halfwidth, sigma)) - alpha,
            0.0,
            halfwidth + sigma * 50.0,
            xtol=1e-14,
            rtol=8.9e-16,
        )
        p_target = 2.0 * float(special.ndtr(-x_star / sigma))

    return FalseConfidenceReport(
        alpha=float(alpha),
        p_target=p_target,
        neighborhood_halfwidth=float(halfwidth),
        empirical_rate=hits / n_trials,
        n_trials=int(n_trials),
        seed=seed,
    )
