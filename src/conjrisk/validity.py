"""Belief assignment by confidence regions and empirical validity testing.

A belief rule gives one number per data realization and proposition. The
Martin-Liu validity criterion asks that, for every false proposition and
every level ``alpha`` at once, belief reach ``1 - alpha`` with probability
at most ``alpha``. The K-sigma rule's belief, the coverage of the largest
confidence ellipsoid inside the proposition, is consonant and, by the
coverage property, valid.

The harness in this module tests that criterion empirically for arbitrary
belief rules: simulate data at a known truth, count each block's
realizations whose belief in each false proposition of a family reaches
``1 - alpha``, with one call of the rule per block and proposition, and
compare the observed rates against every level of a grid. Additive rules
(posterior mass) fail the test spectacularly for suitably small excluded
neighborhoods; confidence-region rules pass. The paper's 1-D experiment
has one home, ``interval_validity_check``, which the CLI and
``detection.false_confidence_demo`` both run.

Only ``ConfidenceRegionRule.belief`` and some of the additive masses need
``scipy.special``, and they import it when they run: ``validity --rule
additive`` and ``false-confidence`` start without scipy.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import probability
from . import rng as rngmod
from .ellipsoids import Ellipsoid, build_ellipsoid, row_product
from .errors import InputValidationError, NumericalError, UnsupportedPropositionError
from .geometry import covariance_eigh
from .ncx2 import ncx2_cdf
from .propositions import (
    Ball,
    Complement,
    FullSpace,
    HalfSpace,
    Proposition,
    contains_point,
    contains_region,
    depth,
    intersects_region,
)


def region_belief(
    region: Ellipsoid | Ball, alpha: float, proposition: Proposition
) -> tuple[float, float]:
    """Belief and plausibility a confidence region assigns to a proposition.

    Belief is ``1 - alpha`` when the proposition contains the region and
    zero otherwise; plausibility is one when the proposition meets the
    region and ``alpha`` otherwise. Consonance holds by construction:
    positive belief implies plausibility one.

    Raises:
        UnsupportedPropositionError: for a descriptor outside the
            proposition algebra.
    """
    if not (0.0 <= alpha <= 1.0):
        raise InputValidationError(f"alpha must be in [0, 1], got {alpha}")
    if isinstance(region, Ball):
        region = region.ellipsoid
    belief = 1.0 - alpha if contains_region(proposition, region) else 0.0
    plausibility = 1.0 if intersects_region(proposition, region) else alpha
    return belief, plausibility


class BeliefRule(ABC):
    """A data-conditional belief assignment: one number per realization and
    proposition, tested against every level at once.

    A rule scores a whole block of realizations per call. ``hits`` counts
    the rows whose belief reaches each level; a rule that can decide that
    without evaluating every belief overrides it, and ``belief`` stays the
    reference it must agree with. ``plausibility`` is derived from belief
    of the complement, so the complementarity identity holds for every rule
    by construction.
    """

    @abstractmethod
    def belief(self, xs: np.ndarray, proposition: Proposition) -> np.ndarray:
        """Belief in the proposition given each row of ``xs``, an ``(n, dim)``
        block of data realizations; an ``(n,)`` array."""

    def hits(self, xs: np.ndarray, proposition: Proposition, alphas: np.ndarray) -> np.ndarray:
        """For each level of ``alphas``, how many rows of ``xs`` give the
        proposition belief ``>= 1 - alpha``; an integer array of the shape of
        ``alphas``.

        Raises:
            InputValidationError: if ``belief`` does not return one number
                per row.
        """
        beliefs = np.asarray(self.belief(xs, proposition))
        if beliefs.shape != (len(xs),):
            raise InputValidationError(
                "rule.belief must return one belief per realization of the block"
            )
        return np.count_nonzero(beliefs >= 1.0 - alphas[:, None], axis=1)

    def counts_every_row(self, proposition: Proposition, alphas: np.ndarray) -> bool:
        """Whether ``hits`` counts every row at every level of ``alphas``
        whatever the (non-NaN) data, so that no block need be drawn. The
        default does not tell."""
        return False

    def plausibility(self, xs: np.ndarray, proposition: Proposition) -> np.ndarray:
        return 1.0 - self.belief(xs, Complement(proposition))


class ConfidenceRegionRule(BeliefRule):
    """Belief rule of the nested K-sigma ellipsoids of a Gaussian estimator.

    Belief is the coverage ``P(d/2, k**2 / 2)`` of the largest ellipsoid
    about the estimate inside the proposition, ``k`` its ``depth`` about
    the unit ellipsoid: it reaches ``1 - alpha`` exactly when the
    level-``alpha`` region lies inside. The covariance is validated and
    decomposed once, here; a block of realizations moves the unit
    ellipsoid's shape to every estimate at once, and is decided by array
    operations with one SVD per proposition.
    """

    def __init__(self, cov):
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        self._unit = build_ellipsoid(np.zeros(cov.shape[0]), cov, 1.0)

    def belief(self, xs, proposition):
        from scipy.special import gammainc

        k = depth(proposition, self._unit, xs)
        return gammainc(self._unit.dim / 2.0, 0.5 * k * k)


def gaussian_region_rule(cov) -> ConfidenceRegionRule:
    """Confidence-region rule for a Gaussian estimator with known covariance."""
    return ConfidenceRegionRule(cov)


def _definite_covariance(cov) -> np.ndarray:
    """``cov`` validated as a finite, symmetric, positive-definite matrix.

    A zero eigenvalue (a variance that underflowed, say) leaves the Gaussian
    degenerate, so it is an input error like a non-finite entry.
    """
    cov, eigvals, _ = covariance_eigh(np.atleast_2d(np.asarray(cov, dtype=float)))
    if eigvals[0] <= 0.0:
        raise InputValidationError(
            f"covariance is not positive definite (eigenvalue {eigvals[0]:.6e})"
        )
    return cov


#: ``sqrt(pi / 2)`` to 50 digits.
_SQRT_HALF_PI = "1.253314137315500251207882642405522626503493370305"


def _peak_excess(w: float, alpha: float) -> tuple[float, float]:
    """``P / alpha - 1`` and ``kappa = 2 w phi(w) / P``, the curvature of
    ``-log P(|Z - z| <= w)`` at ``z = 0``, for ``P = P(|Z| <= w)``, ``0 <=
    w <= 1/sqrt 2`` and ``alpha > 0``: from ``P = sqrt(2/pi) w S``, ``S =
    sum_n (-w^2/2)^n / (n! (2n + 1))`` summed at 50 digits, so that the
    excess keeps its digits however close ``P`` is to ``alpha``."""
    from decimal import Context, Decimal, localcontext  # 1.4 ms to import

    with localcontext(Context(prec=50)):
        x = +Decimal(w)
        q = -x * x / 2
        term = total = Decimal(1)
        n, end = 0, Decimal("1e-50")
        while abs(term) > end:
            n += 1
            term *= q / n
            total += term / (2 * n + 1)
        excess = float(x * total / (Decimal(alpha) * Decimal(_SQRT_HALF_PI)) - 1)
    return excess, math.exp(-0.5 * w * w) / float(total)


def _band_edge(w: float, alpha: float) -> float:
    """The band edge ``z*``: the distance of an observation ``z`` from the
    centre of ``[-w, w]`` at which the unit normal about it puts mass
    ``alpha`` on the interval, for a finite ``w``. It is 0 where that mass
    is ``<= alpha`` already at ``z = 0``, and infinite at ``alpha = 0``,
    where the mass stays above ``alpha`` at every finite ``z``.

    It is the 1-D critical displacement, and ``probability._falling_root``
    solves for it from ``w + h_t`` to ``1e-15`` relative, raising
    ``NumericalError`` with the bracket if it does not converge. The mass
    comes from ``probability._log_interval_mass``, free of cancellation, and
    the step variable ``h`` is formed from log masses, so the edge holds
    down to ``alpha = 5e-324``; ``-dlog mass/dz`` is ``phi(z - w) (1 -
    exp(-2 z w)) / mass``.

    The float logs of the mass at ``z = 0`` and of ``alpha`` are off by up
    to 1e-13 (near ``alpha = 1e-300``). Where their ``gap`` is within 1e-9
    of 0 and ``w <= 1/sqrt 2``, ``_peak_excess`` decides if the edge is 0,
    and a positive edge is ``sqrt(2 log(1 + excess) / kappa)``, where the
    log mass's first, quadratic fall meets ``alpha``: to about ``z*^2``
    relative.
    """
    if alpha == 0.0:
        return math.inf if w > 0.0 else 0.0
    band = np.array([w])
    log_alpha = math.log(alpha)
    with np.errstate(divide="ignore"):  # w underflowed to 0: log mass -inf
        log_peak = float(probability._log_interval_mass(0.0, band)[0])
    gap = log_peak - log_alpha
    if abs(gap) <= 1e-9 and w * w <= 0.5:
        excess, kappa = _peak_excess(w, alpha)
        return math.sqrt(2.0 * math.log1p(excess) / kappa) if excess > 0.0 else 0.0
    if gap <= 0.0:
        return 0.0

    def evaluate(z, rows):
        log_mass = probability._log_interval_mass(z, band)
        with np.errstate(divide="ignore", over="ignore"):
            log_rate = (np.log(-np.expm1(-2.0 * z * w)) - 0.5 * (z - w) ** 2
                        - probability._HALF_LOG_2PI - log_mass)
        h = np.sqrt(np.maximum(2.0 * (log_peak - log_mass), 0.0))
        return log_mass >= log_alpha, h, log_rate

    h_t = np.array([math.sqrt(2.0 * gap)])
    return float(probability._falling_root(evaluate, h_t, w + h_t, 1e-15, "band edge", "z")[0])


class AdditiveGaussianRule(BeliefRule):
    """Additive epistemic rule: belief is the posterior Gaussian mass.

    Supports full space, half-spaces (any covariance), balls under isotropic
    covariance, and complements thereof. Mass of other shapes is not
    implemented and raises an unsupported-shape error.

    ``hits`` decides the complement of a one-dimensional ball at its band
    edge instead of from the masses; the edge of each radius and level is
    solved once per rule, by ``counts_every_row``, before ``validity_check``
    shares any block out, so blocks scored at once only read it.
    """

    def __init__(self, cov):
        cov = _definite_covariance(cov)
        self.cov = cov
        self.dim = cov.shape[0]
        diag = np.diag(cov)
        # relative to the variance, so that c * cov gets the verdict of cov
        tol = 1e-15 * diag.max()
        isotropic = np.ptp(diag) <= tol and np.all(np.abs(cov - np.diag(diag)) <= tol)
        self._isotropic_var = float(diag[0]) if isotropic else None
        self._edges: dict[tuple[float, float], float] = {}

    def belief(self, xs, proposition):
        return self._mass(np.asarray(xs, dtype=float), proposition)

    def hits(self, xs, proposition, alphas):
        """Per level, the rows that believe the proposition at ``1 - alpha``.

        On the complement of a 1-D ball of centre ``c`` and radius ``r``
        that is ``|x - c| >= sigma z*``: the ball's mass falls as the
        estimate ``x`` moves away from ``c``, and reaches ``alpha`` at the
        band edge ``z* = _band_edge(r / sigma, alpha)``. At ``alpha = 0``
        the edge is infinite and no estimate counts, where ``1 - mass``
        rounds to 1 once the mass is below ``2^-54`` (beyond 7.8 deviations
        for ``r >= 1e-3 sigma``). Every other proposition, and a radius
        beyond ``1.8e308`` sigma, is counted from ``belief``.
        """
        edges = self._band_edges(proposition, alphas)
        if edges is None:
            return super().hits(xs, proposition, alphas)
        # a temporary of its own: the caller scores this block again
        dist = np.subtract(np.asarray(xs, dtype=float)[:, 0], proposition.inner.center[0])
        np.abs(dist, out=dist)
        return np.count_nonzero(dist >= math.sqrt(self._isotropic_var) * edges[:, None], axis=1)

    def counts_every_row(self, proposition, alphas):
        """True where every band edge is 0, as within the proof halfwidth
        of the smallest level: ``hits`` then counts ``|x - c| >= 0``, which
        every non-NaN row meets."""
        edges = self._band_edges(proposition, alphas)
        return edges is not None and not edges.any()

    def _band_edges(self, proposition, alphas):
        """The band edge of each level on the complement of a 1-D ball of
        finite radius in sigmas; None where only belief decides."""
        if not (self.dim == 1 and isinstance(proposition, Complement)
                and isinstance(proposition.inner, Ball)):
            return None
        w = proposition.inner.radius / math.sqrt(self._isotropic_var)
        if not math.isfinite(w):  # only belief's (r - |x - c|) / sigma decides
            return None
        return np.array([self.band_edge(w, float(a)) for a in alphas])

    def band_edge(self, w: float, alpha: float) -> float:
        """The band edge ``z*`` of a ball of radius ``w`` sigmas at level
        ``alpha``, in sigmas: ``_band_edge(w, alpha)``, solved on this
        rule's first call only; unlocked, since ``validity_check`` solves
        every edge before it shares blocks out."""
        key = (w, alpha)
        if key not in self._edges:
            self._edges[key] = _band_edge(w, alpha)
        return self._edges[key]

    def _mass(self, xs: np.ndarray, prop: Proposition) -> np.ndarray:
        if isinstance(prop, FullSpace):
            return np.ones(xs.shape[0])
        if isinstance(prop, Complement):
            return 1.0 - self._mass(xs, prop.inner)
        if isinstance(prop, HalfSpace):
            from scipy.special import ndtr

            spread = math.sqrt(float(prop.normal @ self.cov @ prop.normal))
            return ndtr((prop.offset - row_product(xs, prop.normal)) / spread)
        if isinstance(prop, Ball):
            if self._isotropic_var is None:
                raise UnsupportedPropositionError(
                    "ball mass implemented only for isotropic covariance"
                )
            sigma = math.sqrt(self._isotropic_var)
            if self.dim == 1:  # an interval: P(|Z - m| <= w), as hits decides it
                d = np.abs(xs[:, 0] - prop.center[0])
                w = prop.radius / sigma
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    if math.isinf(w):  # only Phi((r - d) / sigma) can fall short of 1
                        return np.exp(probability.log_ndtr((prop.radius - d) / sigma))
                    m = d / sigma
                    mass = np.exp(probability._log_interval_mass(m, np.full_like(m, w)))
                # both log tails are -inf (a NaN) only where the mass is 0
                return np.where(m - w > 1e154, 0.0, mass)
            shift = np.linalg.norm(xs - prop.center, axis=1) / sigma
            try:
                reach = (prop.radius / sigma) ** 2
            except OverflowError:  # radius over 1e154 sigma: a half-space's mass
                from scipy.special import ndtr

                return ndtr(prop.radius / sigma - shift)
            return ncx2_cdf(self.dim, shift * shift, reach)
        raise UnsupportedPropositionError(
            f"Gaussian mass not implemented for {type(prop).__name__}"
        )


@dataclass(frozen=True)
class ValidityReport:
    """Per-level empirical rates of high belief on false propositions.

    ``rates[i]`` is the worst rate across the proposition family at
    ``alpha_grid[i]``; the verdict passes when the rate stays within three
    binomial standard errors of the level.
    """

    alpha_grid: tuple[float, ...]
    rates: tuple[float, ...]
    stderrs: tuple[float, ...]
    verdicts: tuple[str, ...]
    n_trials: int
    seed: int
    worst_alpha: float
    worst_proposition_index: int

    def passed(self) -> bool:
        return all(v == "pass" for v in self.verdicts)

    def to_json_dict(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "seed": self.seed,
            "worst_alpha": self.worst_alpha,
            "worst_proposition_index": self.worst_proposition_index,
            "levels": self.csv_rows(),
        }

    def csv_rows(self) -> list[dict]:
        return [
            {"alpha": a, "rate": r, "stderr": s, "verdict": v}
            for a, r, s, v in zip(
                self.alpha_grid, self.rates, self.stderrs, self.verdicts
            )
        ]


def validity_check(
    rule: BeliefRule,
    sampling_model: Callable[[np.random.Generator, int], np.ndarray],
    theta_true,
    proposition_family: Sequence[Proposition],
    alpha_grid: Sequence[float],
    n_trials: int,
    seed: int,
) -> ValidityReport:
    """Empirically test a belief rule against the validity criterion.

    Simulates blocks of data realizations at the true parameter, counts
    with one ``rule.hits`` call per block and (false) proposition how many
    realizations give it belief ``>= 1 - alpha`` at each level of the grid,
    and records the rates. A valid rule keeps every such rate at or below
    its level.

    The blocks are scored by ``rng.reduce_blocks``, on every available
    core, so ``rule.hits`` and ``sampling_model`` may run on several blocks
    at once: a rule or model must not mutate shared state. The rates are
    the same for any core count. Every proposition is first asked
    ``rule.counts_every_row``, in the calling thread; when each says yes,
    every rate is exactly 1, no block is drawn, and ``sampling_model`` is
    neither called nor has its output shape checked.

    Args:
        rule: belief rule under test.
        sampling_model: callable ``(generator, n) -> (n, dim)`` array of
            data realizations drawn at the true parameter.
        theta_true: true parameter value; every proposition must exclude it.
        proposition_family: false propositions to monitor.
        alpha_grid: levels to test, each in ``[0, 1]``.
        n_trials: simulation size, at least 1000.
        seed: stream seed; trials are split over fixed-size substream blocks.

    Raises:
        InputValidationError: if a proposition contains the true parameter
            (the criterion quantifies over false propositions only), or if
            the sampling model or the rule's beliefs have the wrong shape.
    """
    theta_true = np.atleast_1d(np.asarray(theta_true, dtype=float))
    alphas = [float(a) for a in alpha_grid]
    if n_trials < 10**3:
        raise InputValidationError(f"n_trials must be >= 1000, got {n_trials}")
    seed = rngmod.validate_seed(seed)
    if not alphas:
        raise InputValidationError("alpha_grid is empty")
    for a in alphas:
        if not (0.0 <= a <= 1.0):
            raise InputValidationError(f"alpha must be in [0, 1], got {a}")
    props = list(proposition_family)
    if not props:
        raise InputValidationError("proposition_family is empty")
    for idx, prop in enumerate(props):
        if contains_point(prop, theta_true):
            raise InputValidationError(
                f"proposition {idx} contains the true parameter; the "
                "validity criterion quantifies over false propositions only"
            )

    levels = np.array(alphas)

    def score(gen, count):
        xs = np.asarray(sampling_model(gen, count), dtype=float)
        if xs.shape[0] != count:
            raise InputValidationError(
                "sampling_model returned wrong number of realizations"
            )
        return np.stack([rule.hits(xs, prop, levels) for prop in props], axis=1)

    # a list, so that every proposition is asked: no band edge is then left
    # for blocks scored at once to solve
    if all([rule.counts_every_row(prop, levels) for prop in props]):
        hits = np.full((len(alphas), len(props)), n_trials)
    else:
        hits = rngmod.reduce_blocks(seed, n_trials, score)
    rate_matrix = hits / n_trials
    worst_per_alpha = rate_matrix.max(axis=1)
    excess = rate_matrix - np.asarray(alphas)[:, None]
    worst_flat = int(np.argmax(excess))
    worst_ia, worst_ip = divmod(worst_flat, len(props))

    rates, stderrs, verdicts = [], [], []
    for alpha, rate in zip(alphas, worst_per_alpha):
        stderr = math.sqrt(rate * (1.0 - rate) / n_trials)
        rates.append(float(rate))
        stderrs.append(stderr)
        verdicts.append("pass" if rate <= alpha + 3.0 * stderr else "fail")
    return ValidityReport(
        alpha_grid=tuple(alphas),
        rates=tuple(rates),
        stderrs=tuple(stderrs),
        verdicts=tuple(verdicts),
        n_trials=int(n_trials),
        seed=seed,
        worst_alpha=alphas[worst_ia],
        worst_proposition_index=worst_ip,
    )


def gaussian_sampling_model(theta_true, cov):
    """Sampling model drawing estimates from ``normal(theta_true, cov)``."""
    theta_true = np.atleast_1d(np.asarray(theta_true, dtype=float))
    chol = np.linalg.cholesky(_definite_covariance(cov))

    def draw(gen: np.random.Generator, n: int) -> np.ndarray:
        z = gen.standard_normal((n, theta_true.size))
        if theta_true.size > 1:
            return theta_true + np.dot(z, chol.T)
        # one column: the product with ``chol`` is one multiply per draw, so
        # scaling in place gives np.dot's bits without its threaded BLAS call
        z *= chol[0, 0]
        z += theta_true
        return z

    return draw


def interval_validity_check(
    rule: BeliefRule, halfwidth: float, sigma: float, alpha_grid: Sequence[float],
    n_trials: int, seed: int,
) -> ValidityReport:
    """The paper's 1-D experiment: ``validity_check`` of ``rule``, built on
    ``[[1.0]]``, on estimates from ``normal(0, sigma^2)`` at the truth 0 for
    the false proposition ``|theta| > halfwidth``, run in units of
    ``sigma``. ``alpha_grid`` is read after the halfwidth is checked.

    Raises:
        InputValidationError: if ``sigma`` or ``halfwidth`` is not positive
            and finite, or as ``validity_check`` raises.
        NumericalError: if ``halfwidth / sigma`` overflows or underflows to 0.
    """
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise InputValidationError(f"sigma must be positive, got {sigma}")
    if not (halfwidth > 0.0 and math.isfinite(halfwidth)):
        raise InputValidationError(f"halfwidth must be positive, got {halfwidth}")
    ratio = halfwidth / sigma
    if ratio == 0.0 or math.isinf(ratio):
        fate = "overflows" if ratio else "underflows to 0"
        raise NumericalError(
            f"halfwidth / sigma {fate} at halfwidth = {halfwidth!r}, sigma = {sigma!r}"
        )
    return validity_check(
        rule, gaussian_sampling_model([0.0], [[1.0]]), [0.0],
        [Complement(Ball([0.0], ratio))], alpha_grid, n_trials, seed,
    )
