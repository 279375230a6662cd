"""Belief assignment by confidence regions and empirical validity testing.

A belief rule gives one number per data realization and proposition. The
Martin-Liu validity criterion asks that, for every false proposition and
every level ``alpha`` at once, belief reach ``1 - alpha`` with probability
at most ``alpha``. The K-sigma rule's belief, the coverage of the largest
confidence ellipsoid inside the proposition, is consonant and, by the
coverage property, valid.

The harness in this module tests that criterion empirically for arbitrary
belief rules: simulate data at a known truth, evaluate the rule once per
realization on a family of false propositions, and compare the observed
rates of belief ``>= 1 - alpha`` against every level of a grid. Additive
rules (posterior mass) fail the test spectacularly for suitably small
excluded neighborhoods; confidence-region rules pass.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import rng as rngmod
from .ellipsoids import Ellipsoid, build_ellipsoid
from .errors import InputValidationError, UnsupportedPropositionError
from .geometry import covariance_eigh
from .probability import ncx2_cdf
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

    ``plausibility`` is derived from belief of the complement, so the
    complementarity identity holds for every rule by construction.
    """

    @abstractmethod
    def belief(self, x: np.ndarray, proposition: Proposition) -> float:
        """Belief in the proposition given data realization ``x``."""

    def plausibility(self, x: np.ndarray, proposition: Proposition) -> float:
        return 1.0 - self.belief(x, Complement(proposition))


class ConfidenceRegionRule(BeliefRule):
    """Belief rule of the nested K-sigma ellipsoids of a Gaussian estimator.

    Belief is the coverage ``P(d/2, k**2 / 2)`` of the largest ellipsoid
    about the estimate inside the proposition, ``k`` its ``depth`` about
    the unit ellipsoid: it reaches ``1 - alpha`` exactly when the
    level-``alpha`` region lies inside. The covariance is validated and
    decomposed once, here; each trial only moves the unit ellipsoid.
    """

    def __init__(self, cov):
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        self._unit = build_ellipsoid(np.zeros(cov.shape[0]), cov, 1.0)

    def belief(self, x, proposition):
        unit = self._unit
        region = Ellipsoid(np.asarray(x, dtype=float), unit.axes, unit.semi_lengths)
        k = depth(proposition, region)
        return float(special.gammainc(unit.dim / 2.0, 0.5 * k * k))


def ksigma_for_level(alpha: float, dim: int) -> float:
    """Sigma multiple whose ellipsoid has coverage ``1 - alpha``."""
    if not (0.0 < alpha < 1.0):
        raise InputValidationError(f"alpha must be in (0, 1), got {alpha}")
    return math.sqrt(2.0 * float(special.gammaincinv(dim / 2.0, 1.0 - alpha)))


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


class AdditiveGaussianRule(BeliefRule):
    """Additive epistemic rule: belief is the posterior Gaussian mass.

    Supports full space, half-spaces (any covariance), balls under isotropic
    covariance, and complements thereof. Mass of other shapes is not
    implemented and raises an unsupported-shape error.
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

    def belief(self, x, proposition):
        return self._mass(np.atleast_1d(np.asarray(x, dtype=float)), proposition)

    def _mass(self, x: np.ndarray, prop: Proposition) -> float:
        if isinstance(prop, FullSpace):
            return 1.0
        if isinstance(prop, Complement):
            return 1.0 - self._mass(x, prop.inner)
        if isinstance(prop, HalfSpace):
            spread = math.sqrt(float(prop.normal @ self.cov @ prop.normal))
            return float(
                special.ndtr((prop.offset - float(prop.normal @ x)) / spread)
            )
        if isinstance(prop, Ball):
            if self._isotropic_var is None:
                raise UnsupportedPropositionError(
                    "ball mass implemented only for isotropic covariance"
                )
            sigma = math.sqrt(self._isotropic_var)
            shift = float(np.linalg.norm(prop.center - x)) / sigma
            try:
                reach = (prop.radius / sigma) ** 2
            except OverflowError:  # radius over 1e154 sigma: a half-space's mass
                return float(special.ndtr(prop.radius / sigma - shift))
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

    Simulates data realizations at the true parameter, evaluates the rule's
    belief in each (false) proposition once, and records how often belief
    reaches ``1 - alpha`` for each level in the grid. A valid rule keeps
    every such rate at or below its level.

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
            (the criterion quantifies over false propositions only).
    """
    theta_true = np.atleast_1d(np.asarray(theta_true, dtype=float))
    if n_trials < 10**3:
        raise InputValidationError(f"n_trials must be >= 1000, got {n_trials}")
    seed = rngmod.validate_seed(seed)
    alphas = [float(a) for a in alpha_grid]
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

    hits = np.zeros((len(alphas), len(props)), dtype=np.int64)
    floors = 1.0 - np.array(alphas)[:, None, None]
    for gen, count in rngmod.blocks(seed, n_trials):
        xs = np.asarray(sampling_model(gen, count), dtype=float)
        if xs.shape[0] != count:
            raise InputValidationError(
                "sampling_model returned wrong number of realizations"
            )
        beliefs = np.array([[rule.belief(x, prop) for prop in props] for x in xs])
        hits += np.count_nonzero(beliefs >= floors, axis=1)

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
        return theta_true + gen.standard_normal((n, theta_true.size)) @ chol.T

    return draw
