"""Conjunction screening with K-sigma position ellipsoids.

Each object's position uncertainty is rendered as a K-sigma ellipsoid; a
maneuver is indicated when the minimum distance between the two ellipsoids
is at most the combined hard-body radius. The per-object confidence is the
three-dimensional chi-squared mass inside radius K, in closed form, so that
a screen needs numpy alone; joint confidence combines the two objects
under independence and, dependence-free, under the Frechet bound. Screening
on overlap then caps the long-run rate of missed collisions at twice the
per-object miss level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# through the module, so that a kernel replaced there is the one called
from . import ellipsoids
from .ellipsoids import Ellipsoid
from .errors import InputValidationError
from .geometry import JointState, clip_round_off

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def ksigma_confidence(k: float) -> float:
    """Coverage probability of a three-dimensional K-sigma ellipsoid: the
    chi-squared CDF with three degrees of freedom at ``k^2``, strictly
    increasing in ``k``, in closed form: ``erf(k / sqrt(2)) - sqrt(2 / pi)
    k exp(-k^2 / 2)``. Below ``k = 1.5``, where that difference cancels (by
    1.6e-12 relative at ``k = 0.015``), it is the series ``sqrt(2 / pi)
    k^3 / 3 exp(-k^2 / 2) sum_n x^n / ((5/2)(7/2) ... (3/2 + n))`` in
    ``x = k^2 / 2``, whose terms are all positive."""
    ellipsoids.check_k(k)
    k = float(k)
    x = 0.5 * k * k
    if k >= 1.5:
        return math.erf(k * math.sqrt(0.5)) - _SQRT_2_OVER_PI * k * math.exp(-x)
    term = total = 1.0
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= x / (1.5 + n)
        total += term
    return _SQRT_2_OVER_PI * k**3 / 3.0 * math.exp(-x) * total


def joint_confidence(alpha: float) -> tuple[float, float]:
    """Joint two-object coverage: independence value and Frechet bound.

    Returns ``((1 - alpha)^2, max(0, 1 - 2 alpha))``. The Frechet bound
    holds under arbitrary dependence between the two objects' tracking data
    and is never above the independence value.
    """
    if not (0.0 <= alpha <= 1.0):
        raise InputValidationError(f"alpha must be in [0, 1], got {alpha}")
    return (1.0 - alpha) ** 2, max(0.0, 1.0 - 2.0 * alpha)


@dataclass(frozen=True)
class ScreeningDecision:
    """Outcome of a K-sigma ellipsoid screen for one conjunction."""

    min_distance: float            # m, between the two position ellipsoids
    overlap: bool                  # min_distance <= combined radius
    k: float
    per_object_confidence: float   # 1 - alpha
    joint_confidence_independent: float
    joint_confidence_frechet: float
    collision_risk_cap: float      # 2 alpha

    def to_json_dict(self) -> dict:
        """Wire representation of the decision."""
        return {
            "min_distance_m": self.min_distance,
            "overlap": self.overlap,
            "k": self.k,
            "confidence": self.per_object_confidence,
            "joint_confidence": self.joint_confidence_independent,
            "frechet_bound": self.joint_confidence_frechet,
            "risk_cap": self.collision_risk_cap,
        }

    def csv_rows(self) -> list[dict]:
        return [self.to_json_dict()]


def position_ellipsoids(js: JointState, k: float) -> tuple[Ellipsoid, Ellipsoid]:
    """K-sigma position ellipsoids for the two objects of a joint state.

    Each ellipsoid is built from that object's own 3x3 position covariance
    block; cross-covariance between the objects is not used for region
    construction (the Frechet bound covers arbitrary dependence). The blocks
    come from the joint state's checked, symmetric covariance, so they need
    only one eigendecomposition each, taken in one call, and each block's
    own round-off check; ``Ellipsoid``'s checks are not run on them again.
    """
    cov = js.c_theta
    blocks = np.array((cov[0:3, 0:3], cov[6:9, 6:9]))
    eigvals, eigvecs = np.linalg.eigh(blocks)
    bodies = []
    for label, lo, block, vals, vecs in zip(
        ("object 1", "object 2"), (0, 6), blocks, eigvals, eigvecs
    ):
        try:
            ellipsoids.check_k(k)
            vals = clip_round_off(block, float(np.abs(block).max()), vals,
                                  "ellipsoid covariance")
            bodies.append(
                ellipsoids.ellipsoid_from_eigh(js.theta_hat[lo:lo + 3], vals, vecs, k)
            )
        except InputValidationError as exc:
            raise InputValidationError(f"{label} position ellipsoid: {exc}") from exc
    e1, e2 = bodies
    return e1, e2


def screen_conjunction(js: JointState, k: float) -> ScreeningDecision:
    """Decide maneuver need from K-sigma position-ellipsoid overlap.

    Overlap accounts for the physical sizes: the screen fires when the
    minimum distance between the uncertainty ellipsoids does not exceed the
    combined hard-body radius.
    """
    e1, e2 = position_ellipsoids(js, k)
    gap = ellipsoids.min_distance(e1, e2)
    confidence = ksigma_confidence(k)
    alpha = 1.0 - confidence
    independent, frechet = joint_confidence(alpha)
    return ScreeningDecision(
        min_distance=gap,
        overlap=bool(gap <= js.r_combined),
        k=float(k),
        per_object_confidence=confidence,
        joint_confidence_independent=independent,
        joint_confidence_frechet=frechet,
        collision_risk_cap=2.0 * alpha,
    )
