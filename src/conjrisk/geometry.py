"""Encounter-plane reduction of joint two-object state estimates.

Takes the 12-dimensional joint position/velocity estimate of an object pair
with its full covariance, forms the relative state, projects uncertainty onto
the plane perpendicular to the relative velocity (integrating out the
along-track direction), and rotates into principal axes. The result is the
standardized two-dimensional encounter description consumed by the
collision-probability and screening code.

Conventions fixed here for reproducibility:

* units are meters and meters per second throughout;
* covariances are symmetrized as ``(C + C^T) / 2`` and rejected if the
  asymmetry exceeds ``1e-9`` relative;
* eigenvalues in ``[-1e-9 * trace, 0)`` are clamped to zero, anything lower
  is rejected;
* principal deviations are ordered descending (``s1 >= s2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEncounterError, InputValidationError

_SYMMETRY_RTOL = 1e-9
_PSD_TRACE_RTOL = 1e-9
# cross products with the displacement degenerate near angle 0 and pi,
# so the fallback axis triggers on sin(angle) rather than the angle itself
_MIN_SIN_U_AXIS = 1e-6


def _as_finite_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise InputValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputValidationError(f"{name} contains non-finite entries")
    return arr


def covariance_eigh(mat, name: str = "covariance"):
    """Symmetrize and PSD-check a covariance matrix, and eigendecompose it.

    Eigenvalues within ``-1e-9 * trace`` of zero are clamped to zero and the
    matrix is reconstructed; anything below that is rejected with the
    offending eigenvalue in the message.

    Returns ``(sym, eigvals, eigvecs)``: the validated matrix, its
    eigenvalues in ascending order after clamping, and the eigenvectors as
    columns, so that ``sym = eigvecs @ diag(eigvals) @ eigvecs.T``.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputValidationError(f"{name} must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InputValidationError(f"{name} contains non-finite entries")
    scale = float(np.max(np.abs(mat)))
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise InputValidationError(
            f"{name} is asymmetric beyond tolerance: max|C - C^T| = {asym:.3e} "
            f"vs scale {scale:.3e}"
        )
    sym = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    floor = -_PSD_TRACE_RTOL * max(float(np.trace(sym)), 0.0)
    lowest = float(eigvals[0])
    if lowest < floor:
        raise InputValidationError(
            f"{name} is not positive semidefinite: eigenvalue {lowest:.6e} "
            f"below tolerance {floor:.3e}"
        )
    if lowest < 0.0:
        eigvals = np.clip(eigvals, 0.0, None)
        sym = eigvecs @ np.diag(eigvals) @ eigvecs.T
        sym = 0.5 * (sym + sym.T)
    return sym, eigvals, eigvecs


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class JointState:
    """Joint estimate of an object pair at closest approach.

    ``theta_hat`` orders object 1 position (m), object 1 velocity (m/s),
    object 2 position, object 2 velocity. ``c_theta`` is the 12x12
    covariance of that vector; ``r1`` and ``r2`` are hard-body radii (m).
    """

    theta_hat: np.ndarray
    c_theta: np.ndarray
    r1: float
    r2: float

    def __post_init__(self):
        theta = _as_finite_array(self.theta_hat, (12,), "theta_hat")
        cov = covariance_eigh(self.c_theta, "c_theta")[0]
        if cov.shape != (12, 12):
            raise InputValidationError(
                f"c_theta must be 12x12, got shape {cov.shape}"
            )
        for label, radius in (("r1", self.r1), ("r2", self.r2)):
            if not (math.isfinite(radius) and radius > 0.0):
                raise InputValidationError(f"{label} must be positive, got {radius}")
        object.__setattr__(self, "theta_hat", _freeze(theta))
        object.__setattr__(self, "c_theta", _freeze(cov))
        object.__setattr__(self, "r1", float(self.r1))
        object.__setattr__(self, "r2", float(self.r2))

    @property
    def r_combined(self) -> float:
        """Combined hard-body radius in meters."""
        return self.r1 + self.r2


@dataclass(frozen=True, eq=False)
class RelativeState:
    """Relative offset estimate (object 2 minus object 1) with covariance."""

    delta_pos_hat: np.ndarray  # m
    c_delta: np.ndarray        # m^2, 3x3
    delta_v_hat: np.ndarray    # m/s

    def __post_init__(self):
        dpos = _as_finite_array(self.delta_pos_hat, (3,), "delta_pos_hat")
        dvel = _as_finite_array(self.delta_v_hat, (3,), "delta_v_hat")
        cov = covariance_eigh(self.c_delta, "c_delta")[0]
        if cov.shape != (3, 3):
            raise InputValidationError(f"c_delta must be 3x3, got shape {cov.shape}")
        object.__setattr__(self, "delta_pos_hat", _freeze(dpos))
        object.__setattr__(self, "c_delta", _freeze(cov))
        object.__setattr__(self, "delta_v_hat", _freeze(dvel))

    @property
    def speed(self) -> float:
        """Relative speed (m/s)."""
        return float(np.linalg.norm(self.delta_v_hat))


@dataclass(frozen=True, eq=False)
class StandardizedEncounter:
    """Encounter-plane description in principal axes.

    ``u_hat`` and ``v_hat`` are the displacement estimates (m) along the
    principal directions with standard deviations ``s1 >= s2`` (m).
    ``r_combined`` is the combined hard-body radius (m). These five numbers
    are all that the collision-probability integral reads from the plane.
    """

    u_hat: float
    v_hat: float
    s1: float
    s2: float
    r_combined: float

    def __post_init__(self):
        for label, value in (("u_hat", self.u_hat), ("v_hat", self.v_hat)):
            if not math.isfinite(value):
                raise InputValidationError(f"{label} must be finite, got {value}")
        if not (0.0 < self.s2 <= self.s1) or not math.isfinite(self.s1):
            raise InputValidationError(
                f"principal deviations must satisfy s1 >= s2 > 0, got "
                f"s1={self.s1}, s2={self.s2}"
            )
        if not (math.isfinite(self.r_combined) and self.r_combined > 0.0):
            raise InputValidationError(
                f"r_combined must be positive, got {self.r_combined}"
            )
        object.__setattr__(self, "u_hat", float(self.u_hat))
        object.__setattr__(self, "v_hat", float(self.v_hat))
        object.__setattr__(self, "s1", float(self.s1))
        object.__setattr__(self, "s2", float(self.s2))
        object.__setattr__(self, "r_combined", float(self.r_combined))

    @property
    def d(self) -> float:
        """Miss-distance estimate (m), ``sqrt(u_hat^2 + v_hat^2)``."""
        return math.hypot(self.u_hat, self.v_hat)


def relative_covariance(js: JointState) -> RelativeState:
    """Reduce a joint 12-dim state to the relative offset and its covariance.

    The relative position covariance is the sum of the two per-object
    position covariance blocks minus twice the (symmetrized) cross block.

    Args:
        js: validated joint state.

    Returns:
        RelativeState with object-2-minus-object-1 differences.
    """
    theta = js.theta_hat
    cov = js.c_theta
    delta_pos = theta[6:9] - theta[0:3]
    delta_v = theta[9:12] - theta[3:6]
    cross = cov[0:3, 6:9]
    c_delta = cov[0:3, 0:3] + cov[6:9, 6:9] - cross - cross.T
    return RelativeState(delta_pos_hat=delta_pos, c_delta=c_delta, delta_v_hat=delta_v)


def encounter_frame(rs: RelativeState) -> np.ndarray:
    """Rotation matrix into the encounter frame.

    Rows are the first in-plane axis, the second in-plane axis, and the
    relative-velocity direction. The first in-plane axis is the normalized
    cross product of the relative-velocity direction and the displacement
    estimate; when those are aligned within ``sin(angle) <= 1e-6`` the cross
    product with the least-aligned canonical axis is used instead. After
    ``standardize``, ``s1``, ``s2``, ``|u_hat|`` and ``|v_hat|`` do not
    depend on this choice of in-plane axis.

    Raises:
        DegenerateEncounterError: if the relative speed is zero.
    """
    speed = rs.speed
    if speed == 0.0:
        raise DegenerateEncounterError(
            "relative velocity is zero: no closest-approach plane exists"
        )
    i_dv = rs.delta_v_hat / speed
    dpos = rs.delta_pos_hat
    dpos_norm = float(np.linalg.norm(dpos))
    cross = np.cross(i_dv, dpos)
    cross_norm = float(np.linalg.norm(cross))
    if dpos_norm > 0.0 and cross_norm > _MIN_SIN_U_AXIS * dpos_norm:
        i_u = cross / cross_norm
    else:
        canonical = np.zeros(3)
        canonical[int(np.argmin(np.abs(i_dv)))] = 1.0
        fallback = np.cross(i_dv, canonical)
        i_u = fallback / float(np.linalg.norm(fallback))
    i_v = np.cross(i_dv, i_u)
    return np.vstack((i_u, i_v, i_dv))


def encounter_projection(rs: RelativeState) -> tuple[np.ndarray, np.ndarray]:
    """Project the relative state onto the encounter plane.

    Rotates into the encounter frame and drops the along-velocity
    coordinate, integrating that direction out of the covariance.

    Returns:
        ``(mean2, cov2)``: 2-vector displacement estimate (m) and 2x2
        covariance (m^2) in the encounter plane.
    """
    rot = encounter_frame(rs)
    mean3 = rot @ rs.delta_pos_hat
    cov3 = rot @ rs.c_delta @ rot.T
    return mean3[:2].copy(), 0.5 * (cov3[:2, :2] + cov3[:2, :2].T)


def standardize(mean2, cov2, r_combined: float) -> StandardizedEncounter:
    """Rotate the encounter plane into principal axes.

    Eigendecomposes the 2x2 covariance, orders the principal deviations
    descending, and expresses the displacement estimate in the eigenvector
    basis, whose signs are fixed so that each eigenvector's largest-magnitude
    component is positive. The displacement magnitude is preserved; the
    rotation itself is not kept.

    Args:
        mean2: encounter-plane displacement estimate (m).
        cov2: 2x2 encounter-plane covariance (m^2); must be positive definite.
        r_combined: combined hard-body radius (m).

    Raises:
        InputValidationError: on singular covariance (the standardized space
            is undefined).
    """
    mean2 = _as_finite_array(mean2, (2,), "mean2")
    cov2, eigvals, eigvecs = covariance_eigh(cov2, "cov2")
    if cov2.shape != (2, 2):
        raise InputValidationError(f"cov2 must be 2x2, got shape {cov2.shape}")
    if eigvals[0] <= 0.0:
        raise InputValidationError(
            f"cov2 is singular (eigenvalue {eigvals[0]:.6e}): "
            "standardized encounter space undefined"
        )
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    # deterministic eigenvector signs: largest-magnitude component positive
    for col in range(2):
        lead = int(np.argmax(np.abs(eigvecs[:, col])))
        if eigvecs[lead, col] < 0.0:
            eigvecs[:, col] = -eigvecs[:, col]
    uv = eigvecs.T @ mean2
    return StandardizedEncounter(
        u_hat=float(uv[0]),
        v_hat=float(uv[1]),
        s1=float(math.sqrt(eigvals[0])),
        s2=float(math.sqrt(eigvals[1])),
        r_combined=float(r_combined),
    )


def standardized_encounter(js: JointState) -> StandardizedEncounter:
    """Full reduction from joint state to standardized encounter plane."""
    return standardize(*encounter_projection(relative_covariance(js)), js.r_combined)
