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
* eigenvalues in ``[-1e-9 * trace, 0)`` are taken for round-off and
  reported as zero (the matrix itself is kept), anything lower is rejected;
* principal deviations are ordered descending (``s1 >= s2``);
* input is checked where it enters: at parse, in ``JointState`` and at the
  entry of each public function or constructor. A value derived from
  checked values, such as the plane covariance, is trusted; only a check
  that round-off can fail, such as a plane eigenvalue at zero, stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEncounterError, InputValidationError, NumericalError

_SYMMETRY_RTOL = 1e-9
_PSD_TRACE_RTOL = 1e-9
# cross products with the displacement degenerate near angle 0 and pi,
# so the fallback axis triggers on sin(angle) rather than the angle itself
_MIN_SIN_U_AXIS = 1e-6


def covariance_eigh(mat, name: str = "covariance"):
    """Symmetrize and PSD-check a covariance matrix, and eigendecompose it.

    Eigenvalues within ``-1e-9 * trace`` of zero are round-off: they are
    reported as zero, and the matrix is returned symmetrized but not rebuilt
    from them, so that a small block keeps its own digits. Anything below
    that is rejected with the offending eigenvalue in the message; a caller
    that needs a block of the matrix definite checks that block itself.

    Returns ``(sym, eigvals, eigvecs)``: the symmetrized matrix, its
    eigenvalues in ascending order with the round-off ones set to zero, and
    the eigenvectors as columns.
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
    sym = 0.5 * mat + 0.5 * mat.T  # 0.5 * (mat + mat.T) overflows past 9e307
    eigvals, eigvecs = np.linalg.eigh(sym)
    return sym, clip_round_off(sym, scale, eigvals, name), eigvecs


def clip_round_off(sym: np.ndarray, scale: float, eigvals: np.ndarray, name: str):
    """The ascending eigenvalues ``eigvals`` of the symmetric matrix ``sym``,
    whose largest entry magnitude is ``scale``, with those within
    ``-1e-9 * trace`` of zero set to zero; ``covariance_eigh``'s check.

    Raises:
        InputValidationError: naming the lowest eigenvalue if it is below that.
    """
    unit = max(scale, 1e-300)  # the trace of ``sym / unit``, unlike sym's, cannot overflow
    floor = -(_PSD_TRACE_RTOL * max(float(np.trace(sym / unit)), 0.0)) * unit
    lowest = float(eigvals[0])
    if lowest < floor:
        raise InputValidationError(
            f"{name} is not positive semidefinite: eigenvalue {lowest:.6e} "
            f"below tolerance {floor:.3e}"
        )
    if lowest < 0.0:
        eigvals = np.maximum(eigvals, 0.0)
    return eigvals


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
        theta = np.array(self.theta_hat, dtype=float)
        if theta.shape != (12,):
            raise InputValidationError(f"theta_hat must have shape (12,), got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise InputValidationError("theta_hat contains non-finite entries")
        cov = covariance_eigh(self.c_theta, "c_theta")[0]  # a new array
        if cov.shape != (12, 12):
            raise InputValidationError(f"c_theta must be 12x12, got shape {cov.shape}")
        for label, radius in (("r1", self.r1), ("r2", self.r2)):
            if not (math.isfinite(radius) and radius > 0.0):
                raise InputValidationError(f"{label} must be positive, got {radius}")
            object.__setattr__(self, label, float(radius))
        for label, arr in (("theta_hat", theta), ("c_theta", cov)):
            arr.setflags(write=False)
            object.__setattr__(self, label, arr)

    @property
    def r_combined(self) -> float:
        """Combined hard-body radius in meters."""
        return self.r1 + self.r2


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
        for label in ("u_hat", "v_hat", "s1", "s2", "r_combined"):
            object.__setattr__(self, label, float(getattr(self, label)))

    @property
    def d(self) -> float:
        """Miss-distance estimate (m), ``sqrt(u_hat^2 + v_hat^2)``."""
        return math.hypot(self.u_hat, self.v_hat)


def relative_covariance(js: JointState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a joint 12-dim state to the relative offset and its covariance.

    The relative position covariance is the sum of the two per-object
    position covariance blocks minus the cross block and its transpose.

    Returns:
        ``(delta_pos, c_delta, delta_v)``: object-2-minus-object-1 position
        (m), its 3x3 covariance (m^2) and velocity (m/s).

    Raises:
        NumericalError: if a difference, or the norm of one, overflows.
    """
    theta, cov = js.theta_hat, js.c_theta
    cross = cov[0:3, 6:9]
    with np.errstate(over="ignore"):
        delta_pos = theta[6:9] - theta[0:3]
        delta_v = theta[9:12] - theta[3:6]
        c_delta = cov[0:3, 0:3] + cov[6:9, 6:9] - cross - cross.T
    for label, first, diff in (("position", 0, delta_pos), ("velocity", 3, delta_v)):
        if math.isinf(math.hypot(*diff)):
            raise NumericalError(
                f"relative {label} overflows at object 1 {label} "
                f"{theta[first:first + 3].tolist()}, object 2 {label} "
                f"{theta[first + 6:first + 9].tolist()}"
            )
    if not np.all(np.isfinite(c_delta)):
        largest = float(np.max(np.diag(cov)[[0, 1, 2, 6, 7, 8]]))
        raise NumericalError(
            f"relative position covariance overflows at largest position variance {largest!r}"
        )
    return delta_pos, c_delta, delta_v


def _cross(a, b) -> tuple[float, float, float]:
    """``np.cross`` of two 3-sequences of floats, with the same roundings."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def encounter_frame(delta_pos, delta_v) -> np.ndarray:
    """Rotation matrix into the encounter frame.

    Rows are the first in-plane axis, the second in-plane axis, and the
    relative-velocity direction. The first in-plane axis is the normalized
    cross product of the relative-velocity direction and the displacement
    estimate; when those are aligned within ``sin(angle) <= 1e-6`` the cross
    product with the least-aligned canonical axis is used instead. After
    ``standardize``, ``s1``, ``s2``, ``|u_hat|`` and ``|v_hat|`` do not
    depend on this choice of in-plane axis. The 3-vectors are formed on
    Python floats, each operation rounded as numpy rounds it.

    Raises:
        DegenerateEncounterError: if the relative speed is zero.
    """
    delta_pos = [*map(float, delta_pos)]
    delta_v = [*map(float, delta_v)]
    speed = math.hypot(*delta_v)
    if speed == 0.0:
        raise DegenerateEncounterError(
            "relative velocity is zero: no closest-approach plane exists"
        )
    i_dv = [v / speed for v in delta_v]
    dpos_norm = math.hypot(*delta_pos)
    cross = _cross(i_dv, delta_pos)
    cross_norm = math.hypot(*cross)
    if not (dpos_norm > 0.0 and cross_norm > _MIN_SIN_U_AXIS * dpos_norm):
        least = min(range(3), key=lambda i: abs(i_dv[i]))
        cross = _cross(i_dv, [float(i == least) for i in range(3)])
        cross_norm = math.hypot(*cross)
    i_u = [c / cross_norm for c in cross]
    return np.array((i_u, _cross(i_dv, i_u), i_dv))


def standardize(mean2, cov2, r_combined: float) -> StandardizedEncounter:
    """Rotate the encounter plane into principal axes; the last step of
    ``standardized_encounter``.

    Eigendecomposes the 2x2 covariance, orders the principal deviations
    descending, and expresses the displacement estimate in the eigenvector
    basis, whose signs are fixed so that each eigenvector's largest-magnitude
    component is positive. The displacement magnitude is preserved; the
    rotation itself is not kept.

    Args:
        mean2: finite encounter-plane displacement estimate (m).
        cov2: finite, symmetric 2x2 encounter-plane covariance (m^2), as
            ``standardized_encounter`` derives it from a checked joint
            state; it is not checked again.
        r_combined: combined hard-body radius (m).

    Raises:
        InputValidationError: if round-off leaves an eigenvalue below
            ``covariance_eigh``'s floor, or the plane singular (the
            standardized space is undefined).
    """
    eigvals, eigvecs = np.linalg.eigh(cov2)
    eigvals = clip_round_off(cov2, float(np.abs(cov2).max()), eigvals, "cov2")
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
    u_hat, v_hat = (eigvecs.T @ mean2).tolist()
    return StandardizedEncounter(
        u_hat, v_hat, math.sqrt(eigvals[0]), math.sqrt(eigvals[1]), r_combined
    )


def standardized_encounter(js: JointState) -> StandardizedEncounter:
    """Full reduction from joint state to standardized encounter plane: the
    relative state is projected onto the plane perpendicular to the relative
    velocity, which integrates that direction out of the covariance. Raises
    ``NumericalError`` if ``r1 + r2``, the relative state or the plane overflows."""
    if math.isinf(js.r_combined):
        raise NumericalError(f"r1 + r2 overflows at r1 = {js.r1!r}, r2 = {js.r2!r}")
    delta_pos, c_delta, delta_v = relative_covariance(js)
    # rounding can carry a projection of finite inputs past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        plane = encounter_frame(delta_pos, delta_v)[:2]
        mean2 = plane @ delta_pos
        cov2 = plane @ c_delta @ plane.T
        cov2 = 0.5 * cov2 + 0.5 * cov2.T
    if not math.isfinite(math.hypot(*mean2)):
        raise NumericalError("encounter-plane mean overflows")
    if not np.all(np.isfinite(cov2)):
        raise NumericalError("encounter-plane covariance overflows")
    return standardize(mean2, cov2, js.r_combined)
