"""Collision probability on the standardized encounter plane.

The probability that the true relative displacement falls inside the
combined-radius disk, under bivariate normal uncertainty, is evaluated as a
single periodic contour integral around the disk boundary mapped into unit
normal space. The trapezoidal rule on evenly spaced points converges
spectrally for this integrand; at least ``10 * max(s1/s2, s2/s1)`` points
are required, with a floor of 64 for a uniform small-error guarantee.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputValidationError, NumericalError
from .geometry import StandardizedEncounter

#: Minimum quadrature point count used even for near-circular encounters.
QUAD_FLOOR = 64
#: Largest grid ``dilution_curve`` accepts; each point is one Pc evaluation.
MAX_CURVE_POINTS = 10**5

# below this squared radius the radial kernel is replaced by its limit 1/(4 pi)
_TINY_RSQ = 1e-16


def _rule_minimum(s1: float, s2: float) -> int:
    return int(math.ceil(10.0 * max(s1 / s2, s2 / s1)))


def auto_n_quad(s1: float, s2: float, floor: int = QUAD_FLOOR) -> int:
    """Default quadrature count: anisotropy rule with a floor, rounded even."""
    n = max(int(floor), _rule_minimum(s1, s2))
    return n if n % 2 == 0 else n + 1


def _contour_integral(
    u: np.ndarray, v: float, s1: float, s2: float, r: float, n: int
) -> np.ndarray:
    """Trapezoidal contour integral for a batch of first-axis offsets.

    ``u`` may be any shape; ``v`` is shared. Returns probabilities with the
    shape of ``u``.
    """
    psi = np.arange(n) * (2.0 * math.pi / n)
    cos_psi = np.cos(psi)
    sin_psi = np.sin(psi)
    u = np.asarray(u, dtype=float)
    x = u[..., None] / s1 + (r / s1) * cos_psi
    y = v / s2 + (r / s2) * sin_psi
    rsq = x * x + y * y
    small = rsq < _TINY_RSQ
    denom = np.where(small, 1.0, rsq)
    kernel = np.where(
        small, 1.0 / (4.0 * math.pi), -np.expm1(-rsq / 2.0) / (2.0 * math.pi * denom)
    )
    boundary = (r / (s1 * s2)) * (r + u[..., None] * cos_psi + v * sin_psi)
    values = kernel * boundary
    if not np.all(np.isfinite(values)):
        bad = np.nonzero(~np.isfinite(values))
        offending = psi[bad[-1][0]]
        raise NumericalError(
            f"non-finite contour integrand at psi = {offending:.6f} rad"
        )
    return values.sum(axis=-1) * (2.0 * math.pi / n)


@dataclass(frozen=True)
class PcResult:
    """Collision probability with quadrature metadata.

    ``quad_error_est`` is the absolute difference against a half-resolution
    evaluation. ``below_min_quad`` flags an explicitly requested point count
    under the anisotropy rule (the computation still proceeds).
    """

    pc: float
    n_quad: int
    quad_error_est: float
    below_min_quad: bool = False

    def __post_init__(self):
        if not (0.0 <= self.pc <= 1.0):
            raise InputValidationError(f"pc must be in [0, 1], got {self.pc}")
        if self.n_quad < 1:
            raise InputValidationError(f"n_quad must be positive, got {self.n_quad}")
        if not (self.quad_error_est >= 0.0):
            raise InputValidationError(
                f"quad_error_est must be non-negative, got {self.quad_error_est}"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[dict]:
        return [{k: v for k, v in asdict(self).items() if k != "below_min_quad"}]


def pc_contour(
    enc: StandardizedEncounter,
    n_quad: int | None = None,
    quad_floor: int = QUAD_FLOOR,
) -> PcResult:
    """Collision probability for a standardized encounter.

    Args:
        enc: standardized encounter-plane description.
        n_quad: evenly spaced quadrature point count; defaults to
            ``max(quad_floor, ceil(10 * max(s1/s2, s2/s1)))`` rounded even.
        quad_floor: minimum automatic point count.

    Returns:
        PcResult with the probability, the point count used, and an error
        estimate from comparing against half the resolution.
    """
    explicit = n_quad is not None
    if explicit:
        if n_quad < 1:
            raise InputValidationError(f"n_quad must be positive, got {n_quad}")
        n = int(n_quad)
    else:
        n = auto_n_quad(enc.s1, enc.s2, floor=quad_floor)
    below = explicit and n < _rule_minimum(enc.s1, enc.s2)
    args = (enc.v_hat, enc.s1, enc.s2, enc.r_combined)
    pc = float(_contour_integral(np.array(enc.u_hat), *args, n))
    pc_half = float(_contour_integral(np.array(enc.u_hat), *args, max(1, n // 2)))
    return PcResult(
        pc=min(1.0, max(0.0, pc)),
        n_quad=n,
        quad_error_est=abs(pc - pc_half),
        below_min_quad=below,
    )


def _circular_encounter(d_over_r: float, s_over_r: float) -> StandardizedEncounter:
    return StandardizedEncounter(
        u_hat=float(d_over_r),
        v_hat=0.0,
        s1=float(s_over_r),
        s2=float(s_over_r),
        rot_m=np.eye(3),
        rot_es=np.eye(2),
        r_combined=1.0,
    )


def pc_circular(d_over_r: float, s_over_r: float) -> float:
    """Collision probability for the equal-deviation special case.

    With ``s1 == s2`` the probability depends only on the displacement ratio
    ``d_over_r`` and the uncertainty ratio ``s_over_r``.
    """
    if not (d_over_r >= 0.0 and math.isfinite(d_over_r)):
        raise InputValidationError(f"d_over_r must be >= 0, got {d_over_r}")
    if not (s_over_r > 0.0 and math.isfinite(s_over_r)):
        raise InputValidationError(f"s_over_r must be positive, got {s_over_r}")
    return pc_contour(_circular_encounter(d_over_r, s_over_r)).pc


def pc_circular_batch(
    d_over_r: np.ndarray, s_over_r: float, n_quad: int | None = None
) -> np.ndarray:
    """Vectorized ``pc_circular`` over an array of displacement ratios."""
    d = np.asarray(d_over_r, dtype=float)
    if d.size and (not np.all(np.isfinite(d)) or np.any(d < 0.0)):
        raise InputValidationError("d_over_r values must be finite and >= 0")
    if not (s_over_r > 0.0 and math.isfinite(s_over_r)):
        raise InputValidationError(f"s_over_r must be positive, got {s_over_r}")
    s = float(s_over_r)
    n = auto_n_quad(s, s) if n_quad is None else int(n_quad)
    pc = _contour_integral(d, 0.0, s, s, 1.0, n)
    return np.clip(pc, 0.0, 1.0)


def max_pc_head_on(s_over_r: float) -> float:
    """Largest computable collision probability at a given uncertainty ratio.

    Attained at zero estimated displacement: ``1 - exp(-1 / (2 s^2))`` with
    ``s = s_over_r``. Strictly decreasing in ``s_over_r``; this is the
    dilution floor, the confidence in "no collision" can never drop below
    ``1 -`` this value no matter the data.
    """
    if not (s_over_r > 0.0 and math.isfinite(s_over_r)):
        raise InputValidationError(f"s_over_r must be positive, got {s_over_r}")
    return -math.expm1(-1.0 / (2.0 * s_over_r * s_over_r))


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
        return {**asdict(self), "grid": [list(point) for point in self.grid]}

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
    """
    if not (0.0 < s_over_r_min < s_over_r_max):
        raise InputValidationError(
            f"need 0 < s_over_r_min < s_over_r_max, got "
            f"({s_over_r_min}, {s_over_r_max})"
        )
    if not (16 <= n_points <= MAX_CURVE_POINTS):
        raise InputValidationError(
            f"n_points must be in [16, {MAX_CURVE_POINTS}], got {n_points}"
        )
    if not (d_over_r >= 0.0 and math.isfinite(d_over_r)):
        raise InputValidationError(f"d_over_r must be >= 0, got {d_over_r}")
    s_grid = np.geomspace(s_over_r_min, s_over_r_max, int(n_points))
    pc_grid = np.array([pc_circular(d_over_r, s) for s in s_grid])
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
