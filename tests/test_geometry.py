"""Encounter-plane reduction: examples, oracles, and frame invariances."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conjrisk import (
    DegenerateEncounterError,
    InputValidationError,
    JointState,
    NumericalError,
    relative_covariance,
    standardized_encounter,
)
from conjrisk.geometry import covariance_eigh, encounter_frame, standardize

from conftest import DIFFERENCE_MATRIX, make_joint_state, random_rotation, random_spd


def _joint_state(cov, theta=None, r1=1.0, r2=1.0):
    if theta is None:
        theta = np.zeros(12)
        theta[6:9] = [100.0, 0.0, 0.0]
        theta[9:12] = [0.0, 0.0, 7000.0]
    return JointState(theta_hat=theta, c_theta=cov, r1=r1, r2=r2)


def _relative_state(delta_pos, c_delta, delta_v):
    """Joint state with the given relative state: object 1 at rest at the
    origin with zero covariance."""
    theta = np.zeros(12)
    theta[6:9] = delta_pos
    theta[9:12] = delta_v
    cov = np.zeros((12, 12))
    cov[6:9, 6:9] = c_delta
    return JointState(theta_hat=theta, c_theta=cov, r1=1.0, r2=1.0)


def _plane_eigenvalues(enc):
    """Eigenvalues of the encounter-plane covariance, ascending."""
    return [enc.s2**2, enc.s1**2]


class TestRelativeCovariance:
    def test_identity_blocks(self):
        js = _joint_state(np.eye(12))
        c_delta = relative_covariance(js)[1]
        assert_allclose(c_delta, 2.0 * np.eye(3), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, -0.4])
    def test_cross_block_correlation(self, rho):
        cov = np.eye(12)
        cov[0:3, 6:9] = rho * np.eye(3)
        cov[6:9, 0:3] = rho * np.eye(3)
        js = _joint_state(cov)
        c_delta = relative_covariance(js)[1]
        # independent oracle: explicit difference-matrix product
        expected = DIFFERENCE_MATRIX @ cov @ DIFFERENCE_MATRIX.T
        assert_allclose(c_delta, expected, rtol=0, atol=1e-14)
        assert_allclose(c_delta, (2.0 - 2.0 * rho) * np.eye(3), atol=1e-14)

    def test_object_swap_negates_offset(self):
        rng = np.random.default_rng(1)
        js = make_joint_state(rng)
        swapped_theta = np.concatenate(
            [js.theta_hat[6:12], js.theta_hat[0:6]]
        )
        perm = np.r_[6:12, 0:6]
        swapped_cov = js.c_theta[np.ix_(perm, perm)]
        js_swapped = JointState(
            theta_hat=swapped_theta, c_theta=swapped_cov, r1=js.r2, r2=js.r1
        )
        delta_pos, c_delta, _ = relative_covariance(js)
        pos_swapped, c_swapped, _ = relative_covariance(js_swapped)
        assert_allclose(c_swapped, c_delta, rtol=1e-12)
        assert_allclose(pos_swapped, -delta_pos, rtol=1e-12)

    def test_matches_difference_matrix_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            js = make_joint_state(rng)
            c_delta = relative_covariance(js)[1]
            expected = DIFFERENCE_MATRIX @ js.c_theta @ DIFFERENCE_MATRIX.T
            assert_allclose(c_delta, expected, rtol=1e-10, atol=1e-10)


class TestJointStateValidation:
    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(12)
        cov[0, 1] = 1e-3
        with pytest.raises(InputValidationError, match="asymmetric"):
            _joint_state(cov)

    def test_non_psd_rejected_with_eigenvalue(self):
        cov = np.eye(12)
        cov[0, 0] = -1.0
        with pytest.raises(InputValidationError, match="eigenvalue"):
            _joint_state(cov)

    def test_tiny_negative_eigenvalue_clamped(self):
        # rank-deficient within tolerance is accepted and clamped
        cov = np.eye(12)
        cov[0, 0] = 1.0 - 1e-12
        cov[0, 1] = cov[1, 0] = 1.0 - 1e-12
        cov[1, 1] = 1.0 - 1e-12
        js = _joint_state(cov)
        assert np.linalg.eigvalsh(js.c_theta)[0] >= -1e-15

    def test_non_finite_rejected(self):
        cov = np.eye(12)
        cov[3, 3] = np.nan
        with pytest.raises(InputValidationError, match="non-finite"):
            _joint_state(cov)

    @pytest.mark.parametrize("r1,r2", [(0.0, 1.0), (1.0, -2.0)])
    def test_radii_must_be_positive(self, r1, r2):
        with pytest.raises(InputValidationError, match="positive"):
            _joint_state(np.eye(12), r1=r1, r2=r2)

    def test_arrays_frozen(self):
        js = _joint_state(np.eye(12))
        with pytest.raises(ValueError):
            js.theta_hat[0] = 1.0


class TestEncounterProjection:
    def test_axis_aligned_construction(self):
        enc = standardized_encounter(_relative_state(
            [3.0, 4.0, 0.0], np.diag([2.0, 5.0, 9.0]), [0.0, 0.0, 7500.0]
        ))
        assert enc.d == pytest.approx(5.0, rel=1e-12)
        assert_allclose(_plane_eigenvalues(enc), [2.0, 5.0], rtol=1e-12)

    def test_isotropic_covariance_any_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dv = rng.standard_normal(3) * 1000.0
            enc = standardized_encounter(_relative_state(
                rng.standard_normal(3) * 100.0, 4.0 * np.eye(3), dv
            ))
            assert_allclose(_plane_eigenvalues(enc), [4.0, 4.0], rtol=0, atol=1e-12)

    def test_matches_direct_matrix_product(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            delta_pos = rng.standard_normal(3) * 200.0
            c_delta = random_spd(rng, 3, 50.0)
            delta_v = rng.standard_normal(3) * 1000.0
            enc = standardized_encounter(_relative_state(delta_pos, c_delta, delta_v))
            rot = encounter_frame(delta_pos, delta_v)
            full = rot @ c_delta @ rot.T
            assert_allclose(
                _plane_eigenvalues(enc), np.linalg.eigvalsh(full[:2, :2]),
                rtol=1e-12, atol=1e-12,
            )
            assert enc.d == pytest.approx(
                np.linalg.norm((rot @ delta_pos)[:2]), rel=1e-12
            )

    def test_mean_is_perpendicular_component(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            delta_pos = rng.standard_normal(3) * 100.0
            delta_v = rng.standard_normal(3) * 900.0
            enc = standardized_encounter(
                _relative_state(delta_pos, random_spd(rng, 3), delta_v)
            )
            unit = delta_v / np.linalg.norm(delta_v)
            perp = delta_pos - (delta_pos @ unit) * unit
            assert enc.d == pytest.approx(np.linalg.norm(perp), rel=1e-10)

    def test_along_track_variance_1e12_times_the_plane(self):
        # the projection rounds to a plane covariance asymmetric well beyond
        # covariance_eigh's tolerance of 1e-9, which is round-off, not input
        rng = np.random.default_rng(6)
        for _ in range(10):
            delta_v = rng.standard_normal(3) * 1000.0
            unit = delta_v / np.linalg.norm(delta_v)
            c_delta = 1e12 * np.outer(unit, unit) + np.eye(3)
            enc = standardized_encounter(
                _relative_state(rng.standard_normal(3), c_delta, delta_v)
            )
            assert_allclose(_plane_eigenvalues(enc), [1.0, 1.0], rtol=1e-3)

    def test_zero_relative_velocity_is_degenerate(self):
        js = _relative_state([1.0, 0.0, 0.0], np.eye(3), [0.0, 0.0, 0.0])
        with pytest.raises(DegenerateEncounterError):
            standardized_encounter(js)

    def test_parallel_displacement_uses_fallback_axis(self):
        # displacement aligned with relative velocity: not an error
        enc = standardized_encounter(_relative_state(
            [0.0, 0.0, 50.0], np.diag([1.0, 4.0, 9.0]), [0.0, 0.0, 7500.0]
        ))
        assert enc.d == pytest.approx(0.0, abs=1e-12)
        assert_allclose(_plane_eigenvalues(enc), [1.0, 4.0], rtol=1e-12)

    def test_one_eigendecomposition(self, monkeypatch):
        # the joint state is validated once; the plane reduction adds only
        # the 2x2 eigendecomposition of ``standardize``
        js = make_joint_state(np.random.default_rng(12))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        standardized_encounter(js)
        assert calls == [(2, 2)]


class TestOverflow:
    @pytest.mark.parametrize(
        "index, message",
        [(0, "relative position overflows"), (4, "relative velocity overflows")],
    )
    def test_relative_state(self, index, message):
        theta = np.zeros(12)
        theta[11] = 7000.0
        theta[index], theta[index + 6] = -1.7e308, 1.7e308
        js = JointState(theta_hat=theta, c_theta=np.eye(12), r1=1.0, r2=1.0)
        with pytest.raises(NumericalError, match=message):
            relative_covariance(js)

    def test_relative_position_whose_norm_overflows(self):
        # each difference is finite, its length is not
        js = _relative_state([1.5e308, 1.5e308, 0.0], np.eye(3), [0.0, 0.0, 7000.0])
        with pytest.raises(NumericalError, match="relative position overflows"):
            relative_covariance(js)

    def test_relative_covariance(self):
        cov = np.eye(12)
        cov[0, 0] = cov[6, 6] = 1.7e308
        js = _joint_state(cov)
        with pytest.raises(
            NumericalError,
            match=r"relative position covariance overflows at largest position "
                  r"variance 1\.7e\+308",
        ):
            standardized_encounter(js)

    def test_plane_mean(self):
        # |delta_pos| = a * sqrt(2) is within the float range, but the
        # rounded in-plane axis carries the projection just past it
        js = _relative_state([1.2711610061536462e308] * 2 + [0.0], np.eye(3),
                             [0.0, 0.0, 7000.0])
        with pytest.raises(NumericalError, match="encounter-plane mean overflows"):
            standardized_encounter(js)

    def test_plane_covariance(self):
        # the variance along (1, 1, 0) / sqrt(2) is 1.9e308
        c_delta = 1e308 * np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        js = _relative_state([1.0, 1.0, 0.0], c_delta, [0.0, 0.0, 7000.0])
        with pytest.raises(NumericalError, match="encounter-plane covariance overflows"):
            standardized_encounter(js)


class TestCovarianceEigh:
    def test_psd_check_survives_an_overflowing_trace(self):
        # the trace 3.4e308 overflows; the tolerance is 1e-9 of it
        with pytest.raises(InputValidationError, match="eigenvalue -1.000000e\\+300"):
            covariance_eigh(np.diag([1.7e308, 1.7e308, -1e300]))
        _, eigvals, _ = covariance_eigh(np.diag([1.7e308, 1.7e308, -1e290]))
        assert_allclose(eigvals, [0.0, 1.7e308, 1.7e308], rtol=0, atol=0)


class TestStandardize:
    def test_isotropic(self):
        enc = standardize([30.0, 0.0], 25.0 * np.eye(2), r_combined=2.0)
        assert enc.s1 == pytest.approx(5.0)
        assert enc.s2 == pytest.approx(5.0)
        assert abs(enc.u_hat) == pytest.approx(30.0)
        assert enc.d == pytest.approx(30.0)

    def test_already_diagonal(self):
        enc = standardize([1.0, 1.0], np.diag([9.0, 4.0]), r_combined=1.0)
        assert enc.s1 == pytest.approx(3.0)
        assert enc.s2 == pytest.approx(2.0)
        assert enc.d == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert enc.u_hat == pytest.approx(1.0)
        assert enc.v_hat == pytest.approx(1.0)

    def test_norm_preserved_on_random_input(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            cov2 = random_spd(rng, 2, 10.0)
            mean2 = rng.standard_normal(2) * 100.0
            enc = standardize(mean2, cov2, r_combined=1.0)
            assert enc.u_hat**2 + enc.v_hat**2 == pytest.approx(
                float(mean2 @ mean2), rel=1e-12
            )

    def test_singular_covariance_rejected(self):
        with pytest.raises(InputValidationError, match="singular"):
            standardize([1.0, 0.0], np.diag([1.0, 0.0]), r_combined=1.0)


class TestPipelineInvariants:
    def test_ordering_and_nonnegativity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            enc = standardized_encounter(make_joint_state(rng))
            assert enc.s1 >= enc.s2 > 0.0
            assert enc.d >= 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            js = make_joint_state(rng)
            rot = random_rotation(rng)
            block = np.kron(np.eye(4), rot)
            js_rot = JointState(
                theta_hat=block @ js.theta_hat,
                c_theta=block @ js.c_theta @ block.T,
                r1=js.r1,
                r2=js.r2,
            )
            enc = standardized_encounter(js)
            enc_rot = standardized_encounter(js_rot)
            assert enc_rot.d == pytest.approx(enc.d, rel=1e-10)
            assert enc_rot.s1 == pytest.approx(enc.s1, rel=1e-10)
            assert enc_rot.s2 == pytest.approx(enc.s2, rel=1e-10)

    def test_frame_is_orthonormal_right_handed(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            delta_pos, _, delta_v = relative_covariance(make_joint_state(rng))
            rot = encounter_frame(delta_pos, delta_v)
            assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0, rel=1e-12)
