"""Encounter-plane reduction: examples, oracles, and frame invariances."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conjrisk import (
    DegenerateEncounterError,
    InputValidationError,
    JointState,
    RelativeState,
    encounter_projection,
    relative_covariance,
    standardize,
    standardized_encounter,
)
from conjrisk.geometry import encounter_frame

from conftest import DIFFERENCE_MATRIX, make_joint_state, random_rotation, random_spd


def _joint_state(cov, theta=None, r1=1.0, r2=1.0):
    if theta is None:
        theta = np.zeros(12)
        theta[6:9] = [100.0, 0.0, 0.0]
        theta[9:12] = [0.0, 0.0, 7000.0]
    return JointState(theta_hat=theta, c_theta=cov, r1=r1, r2=r2)


class TestRelativeCovariance:
    def test_identity_blocks(self):
        js = _joint_state(np.eye(12))
        rs = relative_covariance(js)
        assert_allclose(rs.c_delta, 2.0 * np.eye(3), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, -0.4])
    def test_cross_block_correlation(self, rho):
        cov = np.eye(12)
        cov[0:3, 6:9] = rho * np.eye(3)
        cov[6:9, 0:3] = rho * np.eye(3)
        js = _joint_state(cov)
        rs = relative_covariance(js)
        # independent oracle: explicit difference-matrix product
        expected = DIFFERENCE_MATRIX @ cov @ DIFFERENCE_MATRIX.T
        assert_allclose(rs.c_delta, expected, rtol=0, atol=1e-14)
        assert_allclose(rs.c_delta, (2.0 - 2.0 * rho) * np.eye(3), atol=1e-14)

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
        rs = relative_covariance(js)
        rs_swapped = relative_covariance(js_swapped)
        assert_allclose(rs_swapped.c_delta, rs.c_delta, rtol=1e-12)
        assert_allclose(rs_swapped.delta_pos_hat, -rs.delta_pos_hat, rtol=1e-12)

    def test_matches_difference_matrix_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            js = make_joint_state(rng)
            rs = relative_covariance(js)
            expected = DIFFERENCE_MATRIX @ js.c_theta @ DIFFERENCE_MATRIX.T
            assert_allclose(rs.c_delta, expected, rtol=1e-10, atol=1e-10)


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
        rs = RelativeState(
            delta_pos_hat=[3.0, 4.0, 0.0],
            c_delta=np.diag([2.0, 5.0, 9.0]),
            delta_v_hat=[0.0, 0.0, 7500.0],
        )
        mean2, cov2 = encounter_projection(rs)
        assert np.linalg.norm(mean2) == pytest.approx(5.0, rel=1e-12)
        assert_allclose(
            np.sort(np.linalg.eigvalsh(cov2)), [2.0, 5.0], rtol=1e-12
        )

    def test_isotropic_covariance_any_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dv = rng.standard_normal(3) * 1000.0
            rs = RelativeState(
                delta_pos_hat=rng.standard_normal(3) * 100.0,
                c_delta=4.0 * np.eye(3),
                delta_v_hat=dv,
            )
            _, cov2 = encounter_projection(rs)
            assert_allclose(cov2, 4.0 * np.eye(2), rtol=0, atol=1e-12)

    def test_matches_direct_matrix_product(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rs = RelativeState(
                delta_pos_hat=rng.standard_normal(3) * 200.0,
                c_delta=random_spd(rng, 3, 50.0),
                delta_v_hat=rng.standard_normal(3) * 1000.0,
            )
            rot = encounter_frame(rs)
            mean2, cov2 = encounter_projection(rs)
            full = rot @ rs.c_delta @ rot.T
            assert_allclose(cov2, full[:2, :2], rtol=1e-12, atol=1e-12)
            assert_allclose(mean2, (rot @ rs.delta_pos_hat)[:2], rtol=1e-12)

    def test_mean_is_perpendicular_component(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rs = RelativeState(
                delta_pos_hat=rng.standard_normal(3) * 100.0,
                c_delta=random_spd(rng, 3),
                delta_v_hat=rng.standard_normal(3) * 900.0,
            )
            mean2, _ = encounter_projection(rs)
            unit = rs.delta_v_hat / rs.speed
            perp = rs.delta_pos_hat - (rs.delta_pos_hat @ unit) * unit
            assert np.linalg.norm(mean2) == pytest.approx(
                np.linalg.norm(perp), rel=1e-10
            )

    def test_zero_relative_velocity_is_degenerate(self):
        rs = RelativeState(
            delta_pos_hat=[1.0, 0.0, 0.0],
            c_delta=np.eye(3),
            delta_v_hat=[0.0, 0.0, 0.0],
        )
        with pytest.raises(DegenerateEncounterError):
            encounter_projection(rs)

    def test_parallel_displacement_uses_fallback_axis(self):
        # displacement aligned with relative velocity: not an error
        rs = RelativeState(
            delta_pos_hat=[0.0, 0.0, 50.0],
            c_delta=np.diag([1.0, 4.0, 9.0]),
            delta_v_hat=[0.0, 0.0, 7500.0],
        )
        mean2, cov2 = encounter_projection(rs)
        assert np.linalg.norm(mean2) == pytest.approx(0.0, abs=1e-12)
        assert_allclose(np.sort(np.linalg.eigvalsh(cov2)), [1.0, 4.0], rtol=1e-12)


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
            rs = relative_covariance(make_joint_state(rng))
            rot = encounter_frame(rs)
            assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0, rel=1e-12)
