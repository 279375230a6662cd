"""K-sigma screening decisions: confidences, overlap rule, coverage cap."""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conjrisk import (
    InputValidationError,
    JointState,
    joint_confidence,
    ksigma_confidence,
    parse_conjunction,
    screen_conjunction,
)
from conjrisk.screening import position_ellipsoids

from conftest import mp_ellipsoid_distance, random_rotation, random_spd

FULL12 = Path(__file__).parent / "golden" / "inputs" / "full12.json"


def _conjunction_state(p1, p2, cov1_pos, cov2_pos, r1=5.0, r2=5.0, vel_var=1e-4):
    theta = np.concatenate(
        [p1, [0.0, 7500.0, 0.0], p2, [0.0, -7400.0, 120.0]]
    )
    cov = np.zeros((12, 12))
    cov[0:3, 0:3] = cov1_pos
    cov[3:6, 3:6] = vel_var * np.eye(3)
    cov[6:9, 6:9] = cov2_pos
    cov[9:12, 9:12] = vel_var * np.eye(3)
    return JointState(theta_hat=theta, c_theta=cov, r1=r1, r2=r2)


class TestKsigmaConfidence:
    def test_four_sigma_three_dimensional(self):
        assert ksigma_confidence(4.0) == pytest.approx(0.99887, abs=5e-6)

    @pytest.mark.parametrize("k", [*np.geomspace(1e-8, 40.0, 61), 0.015, 1.5, 1.5 - 1e-12])
    def test_three_dimensional_against_mpmath(self, k):
        # the closed form erf(k/sqrt 2) - sqrt(2/pi) k exp(-k^2/2) alone
        # cancels: 1.6e-12 relative at k = 0.015
        k = float(k)
        reference = mpmath.gammainc(mpmath.mpf(1.5), 0, mpmath.mpf(k) ** 2 / 2,
                                    regularized=True)
        assert abs(ksigma_confidence(k) - reference) <= 1e-14 * reference

    def test_strictly_increasing_in_k(self):
        values = [ksigma_confidence(k) for k in np.linspace(0.1, 6.0, 50)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(InputValidationError):
            ksigma_confidence(0.0)


class TestJointConfidence:
    def test_four_sigma_three_dimensional_example(self):
        alpha = 1.0 - ksigma_confidence(4.0)
        assert alpha == pytest.approx(0.001134, abs=2e-6)
        independent, frechet = joint_confidence(alpha)
        assert independent == pytest.approx(0.99773, abs=5e-6)
        assert frechet == pytest.approx(0.99773, abs=5e-6)
        assert 1.0 - frechet == pytest.approx(0.00227, abs=5e-6)

    def test_extremes(self):
        assert joint_confidence(0.0) == (1.0, 1.0)
        assert joint_confidence(0.6)[1] == 0.0
        assert joint_confidence(1.0) == (0.0, 0.0)

    def test_frechet_never_exceeds_independence(self):
        for alpha in np.linspace(0.0, 1.0, 101):
            independent, frechet = joint_confidence(float(alpha))
            assert frechet <= independent + 1e-15 <= 1.0 - alpha + 2e-15


class TestPositionEllipsoids:
    def test_bodies_are_valid_ellipsoids(self):
        # the bodies skip Ellipsoid's checks; what those checked holds here,
        # over position variances from 1e-200 to 1e200 and axis ratios to 1e8
        rng = np.random.default_rng(31)
        for _ in range(200):
            covs = []
            for _ in range(2):
                variances = 10.0 ** (rng.uniform(-200.0, 192.0) + rng.uniform(0.0, 8.0, 3))
                rot = random_rotation(rng)
                covs.append((rot * variances) @ rot.T)
            js = _conjunction_state(rng.normal(0.0, 1e3, 3), rng.normal(0.0, 1e3, 3), *covs)
            for body in position_ellipsoids(js, float(rng.uniform(0.5, 6.0))):
                assert np.abs(body.axes.T @ body.axes - np.eye(3)).max() <= 1e-10
                assert (body.semi_lengths > 0.0).all()
                assert np.isfinite(body.semi_lengths).all()
                for arr in (body.center, body.axes, body.semi_lengths):
                    assert arr.shape == (3, 3)[:arr.ndim]
                    assert not arr.flags.writeable


class TestScreenConjunction:
    def test_four_sigma_reference_decision(self):
        js = _conjunction_state(
            np.zeros(3), np.array([400.0, 0.0, 0.0]),
            100.0 * np.eye(3), 100.0 * np.eye(3),
        )
        decision = screen_conjunction(js, 4.0)
        assert decision.per_object_confidence == pytest.approx(0.99887, abs=5e-6)
        assert decision.joint_confidence_independent == pytest.approx(
            0.99773, abs=5e-6
        )
        assert decision.collision_risk_cap == pytest.approx(0.00227, abs=5e-6)
        # spheres of radius 40 at separation 400: gap 320, combined radius 10
        assert decision.min_distance == pytest.approx(320.0, abs=1e-6)
        assert not decision.overlap

    def test_distance_within_one_ulp(self):
        # input of the screen_full12 golden: within one ulp of the 40-digit
        # distance between the K-sigma position ellipsoids
        conj = parse_conjunction(FULL12.read_text(encoding="utf-8"))
        js = conj.to_joint_state()
        k = 5.0
        got = screen_conjunction(js, k).min_distance
        reference = mp_ellipsoid_distance(
            js.theta_hat[0:3], js.c_theta[0:3, 0:3],
            js.theta_hat[6:9], js.c_theta[6:9, 6:9], k=k,
        )
        assert abs(got - reference) <= math.ulp(got)

    def test_identical_positions_always_overlap(self):
        rng = np.random.default_rng(20)
        p = np.array([100.0, -50.0, 30.0])
        js = _conjunction_state(p, p, random_spd(rng, 3), random_spd(rng, 3))
        for k in (0.5, 1.0, 4.0, 8.0):
            assert screen_conjunction(js, k).overlap

    def test_far_separation_never_overlaps(self):
        rng = np.random.default_rng(21)
        cov1 = random_spd(rng, 3)
        cov2 = random_spd(rng, 3)
        k = 4.0
        reach = k * math.sqrt(
            max(np.linalg.eigvalsh(cov1).max(), np.linalg.eigvalsh(cov2).max())
        )
        p2 = np.array([2.0 * reach + 100.0, 0.0, 0.0])
        js = _conjunction_state(np.zeros(3), p2, cov1, cov2)
        assert not screen_conjunction(js, k).overlap

    def test_overlap_thresholds_at_combined_radius(self):
        # spheres of radius k*10 = 40; boundary gap 20 vs combined radius 10
        cov = 100.0 * np.eye(3)
        near = _conjunction_state(
            np.zeros(3), np.array([89.0, 0.0, 0.0]), cov, cov
        )
        far = _conjunction_state(
            np.zeros(3), np.array([91.0, 0.0, 0.0]), cov, cov
        )
        assert screen_conjunction(near, 4.0).overlap  # gap 9 <= 10
        assert not screen_conjunction(far, 4.0).overlap  # gap 11 > 10

    def test_rigid_rotation_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            js = _conjunction_state(
                rng.standard_normal(3) * 50.0,
                rng.standard_normal(3) * 50.0 + np.array([150.0, 0.0, 0.0]),
                random_spd(rng, 3, 20.0),
                random_spd(rng, 3, 20.0),
            )
            rot = random_rotation(rng)
            block = np.kron(np.eye(4), rot)
            js_rot = JointState(
                theta_hat=block @ js.theta_hat,
                c_theta=block @ js.c_theta @ block.T,
                r1=js.r1,
                r2=js.r2,
            )
            base = screen_conjunction(js, 3.0)
            rotated = screen_conjunction(js_rot, 3.0)
            assert rotated.overlap == base.overlap
            assert rotated.min_distance == pytest.approx(
                base.min_distance, rel=1e-8, abs=1e-8
            )

    def test_confidence_ordering_invariant(self):
        js = _conjunction_state(
            np.zeros(3), np.array([100.0, 0.0, 0.0]),
            25.0 * np.eye(3), 25.0 * np.eye(3),
        )
        for k in (0.2, 1.0, 2.5, 5.0):
            d = screen_conjunction(js, k)
            assert (
                d.joint_confidence_frechet
                <= d.joint_confidence_independent
                <= d.per_object_confidence
            )
            if d.per_object_confidence >= 0.5:
                assert d.collision_risk_cap == pytest.approx(
                    1.0 - d.joint_confidence_frechet, rel=1e-12
                )

    def test_singular_position_block_rejected(self):
        cov = np.zeros((12, 12))
        cov[0:3, 0:3] = np.diag([1.0, 1.0, 0.0])
        cov[3:6, 3:6] = np.eye(3)
        cov[6:9, 6:9] = np.eye(3)
        cov[9:12, 9:12] = np.eye(3)
        theta = np.zeros(12)
        theta[9:12] = [0.0, 0.0, 1000.0]
        js = JointState(theta_hat=theta, c_theta=cov, r1=1.0, r2=1.0)
        with pytest.raises(InputValidationError, match="positive definite"):
            screen_conjunction(js, 4.0)

    def test_tiny_position_block_keeps_its_digits(self):
        # object 1 position variances 1e-93 to 1e-85, correlated with its
        # velocity; object 2's block has an eigenvalue of -1e-6, inside the
        # round-off tolerance. Rebuilding the whole matrix from clamped
        # eigenvalues would leave errors of 1e-30 to 1e-17 in object 1's
        # block and make its ellipsoid degenerate.
        scale = np.sqrt([1e-85, 1e-89, 1e-93, 1e-2, 1e-3, 1e-4])
        cov = np.zeros((12, 12))
        cov[0:6, 0:6] = (0.5 * np.eye(6) + 0.5) * np.outer(scale, scale)
        rot = random_rotation(np.random.default_rng(24), 6)
        cov[6:12, 6:12] = (rot * [4e4, 2.5e4, 1e4, 1.0, 0.5, -1e-6]) @ rot.T
        cov = 0.5 * (cov + cov.T)
        theta = np.array(
            [0.0, 0.0, 0.0, 0.0, 7500.0, 0.0, 3000.0, 0.0, 3000.0, 0.0, -7500.0, 10.0]
        )
        js = JointState(theta_hat=theta, c_theta=cov, r1=2.0, r2=2.0)
        assert np.array_equal(js.c_theta[0:3, 0:3], cov[0:3, 0:3])
        eig = np.linalg.eigvalsh(js.c_theta[0:3, 0:3])
        assert 1e-94 < eig[0] and eig[-1] < 1e-84
        decision = screen_conjunction(js, 4.0)
        assert decision.min_distance > 0.0 and not decision.overlap

    def test_json_wire_keys(self):
        js = _conjunction_state(
            np.zeros(3), np.array([400.0, 0.0, 0.0]),
            100.0 * np.eye(3), 100.0 * np.eye(3),
        )
        doc = screen_conjunction(js, 4.0).to_json_dict()
        assert set(doc) == {
            "min_distance_m", "overlap", "k", "confidence",
            "joint_confidence", "frechet_bound", "risk_cap",
        }


class TestCoverageCap:
    def test_missed_maneuver_rate_capped(self):
        # truths on a collision course; estimates drawn around them
        rng = np.random.default_rng(23)
        cov1 = random_spd(rng, 3, 300.0)
        cov2 = random_spd(rng, 3, 300.0)
        chol1 = np.linalg.cholesky(cov1)
        chol2 = np.linalg.cholesky(cov2)
        p1 = np.zeros(3)
        p2 = np.array([6.0, 3.0, 6.4])  # true miss 9.27 m < combined 10 m
        k = 3.0
        alpha = 1.0 - ksigma_confidence(k)
        n = 3000
        misses = 0
        for _ in range(n):
            js = _conjunction_state(
                p1 + chol1 @ rng.standard_normal(3),
                p2 + chol2 @ rng.standard_normal(3),
                cov1,
                cov2,
            )
            if not screen_conjunction(js, k).overlap:
                misses += 1
        rate = misses / n
        stderr = math.sqrt(rate * (1.0 - rate) / n)
        assert rate <= 2.0 * alpha + 3.0 * stderr + 3.0 / n
