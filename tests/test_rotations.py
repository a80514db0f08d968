import numpy as np

from retargetkit.rotations import (
    average_quaternions,
    quat_from_expmap,
    quat_left_matrix,
    quat_log_relative,
    quat_mul,
    quat_normalize,
    quat_to_mat,
    rodrigues,
    skew,
)

from conftest import central_difference, expmap_to_mat, relative_error


def test_quat_and_expmap_agree(rng):
    for _ in range(20):
        e = rng.uniform(-np.pi, np.pi, size=3)
        np.testing.assert_allclose(
            quat_to_mat(quat_from_expmap(e)), expmap_to_mat(e), atol=1e-12
        )


def test_rotation_matrices_orthonormal(rng):
    for _ in range(10):
        r = expmap_to_mat(rng.uniform(-3, 3, size=3))
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_batched_rotations_match_single_calls(rng):
    e = rng.uniform(-3, 3, size=(4, 5, 3))
    e[0, 0] = 0.0
    e[1, 1] *= 1e-9
    q = quat_normalize(rng.normal(size=4))
    quats = np.stack([q, -q, quat_from_expmap(e[2, 2])])
    rot, left = rodrigues(e)
    for idx in np.ndindex(4, 5):
        single_rot, single_left = rodrigues(e[idx])
        np.testing.assert_array_equal(rot[idx], single_rot)
        np.testing.assert_array_equal(left[idx], single_left)
        np.testing.assert_array_equal(expmap_to_mat(e[idx]), single_rot)
    for k in range(3):
        np.testing.assert_array_equal(quat_to_mat(quats)[k], quat_to_mat(quats[k]))
    np.testing.assert_array_equal(rodrigues(np.zeros(3))[0], np.eye(3))
    np.testing.assert_array_equal(rodrigues(np.zeros(3))[1], np.eye(3))


def test_rotation_derivatives_match_fd(rng):
    # dR/de_k = [J_l(e) e_k]x R(e): checks the Rodrigues map and its left
    # Jacobian at once; 1e-6 and 0 exercise the small-angle end
    for scale in (2.0, 1e-3, 1e-6, 0.0):
        for _ in range(5):
            e = rng.uniform(-1, 1, size=3) * scale
            rot, left = rodrigues(e)
            analytic = np.stack([(skew(left[:, k]) @ rot).ravel() for k in range(3)], axis=1)
            fd = central_difference(lambda v: expmap_to_mat(v).ravel(), e)
            assert relative_error(analytic, fd) < 1e-4


def test_left_jacobian_is_transposed_right_jacobian(rng):
    # exp(e + d) = exp(J_l d) exp(e) = exp(e) exp(J_r d), so J_l = R J_r,
    # with J_r = J_l^T
    for scale in (2.0, 1e-6):
        e = rng.uniform(-1, 1, size=3) * scale
        rot, left = rodrigues(e)
        np.testing.assert_allclose(rot @ left.T, left, atol=1e-15)


def test_quat_left_matrix_is_the_hamilton_product(rng):
    for _ in range(5):
        a, b = rng.normal(size=(2, 4))
        np.testing.assert_allclose(quat_left_matrix(a) @ b, quat_mul(a, b), atol=1e-15)


def test_average_quaternions_constant_input():
    q = quat_from_expmap((0.3, -0.2, 0.1))
    avg = average_quaternions(np.tile(q, (5, 1)))
    np.testing.assert_allclose(avg, q, atol=1e-12)


def test_average_quaternions_sign_alignment():
    q = quat_from_expmap((0.3, 0.0, 0.0))
    flipped = np.stack([q, -q, q])
    avg = average_quaternions(flipped, ref_index=0)
    np.testing.assert_allclose(np.abs(avg @ q), 1.0, atol=1e-12)


def test_relative_log_inverts_expmap_for_either_sign(rng):
    for _ in range(20):
        q = quat_from_expmap(rng.uniform(-1.0, 1.0, size=3))
        e = rng.uniform(-1.5, 1.5, size=3)
        turned = quat_mul(q, quat_from_expmap(e))
        for a, b in ((q, turned), (-q, turned), (q, -turned)):
            np.testing.assert_allclose(quat_log_relative(a, b), e, atol=1e-12)
        # equal or opposite quaternions give exactly zero
        assert not np.any(quat_log_relative(turned, turned))
        assert not np.any(quat_log_relative(turned, -turned))
