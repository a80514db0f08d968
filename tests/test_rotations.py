import numpy as np

from retargetkit.rotations import (
    average_quaternions,
    expmap_to_mat,
    expmap_to_mat_jac,
    quat_from_expmap,
    quat_log_relative,
    quat_mul,
    quat_normalize,
    quat_to_mat,
    quat_to_mat_jac,
)

from conftest import central_difference, relative_error


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


def test_quat_jacobian_matches_fd(rng):
    for _ in range(10):
        q = quat_normalize(rng.normal(size=4))
        jac = quat_to_mat_jac(q).reshape(4, 9).T
        fd = central_difference(lambda v: quat_to_mat(v).ravel(), q)
        assert relative_error(jac, fd) < 1e-6


def test_expmap_jacobian_matches_fd(rng):
    for scale in (2.0, 1e-3, 1e-6):
        for _ in range(5):
            e = rng.uniform(-1, 1, size=3) * scale
            jac = expmap_to_mat_jac(e).reshape(3, 9).T
            fd = central_difference(lambda v: expmap_to_mat(v).ravel(), e, step=1e-6)
            assert relative_error(jac, fd) < 1e-4


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
