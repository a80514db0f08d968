from dataclasses import replace

import numpy as np
import pytest

from retargetkit.errors import DataError
from retargetkit.kinematics import (
    SCALE_BOUNDS,
    Pose,
    fit_shape,
    fk,
    fk_jacobian,
    fk_jacobian_vector,
    fk_sequence,
    fk_vector,
    pose_param_count,
    pose_to_vector,
    scale_jacobian,
    tpose,
    vector_kinematics,
)
from retargetkit.motionio import ShapeParams
from retargetkit.rotations import quat_from_expmap, quat_to_mat

from conftest import (
    expmap_to_mat,
    held_box_motion,
    make_chain,
    make_humanoid,
    random_pose,
    relative_error,
    tangent_difference,
    vector_to_pose,
)


def rot_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


class TestFk:
    def test_identity_chain(self):
        skel = make_chain(2)
        pos = fk(skel, ShapeParams.ones(2), tpose(skel))
        np.testing.assert_allclose(pos, [[0, 0, 0], [0, 1, 0]], atol=1e-15)

    def test_root_rotation_90deg_about_x(self):
        # oracle: hand rotation-matrix multiplication
        skel = make_chain(2)
        pose = Pose(
            root_pos=np.zeros(3),
            root_rot=quat_from_expmap((np.pi / 2, 0.0, 0.0)),
            joint_rots=np.zeros((1, 3)),
        )
        expected_child = rot_x(np.pi / 2) @ np.array([0.0, 1.0, 0.0])
        pos = fk(skel, ShapeParams.ones(2), pose)
        np.testing.assert_allclose(pos[1], expected_child, atol=1e-9)
        np.testing.assert_allclose(pos[1], [0, 0, 1], atol=1e-9)

    def test_bone_scale_doubles_offset(self):
        skel = make_chain(2)
        shape = ShapeParams(bone_scales=np.array([1.0, 2.0]))
        pos = fk(skel, shape, tpose(skel))
        np.testing.assert_allclose(pos[1], [0, 2, 0], atol=1e-15)

    def test_own_rotation_moves_own_position(self):
        # the joint's rotation precedes its offset translation
        skel = make_chain(3)
        rots = np.zeros((2, 3))
        rots[0] = (np.pi / 2, 0.0, 0.0)
        pose = Pose(np.zeros(3), np.array([1.0, 0, 0, 0]), rots)
        pos = fk(skel, ShapeParams.ones(3), pose)
        np.testing.assert_allclose(pos[1], [0, 0, 1], atol=1e-9)
        np.testing.assert_allclose(pos[2], [0, 0, 2], atol=1e-9)

    def test_dimension_mismatch(self):
        skel = make_chain(3)
        with pytest.raises(DataError):
            fk(skel, ShapeParams.ones(2), tpose(skel))

    def test_equivariance_under_root_rotation(self, rng):
        # rotating root_rot and root_pos by R rotates all world positions by R
        skel = make_humanoid()
        shape = ShapeParams.ones(skel.joint_count)
        pose = random_pose(skel, rng)
        base = fk(skel, shape, pose)
        for _ in range(10):
            e = rng.uniform(-np.pi, np.pi, size=3)
            q = quat_from_expmap(e)
            rot = quat_to_mat(q)
            from retargetkit.rotations import quat_mul, quat_normalize

            rotated = Pose(
                root_pos=rot @ pose.root_pos,
                root_rot=quat_normalize(quat_mul(q, pose.root_rot)),
                joint_rots=pose.joint_rots,
            )
            np.testing.assert_allclose(
                fk(skel, shape, rotated), base @ rot.T, atol=1e-9
            )


class TestFkJacobian:
    def test_translation_block_is_identity(self, chain4, rng):
        shape = ShapeParams.ones(4)
        x = pose_to_vector(random_pose(chain4, rng))
        _, jac = fk_jacobian_vector(chain4, shape, x)
        for i in range(4):
            np.testing.assert_allclose(jac[3 * i : 3 * i + 3, 0:3], np.eye(3), atol=1e-12)

    def test_matches_central_differences(self, chain4, rng):
        # finite-difference oracle, step 1e-5, through root_rot * exp(delta)
        shape = ShapeParams.ones(4)
        for _ in range(5):
            x = pose_to_vector(random_pose(chain4, rng))
            _, jac = fk_jacobian_vector(chain4, shape, x)
            fd = tangent_difference(lambda v: fk_vector(chain4, shape, v), x)
            assert relative_error(jac, fd) < 1e-4

    def test_matches_fd_on_humanoid(self, humanoid, rng):
        shape = ShapeParams(bone_scales=rng.uniform(0.5, 2.0, humanoid.joint_count))
        x = pose_to_vector(random_pose(humanoid, rng))
        positions, jac = fk_jacobian_vector(humanoid, shape, x)
        fd = tangent_difference(lambda v: fk_vector(humanoid, shape, v), x)
        assert jac.shape == (3 * humanoid.joint_count, 3 * humanoid.joint_count + 3)
        assert relative_error(jac, fd) < 1e-4
        np.testing.assert_array_equal(positions, fk_vector(humanoid, shape, x))
        np.testing.assert_array_equal(fk_jacobian(humanoid, shape, vector_to_pose(x, humanoid.joint_count)), jac)

    def test_supplied_pass_gives_the_same_arrays(self, humanoid, rng):
        shape = ShapeParams(bone_scales=rng.uniform(0.5, 2.0, humanoid.joint_count))
        x = pose_to_vector(random_pose(humanoid, rng))
        kinematics = vector_kinematics(humanoid, shape, x)
        positions, jac = fk_jacobian_vector(humanoid, shape, x)
        reused_positions, reused_jac = fk_jacobian_vector(humanoid, shape, x, kinematics)
        assert np.array_equal(reused_positions, positions)
        assert np.array_equal(reused_jac, jac)
        # the pass is read, not written: a second use gives the same again
        assert np.array_equal(fk_jacobian_vector(humanoid, shape, x, kinematics)[1], jac)
        assert np.array_equal(kinematics[2][0], fk_vector(humanoid, shape, x))

    def test_zero_length_bone_rotation_columns(self):
        skel = make_chain(3)
        offsets = skel.rest_offsets.copy()
        offsets[1] = 0.0  # zero-length bone 1
        skel2 = make_chain(3)
        object.__setattr__(skel2, "rest_offsets", offsets)
        x = pose_to_vector(tpose(skel2))
        _, jac = fk_jacobian_vector(skel2, ShapeParams.ones(3), x)
        own_cols = jac[3 : 6, 6 : 9]  # joint 1 position vs its own rotation
        np.testing.assert_allclose(own_cols, 0.0, atol=1e-15)


def loop_fk(skeleton, shape, pose):
    """Reference FK: one joint at a time down the chain."""
    rot, pos = [quat_to_mat(pose.root_rot)], [pose.root_pos]
    for i in range(1, skeleton.joint_count):
        p = skeleton.parents[i]
        rot.append(rot[p] @ expmap_to_mat(pose.joint_rots[i - 1]))
        pos.append(pos[p] + rot[i] @ (shape.bone_scales[i] * skeleton.rest_offsets[i]))
    return np.array(pos)


class TestFkSequence:
    def test_matches_per_frame_fk(self, humanoid, rng):
        shape = ShapeParams(bone_scales=rng.uniform(0.5, 2.0, humanoid.joint_count))
        seq = held_box_motion(humanoid, frames=12)
        poses = [random_pose(humanoid, rng) for _ in range(seq.frame_count)]
        seq = replace(
            seq,
            root_pos=np.stack([p.root_pos for p in poses]),
            root_rot=np.stack([p.root_rot for p in poses]),
            joint_rots=np.stack([p.joint_rots for p in poses]),
        )
        batched = fk_sequence(humanoid, shape, seq)
        for t, pose in enumerate(poses):
            np.testing.assert_allclose(batched[t], fk(humanoid, shape, pose), rtol=0.0, atol=1e-15)
            # summation order differs from the chain loop: round-off of ~1 m sums
            np.testing.assert_allclose(batched[t], loop_fk(humanoid, shape, pose), rtol=0.0, atol=1e-14)


class TestFitShape:
    def test_fixed_point_of_objective(self, chain4):
        source = fk(chain4, ShapeParams.ones(4), tpose(chain4))
        shape, residual = fit_shape(chain4, source)
        np.testing.assert_array_equal(shape.bone_scales, 1.0)
        assert residual == 0.0
        # a zero-length bone moves nothing, so its scale stays exactly 1.0
        offsets = chain4.rest_offsets.copy()
        offsets[2] = 0.0
        skel = replace(chain4, rest_offsets=offsets)
        source = fk(skel, ShapeParams(bone_scales=np.array([1.0, 1.3, 0.7, 1.6])), tpose(skel))
        shape, residual = fit_shape(skel, source)
        assert shape.bone_scales[0] == 1.0 and shape.bone_scales[2] == 1.0
        np.testing.assert_allclose(shape.bone_scales[[1, 3]], [1.3, 1.6], rtol=1e-12)
        assert residual < 1e-12

    def test_recovers_known_scales(self):
        # forward-model round trip with 1.3x bones on a 5-joint chain
        skel = make_chain(5)
        true = ShapeParams(bone_scales=np.full(5, 1.3))
        source = fk(skel, true, tpose(skel))
        shape, residual = fit_shape(skel, source)
        np.testing.assert_allclose(shape.bone_scales[1:], 1.3, atol=1e-3)
        assert residual < 1e-3

    def test_recovers_humanoid_proportions_exactly(self):
        # per-bone factors that 500 Adam steps fitted only to 5.7e-3 m RMS
        skel = make_humanoid()
        factors = np.random.default_rng(1).uniform(0.6, 1.6, skel.joint_count)
        source = fk(skel, ShapeParams(bone_scales=factors), tpose(skel))
        shape, residual = fit_shape(skel, source)
        assert residual < 1e-9
        np.testing.assert_allclose(shape.bone_scales[1:], factors[1:], rtol=1e-9, atol=0.0)

    def test_matches_bounded_least_squares_oracle(self):
        # scipy's BVLS on the same affine model; the factors drive scales
        # below 0.1 and above 10, and the noise makes targets unreachable
        optimize = pytest.importorskip("scipy.optimize")
        skel = make_humanoid()
        j = skel.joint_count
        rng = np.random.default_rng(7)
        low = high = 0
        for _ in range(40):
            factors = np.exp(rng.uniform(np.log(0.02), np.log(40.0), j))
            source = fk(skel, ShapeParams(bone_scales=factors), tpose(skel))
            source = source + rng.normal(scale=0.02, size=source.shape)
            shape, residual = fit_shape(skel, source)

            pose = tpose(skel, root_pos=source[0])
            jac = scale_jacobian(skel, ShapeParams.ones(j), pose)
            offset = (fk(skel, ShapeParams.ones(j), pose) - source).ravel() - jac @ np.ones(j)
            oracle = optimize.lsq_linear(jac, -offset, bounds=SCALE_BOUNDS, method="bvls")
            r = jac @ oracle.x + offset
            assert residual == pytest.approx(np.sqrt(r @ r / j), abs=1e-12)
            assert np.all((shape.bone_scales >= SCALE_BOUNDS[0]) & (shape.bone_scales <= SCALE_BOUNDS[1]))
            low += np.any(shape.bone_scales == SCALE_BOUNDS[0])
            high += np.any(shape.bone_scales == SCALE_BOUNDS[1])
        assert low > 0 and high > 0

    def test_unreachable_target_reports_residual(self):
        skel = make_chain(2)
        source = fk(skel, ShapeParams.ones(2), tpose(skel))
        source = source.copy()
        source[1] += np.array([0.5, 0.0, 0.0])  # orthogonal to the (0,1,0) bone
        shape, residual = fit_shape(skel, source)
        assert residual > 0.1

    def test_joint_count_mismatch(self, chain4):
        with pytest.raises(DataError):
            fit_shape(chain4, np.zeros((3, 3)))


class TestPoseVector:
    def test_round_trip(self, humanoid, rng):
        pose = random_pose(humanoid, rng)
        x = pose_to_vector(pose)
        assert x.shape == (pose_param_count(humanoid.joint_count),)
        back = vector_to_pose(x, humanoid.joint_count)
        np.testing.assert_array_equal(back.root_pos, pose.root_pos)
        np.testing.assert_array_equal(back.joint_rots, pose.joint_rots)
