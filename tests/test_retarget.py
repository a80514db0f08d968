from dataclasses import replace

import numpy as np
import pytest

from retargetkit import interactmesh, kinematics, retarget
from retargetkit.errors import DataError
from retargetkit.interactmesh import AGENT_A, AGENT_B, RetentionRule, build_interact_mesh, laplacians
from retargetkit.kinematics import (
    Pose,
    fk,
    fk_sequence,
    fk_vector,
    pose_to_vector,
    stored_vector,
    tangent_vector,
)
from retargetkit.motionio import MotionSequence, ObjectMesh, ShapeParams
from retargetkit.optim import OptimizerConfig, levenberg_marquardt, lockstep_levenberg_marquardt
from retargetkit.retarget import (
    FrameStack,
    RetargetConfig,
    build_frame_meshes,
    mean_sequence_residual,
    object_world_vertices,
    predict_frame,
    retarget_sequence,
    slide_gates,
    source_meshes,
    target_point_cloud,
)
from retargetkit.rotations import quat_from_expmap, quat_mul, quat_to_mat

from conftest import (
    central_difference,
    count_insertions,
    empty_circumsphere_ok,
    held_box_motion,
    make_box,
    make_chain,
    make_humanoid,
    motion_frame_pose,
    partner_motion,
    random_pose,
    relative_error,
    tangent_difference,
)

ONE = np.zeros(1, dtype=int)  # the rows of a FrameStack of one target


def chain_mesh(skeleton, pose, rng):
    """Small HOI mesh around a chain's current joint positions."""
    joints = fk(skeleton, ShapeParams.ones(skeleton.joint_count), pose)
    obj = joints.mean(axis=0) + rng.uniform(-0.2, 0.2, size=(4, 3)) + (0.15, 0.1, 0.05)
    return build_interact_mesh(joints, None, obj, RetentionRule(mode="loose", proximity_gate=None))


def one_target(prev, dt, feet, skeleton, shape, mesh, cfg=None):
    """A FrameStack of one target with the slide feet feet, around the pose
    prev, which is also its prediction and anchor."""
    x_prev = pose_to_vector(prev)[None]
    return FrameStack([skeleton], [shape], x_prev, dt, [feet], mesh, cfg or RetargetConfig())


def one_target_terms(pose, prev, dt, feet, skeleton, shape, mesh, cfg=None) -> dict[str, float]:
    terms = one_target(prev, dt, feet, skeleton, shape, mesh, cfg).terms(ONE, pose_to_vector(pose)[None])
    return {name: float(value[0]) for name, value in terms.items()}


class TestEvalObjective:
    def test_identity_all_terms_zero(self, chain4, rng):
        shape = ShapeParams.ones(4)
        pose = random_pose(chain4, rng)
        mesh = chain_mesh(chain4, pose, rng)
        terms = one_target_terms(pose, pose, 1 / 30, (), chain4, shape, mesh)
        assert sum(terms.values()) == pytest.approx(0.0, abs=1e-18)
        assert all(v == pytest.approx(0.0, abs=1e-18) for v in terms.values())

    def test_velocity_limit_hinge_value(self, chain4):
        shape = ShapeParams.ones(4)
        dt = 1 / 30
        prev = Pose(np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros((3, 3)))
        rots = np.zeros((3, 3))
        rots[0, 1] = chain4.v_max[1] * dt + 0.05
        pose = Pose(np.zeros(3), np.array([1.0, 0, 0, 0]), rots)
        terms = one_target_terms(pose, prev, dt, (), chain4, shape, None)
        assert terms["vlimit"] == pytest.approx(0.05, abs=1e-12)
        # the same displacement also shows up in the temporal term
        assert terms["temporal"] == pytest.approx(rots[0, 1] ** 2, abs=1e-12)
        # measured from a prediction at the pose, the temporal term vanishes;
        # the velocity hinge still measures from the previous pose
        x = pose_to_vector(pose)[None]
        stack = FrameStack([chain4], [shape], pose_to_vector(prev)[None], dt, [()], None, RetargetConfig(), x)
        terms = stack.terms(ONE, x)
        assert terms["temporal"][0] == 0.0
        assert terms["vlimit"][0] == pytest.approx(0.05, abs=1e-12)

    def test_empty_mesh_zeroes_laplacian(self, chain4, rng):
        shape = ShapeParams.ones(4)
        pose = random_pose(chain4, rng)
        terms = one_target_terms(pose, pose, 0.01, (), chain4, shape, None)
        assert terms["laplacian"] == 0.0

    def test_weights_scale_terms(self, chain4, rng):
        shape = ShapeParams.ones(4)
        pose = random_pose(chain4, rng)
        prev = random_pose(chain4, rng)
        base = one_target_terms(pose, prev, 1 / 30, (), chain4, shape, None)
        scaled = one_target_terms(pose, prev, 1 / 30, (), chain4, shape, None, RetargetConfig(temporal_weight=2.5))
        assert scaled["temporal"] == pytest.approx(2.5 * base["temporal"], rel=1e-12)


class TestObjectiveGradient:
    def test_zero_at_identity_minimum(self, chain4, rng):
        shape = ShapeParams.ones(4)
        pose = random_pose(chain4, rng)
        mesh = chain_mesh(chain4, pose, rng)
        xi = tangent_vector(pose_to_vector(pose)[None])
        grad = one_target(pose, 1 / 30, (3,), chain4, shape, mesh).gradient(ONE, xi)[0]
        assert np.linalg.norm(grad) < 1e-9

    def test_matches_finite_differences(self, rng):
        # oracle: central differences at 1e-5, away from hinge kinks
        skel = make_chain(4, foot_joints=(3,))
        shape = ShapeParams.ones(4)
        cfg = RetargetConfig()
        dt = 1 / 30
        checked = 0
        while checked < 5:
            pose = random_pose(skel, rng)
            prev = random_pose(skel, rng)
            r = pose.joint_rots
            dq = r - prev.joint_rots
            vstep = skel.v_max[1:, None] * dt
            kink = min(
                np.abs(skel.q_min[1:] - r).min(),
                np.abs(skel.q_max[1:] - r).min(),
                np.abs(dq - vstep).min(),
                np.abs(dq + vstep).min(),
            )
            if kink < 1e-3:
                continue
            mesh = chain_mesh(skel, pose, rng)
            x, x_prev = pose_to_vector(pose), pose_to_vector(prev)
            # a prediction apart from the previous pose: the temporal term
            # measures from it, the velocity hinges from the previous pose
            x_pred = pose_to_vector(random_pose(skel, rng))
            stack = FrameStack([skel], [shape], x_prev[None], dt, [(3,)], mesh, cfg, x_pred[None], anchor=x[None, 3:7])
            grad = stack.gradient(ONE, tangent_vector(x)[None])[0]
            fd = tangent_difference(lambda v: sum(t[0] for t in stack.terms(ONE, v[None]).values()), x).ravel()
            assert relative_error(grad, fd) < 1e-4
            checked += 1

    def test_hinge_at_kink_contributes_zero(self, chain4):
        shape = ShapeParams.ones(4)
        rots = np.zeros((3, 3))
        rots[0, 0] = chain4.q_max[1, 0]  # exactly at the kink
        pose = Pose(np.zeros(3), np.array([1.0, 0, 0, 0]), rots)
        xi = tangent_vector(pose_to_vector(pose)[None])
        grad = one_target(pose, 0.01, (), chain4, shape, None).gradient(ONE, xi)[0]
        assert np.linalg.norm(grad) == 0.0


class TestRetargetSequence:
    def _quick_cfg(self):
        return RetargetConfig()

    def test_identity_reproduces_source(self, humanoid, box):
        seq = held_box_motion(humanoid, frames=30, amplitude=0.05)
        shape = ShapeParams.ones(humanoid.joint_count)
        from retargetkit.interactmesh import RetentionRule

        cfg = RetargetConfig(retention=RetentionRule(proximity_gate=None))
        result = retarget_sequence(seq, humanoid, shape, humanoid, shape, box, cfg)
        src = fk_sequence(humanoid, shape, seq)
        out = fk_sequence(humanoid, shape, result.sequence)
        assert np.max(np.linalg.norm(src - out, axis=2)) < 1e-3

    def test_single_frame_zeroes_time_terms(self, humanoid, box):
        seq = held_box_motion(humanoid, frames=1)
        shape = ShapeParams.ones(humanoid.joint_count)
        result = retarget_sequence(seq, humanoid, shape, humanoid, shape, box, self._quick_cfg())
        frame = result.per_frame_losses[0]
        assert frame.temporal == pytest.approx(0.0, abs=1e-12)
        assert frame.vlimit == pytest.approx(0.0, abs=1e-12)
        assert frame.slide == pytest.approx(0.0, abs=1e-12)

    def test_scaled_skeleton_beats_copy_baseline(self, humanoid, box):
        seq = held_box_motion(humanoid, frames=8)
        ones = ShapeParams.ones(humanoid.joint_count)
        scaled = ShapeParams(bone_scales=np.full(humanoid.joint_count, 1.2))
        cfg = self._quick_cfg()
        result = retarget_sequence(seq, humanoid, ones, humanoid, scaled, box, cfg)

        src_joints = fk_sequence(humanoid, ones, seq)
        obj_world = object_world_vertices(box, seq, cfg.max_object_vertices)
        meshes = build_frame_meshes(src_joints, None, obj_world, cfg)
        assert any(m is not None for m in meshes)
        copy_residual = mean_sequence_residual(meshes, humanoid, scaled, seq)
        optimized_residual = mean_sequence_residual(meshes, humanoid, scaled, result.sequence)
        assert optimized_residual < copy_residual

    def test_limits_hard_satisfied(self, box):
        skel = make_humanoid(q_limit=0.5)
        seq = held_box_motion(make_humanoid(), frames=4)  # source poses exceed 0.5
        ones = ShapeParams.ones(skel.joint_count)
        result = retarget_sequence(seq, make_humanoid(), ones, skel, ones, box, self._quick_cfg())
        rots = result.sequence.joint_rots
        assert np.all(rots >= skel.q_min[1:] - 1e-6)
        assert np.all(rots <= skel.q_max[1:] + 1e-6)

    @pytest.mark.xfail(
        strict=True,
        reason="Gauss-Newton runs to its iteration cap once the joint limits bind: "
        "frames take 100, 100, 6, 100, 100, 6 iterations",
    )
    def test_converges_where_joint_limits_bind(self):
        source = make_humanoid()
        seq = held_box_motion(source, frames=6, amplitude=0.2)
        ones = ShapeParams.ones(source.joint_count)
        result = retarget_sequence(seq, source, ones, make_humanoid(q_limit=0.5), ones, make_box(subdiv=2))
        cap = RetargetConfig().optimizer.max_iterations
        assert all(f.converged and f.iterations < cap for f in result.per_frame_losses)

    def test_slide_gates_use_the_target_feet(self, humanoid, box):
        # the source's feet stand still, so the target's feet are gated; a
        # target without feet has no slide term
        seq = held_box_motion(humanoid, frames=6)
        ones = ShapeParams.ones(humanoid.joint_count)
        scaled = ShapeParams(bone_scales=np.full(humanoid.joint_count, 1.2))
        with_feet, without = (
            retarget_sequence(seq, humanoid, ones, target, scaled, box, self._quick_cfg())
            for target in (humanoid, replace(humanoid, foot_joints=frozenset()))
        )
        assert any(f.slide > 0.0 for f in with_feet.per_frame_losses)
        assert all(f.slide == 0.0 for f in without.per_frame_losses)

    def test_deterministic(self, humanoid, box):
        seq = held_box_motion(humanoid, frames=4)
        shape = ShapeParams.ones(humanoid.joint_count)
        a = retarget_sequence(seq, humanoid, shape, humanoid, shape, box, self._quick_cfg())
        b = retarget_sequence(seq, humanoid, shape, humanoid, shape, box, self._quick_cfg())
        np.testing.assert_array_equal(a.sequence.joint_rots, b.sequence.joint_rots)
        np.testing.assert_array_equal(a.sequence.root_pos, b.sequence.root_pos)
        assert a.per_frame_losses == b.per_frame_losses

    def test_empty_meshes_warn_and_flag(self, humanoid):
        seq = held_box_motion(humanoid, frames=3)
        far = MotionSequence(
            fps=seq.fps,
            root_pos=seq.root_pos,
            root_rot=seq.root_rot,
            joint_rots=seq.joint_rots,
            obj_pos=seq.obj_pos + 100.0,
            obj_rot=seq.obj_rot,
        )
        shape = ShapeParams.ones(humanoid.joint_count)
        with pytest.warns(UserWarning, match="degenerate"):
            result = retarget_sequence(
                far, humanoid, shape, humanoid, shape, make_box(), self._quick_cfg()
            )
        assert all(f.mesh_empty for f in result.per_frame_losses)

    def test_joint_count_mismatch(self, humanoid, box):
        seq = held_box_motion(humanoid, frames=2)
        with pytest.raises(DataError, match="joints"):
            retarget_sequence(
                seq,
                humanoid,
                ShapeParams.ones(humanoid.joint_count),
                make_chain(4),
                ShapeParams.ones(4),
                box,
            )


class TestSeveralTargets:
    """retarget_sequence onto several targets returns, per target, what a
    call with that target alone returns, or the error it raises."""

    def test_each_target_gets_its_solo_result(self, humanoid, box):
        seq = held_box_motion(humanoid, frames=5, amplitude=0.2)
        n = humanoid.joint_count
        ones = ShapeParams.ones(n)
        targets = [
            (humanoid, ShapeParams(bone_scales=np.full(n, 1.2))),
            (make_humanoid(q_limit=0.3), ShapeParams(bone_scales=np.linspace(0.9, 1.2, n))),
            (replace(humanoid, foot_joints=frozenset({16})), ShapeParams(bone_scales=np.full(n, 0.9))),
            (make_chain(4), ShapeParams.ones(4)),
            (replace(humanoid, rest_offsets=humanoid.rest_offsets * 1.15), ones),  # another tree
        ]
        cfg = RetargetConfig()
        together = retarget_sequence(seq, humanoid, ones, [t[0] for t in targets], [t[1] for t in targets], box, cfg)
        assert isinstance(together[-2], DataError) and "joints" in str(together[-2])
        assert isinstance(together[-1], DataError) and "another joint tree" in str(together[-1])
        iterations = self._check_solo(seq, humanoid, box, cfg, targets[:-2], together)
        assert len(iterations) == 3

    def test_frames_without_a_mesh(self, humanoid):
        # a tight proximity gate leaves frames 0 and 3 without a mesh; there a
        # footed target's kept pass must not serve a footless one that has
        # further steps to take (its velocity limits bind)
        seq = held_box_motion(humanoid, frames=6, amplitude=0.2)
        n = humanoid.joint_count
        ones = ShapeParams.ones(n)
        targets = [
            (humanoid, ShapeParams(bone_scales=np.full(n, 1.2))),
            (replace(make_humanoid(v_limit=1.0), foot_joints=frozenset()), ShapeParams(bone_scales=np.full(n, 0.9))),
        ]
        cfg = RetargetConfig(temporal_weight=5.0, retention=RetentionRule(proximity_gate=0.15))
        box = make_box()
        together = retarget_sequence(seq, humanoid, ones, [t[0] for t in targets], [t[1] for t in targets], box, cfg)
        self._check_solo(seq, humanoid, box, cfg, targets, together)
        assert [f.mesh_empty for f in together[0].per_frame_losses] == [True, False, False, True, False, False]
        assert together[0].per_frame_losses[3].iterations < together[1].per_frame_losses[3].iterations

    def _check_solo(self, seq, source, box, cfg, targets, together):
        """Assert each target's lockstep result is its solo one; return the
        solo runs' iteration counts."""
        ones = ShapeParams.ones(source.joint_count)
        iterations = set()
        for (skeleton, shape), joint in zip(targets, together):
            alone = retarget_sequence(seq, source, ones, skeleton, shape, box, cfg)
            for name in ("root_pos", "root_rot", "joint_rots"):
                assert getattr(joint.sequence, name).tobytes() == getattr(alone.sequence, name).tobytes()
            assert joint.per_frame_losses == alone.per_frame_losses
            iterations.add(alone.iterations)
        return iterations

    def test_shapes_must_pair_with_skeletons(self, humanoid, box):
        seq = held_box_motion(humanoid, frames=2)
        ones = ShapeParams.ones(humanoid.joint_count)
        with pytest.raises(DataError, match="2 target skeletons with 1 target shapes"):
            retarget_sequence(seq, humanoid, ones, [humanoid, humanoid], [ones], box)


def turned(seq: MotionSequence, angle: float) -> tuple[MotionSequence, np.ndarray]:
    """The whole scene turned by angle about the world z axis, and the turn."""
    q = quat_from_expmap((0.0, 0.0, angle))
    rot = quat_to_mat(q)
    return replace(
        seq,
        root_pos=seq.root_pos @ rot.T,
        root_rot=np.stack([quat_mul(q, r) for r in seq.root_rot]),
        obj_pos=seq.obj_pos @ rot.T,
        obj_rot=np.stack([quat_mul(q, r) for r in seq.obj_rot]),
    ), rot


class TestHeadingInvariance:
    """The solver steps the root rotation on the rotation manifold, so a
    scene turned about z retargets to the turned result. Stepping raw
    quaternion components made the solve depend on the heading."""

    GATE_OFF = RetargetConfig(retention=RetentionRule(proximity_gate=None))

    def _pair(self, humanoid, box, target):
        ones = ShapeParams.ones(humanoid.joint_count)
        seq = held_box_motion(humanoid, frames=30, amplitude=0.04)
        seq_turned, rot = turned(seq, 0.7)
        results = [retarget_sequence(s, humanoid, ones, target, ones, box, self.GATE_OFF)
                   for s in (seq, seq_turned)]
        joints = [fk_sequence(target, ones, r.sequence) for r in results]
        assert np.max(np.abs(joints[0] @ rot.T - joints[1])) < 1e-6
        for result in results:
            assert all(f.converged for f in result.per_frame_losses)
            np.testing.assert_allclose(np.linalg.norm(result.sequence.root_rot, axis=1), 1.0, rtol=0, atol=1e-12)
        return results

    def test_identity_target(self, humanoid, box):
        plain, turned_result = self._pair(humanoid, box, humanoid)
        assert plain.iterations == turned_result.iterations

    def test_scaled_target(self, humanoid, box):
        target = replace(humanoid, rest_offsets=humanoid.rest_offsets * 1.15)
        plain, turned_result = self._pair(humanoid, box, target)
        assert abs(plain.iterations - turned_result.iterations) <= 2
        totals = [sum(f.total for f in r.per_frame_losses) for r in (plain, turned_result)]
        assert totals[1] == pytest.approx(totals[0], rel=1e-9)

    def test_scaled_target_under_the_default_gate_converges(self, humanoid, box):
        target = replace(humanoid, rest_offsets=humanoid.rest_offsets * 1.15)
        ones = ShapeParams.ones(humanoid.joint_count)
        seq = held_box_motion(humanoid, frames=25)
        result = retarget_sequence(seq, humanoid, ones, target, ones, box, RetargetConfig())
        assert not any(f.iterations == OptimizerConfig().max_iterations for f in result.per_frame_losses)


class TestSourcePrediction:
    """Each frame is predicted from the previous solution moved by the
    source's own change, warm-started there and held to it by the temporal
    term, so identity retargeting sits at its fixed point."""

    STRICT_GATE_OFF = RetargetConfig(retention=RetentionRule(mode="strict", proximity_gate=None))

    def test_prediction_adds_the_source_change(self, rng):
        skel = make_chain(4)
        x_prev, s_prev, s_next = (pose_to_vector(random_pose(skel, rng)) for _ in range(3))
        pred = predict_frame(x_prev, s_prev, s_next)
        np.testing.assert_allclose(pred[:3], x_prev[:3] + s_next[:3] - s_prev[:3], rtol=0, atol=1e-15)
        np.testing.assert_allclose(pred[7:], x_prev[7:] + s_next[7:] - s_prev[7:], rtol=0, atol=1e-15)
        # the root turns by the source's relative rotation, from the previous solution
        relative = quat_to_mat(s_prev[3:7]).T @ quat_to_mat(s_next[3:7])
        np.testing.assert_allclose(quat_to_mat(pred[3:7]), quat_to_mat(x_prev[3:7]) @ relative, atol=1e-12)
        assert pred[3:7] @ x_prev[3:7] >= 0.0
        # the signs of the source quaternions do not matter
        signs = np.ones_like(s_prev)
        signs[3:7] = -1.0
        np.testing.assert_array_equal(predict_frame(x_prev, s_prev * signs, s_next), pred)
        np.testing.assert_array_equal(predict_frame(x_prev, s_prev, s_next * signs), pred)

    def _identity(self, humanoid, box, phase):
        """Criterion 01's clip, its arms' sine started at phase, retargeted
        onto its own skeleton: the result and the largest joint deviation."""
        ones = ShapeParams.ones(humanoid.joint_count)
        seq = held_box_motion(humanoid, frames=100, amplitude=0.04, phase=phase)
        result = retarget_sequence(seq, humanoid, ones, humanoid, ones, box, self.STRICT_GATE_OFF)
        joints = [fk_sequence(humanoid, ones, s) for s in (seq, result.sequence)]
        return result, float(np.linalg.norm(joints[0] - joints[1], axis=2).max())

    def test_identity_phase_one_within_criterion_01(self, humanoid, box):
        # lagging the previous solution deviated 1.119e-3 m here
        assert self._identity(humanoid, box, 1.0)[1] < 1e-3

    @pytest.mark.parametrize("phase", [0.0, 1.0])
    def test_identity_is_a_fixed_point(self, humanoid, box, phase):
        result, deviation = self._identity(humanoid, box, phase)
        assert deviation <= 1e-12
        assert all(f.iterations == 1 and f.converged for f in result.per_frame_losses)

    @pytest.mark.parametrize("scale", [1.0, 1.15])
    def test_sign_flipped_source_quaternions(self, humanoid, box, scale):
        # a scene turning about z, with every other source root quaternion negated
        target = replace(humanoid, rest_offsets=humanoid.rest_offsets * scale)
        ones = ShapeParams.ones(humanoid.joint_count)
        seq = held_box_motion(humanoid, frames=20, amplitude=0.1)
        turns = [quat_from_expmap((0.0, 0.0, 0.02 * t)) for t in range(seq.frame_count)]
        rots = quat_to_mat(np.stack(turns))
        seq = replace(
            seq,
            root_pos=np.einsum("tij,tj->ti", rots, seq.root_pos),
            root_rot=np.stack([quat_mul(q, r) for q, r in zip(turns, seq.root_rot)]),
            obj_pos=np.einsum("tij,tj->ti", rots, seq.obj_pos),
            obj_rot=np.stack([quat_mul(q, r) for q, r in zip(turns, seq.obj_rot)]),
        )
        signs = np.where(np.arange(seq.frame_count) % 2, -1.0, 1.0)[:, None]
        flipped = replace(seq, root_rot=seq.root_rot * signs)
        cfg = TestHeadingInvariance.GATE_OFF
        plain, other = (retarget_sequence(s, humanoid, ones, target, ones, box, cfg) for s in (seq, flipped))
        joints = [fk_sequence(target, ones, r.sequence) for r in (plain, other)]
        np.testing.assert_array_equal(joints[1], joints[0])
        np.testing.assert_array_equal(other.sequence.root_rot, plain.sequence.root_rot)
        assert other.iterations == plain.iterations


def one_frame(seq: MotionSequence, t: int) -> MotionSequence:
    return replace(seq, contacts=None, **{k: getattr(seq, k)[t: t + 1]
                                          for k in ("root_pos", "root_rot", "joint_rots", "obj_pos", "obj_rot")})


def assert_same_mesh(a, b) -> None:
    assert (a is None) == (b is None)
    if a is not None:
        assert a.points.provenance == b.points.provenance
        assert a.points.coordinates.tobytes() == b.points.coordinates.tobytes()
        assert a.tetrahedra.tobytes() == b.tetrahedra.tobytes()
        assert a.reference_laplacians.tobytes() == b.reference_laplacians.tobytes()


class TestFrameMeshes:
    @pytest.mark.parametrize("gate", [None, 0.5])
    def test_each_frame_equals_that_frame_built_alone(self, humanoid, box, gate):
        # 40 frames: three lockstep chunks, and with the gate, clouds of several sizes
        seq = held_box_motion(humanoid, frames=40, amplitude=0.2)
        partner = partner_motion(humanoid, seq)
        ones = ShapeParams.ones(humanoid.joint_count)
        joints, second = fk_sequence(humanoid, ones, seq), fk_sequence(humanoid, ones, partner)
        obj_world = object_world_vertices(box, seq, 64)
        cfg = RetargetConfig(retention=RetentionRule(proximity_gate=gate))
        world = build_frame_meshes(joints, second, obj_world, cfg)
        seeded = source_meshes(seq, humanoid, ones, box, cfg, second_seq=partner)
        assert all(mesh is not None for mesh in seeded)
        if gate is not None:
            assert len({mesh.points.coordinates.shape for mesh in seeded}) > 1
        for t in range(seq.frame_count):
            assert_same_mesh(world[t], build_interact_mesh(joints[t], second[t], obj_world[t], cfg.retention))
            alone = source_meshes(one_frame(seq, t), humanoid, ones, box, cfg, second_seq=one_frame(partner, t))
            assert_same_mesh(seeded[t], alone[0])


class TestSeededSourceMeshes:
    """source_meshes triangulates in the object's frame from the object's
    DelaunaySeed; the meshes must be those of world-frame builds."""

    @staticmethod
    def jittered_scene(humanoid, box, rng, frames=30):
        """The held-box clip with noisy joints, a turning object and a
        jittered box: no mirror symmetry and no cospherical ties."""
        seq = held_box_motion(humanoid, frames=frames, amplitude=0.2)
        t = np.linspace(0.0, 1.0, frames)[:, None]
        turn = np.array([quat_from_expmap(v) for v in t * (0.3, -0.2, 0.6)])
        seq = replace(seq, joint_rots=seq.joint_rots + rng.normal(scale=0.03, size=seq.joint_rots.shape),
                      obj_rot=turn)
        obj = ObjectMesh(vertices=box.vertices + rng.normal(scale=1e-3, size=box.vertices.shape),
                         faces=box.faces)
        return seq, obj

    @pytest.mark.parametrize("gate", [None, 0.5])
    def test_seeded_meshes_equal_world_frame_builds(self, humanoid, box, rng, monkeypatch, gate):
        seq, obj = self.jittered_scene(humanoid, box, rng)
        partner = partner_motion(humanoid, seq)
        ones = ShapeParams.ones(humanoid.joint_count)
        cfg = RetargetConfig(retention=RetentionRule(proximity_gate=gate))
        inserted = count_insertions(monkeypatch)
        seeded = source_meshes(seq, humanoid, ones, obj, cfg, second_seq=partner)
        assert inserted[0] == [56] and len(inserted) > 1
        assert not any(56 in sizes for sizes in inserted[1:])  # every later build started from the seed
        world = build_frame_meshes(fk_sequence(humanoid, ones, seq), fk_sequence(humanoid, ones, partner),
                                   object_world_vertices(obj, seq, 64), cfg)
        assert sum(m is not None for m in world) > 0
        for a, b in zip(seeded, world):
            assert (a is None) == (b is None)
            if a is None:
                continue
            assert a.points.provenance == b.points.provenance
            assert a.points.coordinates.tobytes() == b.points.coordinates.tobytes()
            np.testing.assert_array_equal(a.tetrahedra, b.tetrahedra)
            assert a.reference_laplacians.tobytes() == b.reference_laplacians.tobytes()

    def test_held_box_topology_is_delaunay_in_world_frame(self, humanoid, box, monkeypatch):
        spatial = pytest.importorskip("scipy.spatial")
        seq = held_box_motion(humanoid, frames=25)
        ones = ShapeParams.ones(humanoid.joint_count)
        cfg = RetargetConfig(retention=RetentionRule(proximity_gate=None))
        delaunay = []  # each frame's full tetrahedralization, as the benchmark captures it
        original = interactmesh.delaunay3d
        monkeypatch.setattr(interactmesh, "delaunay3d",
                            lambda *args, **kwargs: delaunay.append(original(*args, **kwargs)) or delaunay[-1])
        meshes = source_meshes(seq, humanoid, ones, box, cfg)
        assert len(delaunay) == len(meshes) == 25
        for mesh, tets in zip(meshes, delaunay):
            coords = mesh.points.coordinates  # world frame, in the order of the cloud triangulated
            assert empty_circumsphere_ok(coords, tets, rel_tol=1e-9)
            hull = spatial.ConvexHull(coords).volume
            volume = np.sum(np.abs(interactmesh.tet_volumes(coords, tets)))
            assert abs(volume - hull) <= 1e-9 * hull

    def test_object_inserted_once_per_clip(self, humanoid, box, rng, monkeypatch):
        seq, obj = self.jittered_scene(humanoid, box, rng)
        ones = ShapeParams.ones(humanoid.joint_count)
        cfg = RetargetConfig(retention=RetentionRule(proximity_gate=None))
        inserted = count_insertions(monkeypatch)
        source_meshes(seq, humanoid, ones, obj, cfg)
        # the object once, then every frame's joints, in lockstep passes of 15
        assert inserted == [[56], [20] * 15, [20] * 15]
        inserted.clear()
        source_meshes(seq, humanoid, ones, obj, cfg)  # a new clip on the same object reuses its seed
        assert inserted.count([56]) == 0

    def test_another_vertex_budget_gets_its_own_seed(self, humanoid, box, monkeypatch):
        seq = held_box_motion(humanoid, frames=3)
        ones = ShapeParams.ones(humanoid.joint_count)
        inserted = count_insertions(monkeypatch)
        for budget in (64, 40, 64, 40):
            source_meshes(seq, humanoid, ones, box, RetargetConfig(max_object_vertices=budget))
        # the whole box (56 vertices), then its 40-vertex subsample; each seed once
        assert [sizes for sizes in inserted if sizes in ([56], [40])] == [[56], [40]]


class TestSlideGates:
    def test_static_feet_gated(self, humanoid):
        seq = held_box_motion(humanoid, frames=5)
        joints = fk_sequence(humanoid, ShapeParams.ones(humanoid.joint_count), seq)
        gates = slide_gates(joints, humanoid, seq.dt, threshold=0.01)
        assert gates[0] == ()
        for t in range(1, 5):
            assert set(gates[t]) == humanoid.foot_joints  # legs never move

    def test_moving_feet_not_gated(self, humanoid):
        seq = held_box_motion(humanoid, frames=5)
        pos = seq.root_pos.copy()
        pos[:, 0] = np.linspace(0.0, 1.0, 5)  # fast horizontal root drive
        moving = MotionSequence(
            fps=seq.fps,
            root_pos=pos,
            root_rot=seq.root_rot,
            joint_rots=seq.joint_rots,
            obj_pos=seq.obj_pos,
            obj_rot=seq.obj_rot,
        )
        joints = fk_sequence(humanoid, ShapeParams.ones(humanoid.joint_count), moving)
        gates = slide_gates(joints, humanoid, moving.dt, threshold=0.01)
        for t in range(1, 5):
            assert gates[t] == ()


class TestNormalEquations:
    """A FrameStack of one target: its (J^T J, J^T r) against a dense
    reference, the stacked least-squares residuals and their
    central-difference Jacobian."""

    CFG = RetargetConfig(
        laplacian_weight=2.0, temporal_weight=0.5, foot_slide_weight=3.0,
        retention=RetentionRule(proximity_gate=None),
    )

    def _check(self, skel, shape, mesh, x_prev, x_pred, xi, feet):
        # xi is a tangent vector in the chart at x_pred's root rotation; the
        # temporal residual measures from x_pred, the slide anchor from x_prev
        cfg = self.CFG
        feet = np.asarray(feet, dtype=int)
        feet_ref = fk_vector(skel, shape, x_prev)[feet]
        stack = FrameStack([skel], [shape], x_prev[None], 1 / 30, [tuple(feet)], mesh, cfg, x_pred[None])
        anchor = stack.anchor[0]
        np.testing.assert_array_equal(anchor, x_pred[3:7])

        def residuals(v):
            stored = stored_vector(v, anchor)
            positions = fk_vector(skel, shape, stored)
            coords = target_point_cloud(mesh, positions)
            diff = laplacians(coords[mesh.tetrahedra]) - mesh.reference_laplacians
            return np.concatenate([
                np.sqrt(cfg.laplacian_weight) * diff.ravel(),
                np.sqrt(cfg.temporal_weight) * (stored - x_pred),
                np.sqrt(cfg.foot_slide_weight) * (positions[feet] - feet_ref).ravel(),
            ])

        r = residuals(xi)
        jac = central_difference(residuals, xi)
        jtj, jtr = stack.normal_equations(ONE, xi[None])
        assert relative_error(jtj[0], jac.T @ jac) < 1e-7
        assert relative_error(jtr[0], jac.T @ r) < 1e-7
        terms = stack.terms(ONE, stored_vector(xi, anchor)[None])
        assert stack.loss(ONE, xi[None])[0] == pytest.approx(float(r @ r) + terms["vlimit"][0], rel=1e-12)

    def _frame(self, humanoid, seq, t, rng):
        # a prediction away from the previous pose, a turned root (delta away
        # from the chart's origin) and moved joints
        x_prev = pose_to_vector(motion_frame_pose(seq, t - 1))
        x_pred = x_prev + rng.normal(0.0, 0.05, size=len(x_prev))
        x_pred[3:7] /= np.linalg.norm(x_pred[3:7])
        xi = tangent_vector(pose_to_vector(motion_frame_pose(seq, t)))
        xi[3:6] = rng.normal(0.0, 0.3, size=3)
        xi[6:] += rng.normal(0.0, 0.05, size=len(xi) - 6)
        return x_prev, x_pred, xi

    def test_held_box_frame_with_slide_feet(self, humanoid, box, rng):
        seq = held_box_motion(humanoid, frames=6, amplitude=0.2)
        ones = ShapeParams.ones(humanoid.joint_count)
        joints = fk_sequence(humanoid, ones, seq)
        world = object_world_vertices(box, seq, 64)
        t = 3
        mesh = build_frame_meshes(joints, None, world, self.CFG)[t]
        feet = slide_gates(joints, humanoid, seq.dt, 0.01)[t]
        assert feet == (16, 19)
        shape = ShapeParams(bone_scales=np.linspace(0.9, 1.2, humanoid.joint_count))
        self._check(humanoid, shape, mesh, *self._frame(humanoid, seq, t, rng), feet)

    def test_frame_with_second_agent(self, humanoid, box, rng):
        seq = held_box_motion(humanoid, frames=6, amplitude=0.2)
        ones = ShapeParams.ones(humanoid.joint_count)
        joints = fk_sequence(humanoid, ones, seq)
        partner = fk_sequence(humanoid, ones, partner_motion(humanoid, seq))
        world = object_world_vertices(box, seq, 64)
        t = 2
        mesh = build_frame_meshes(joints, partner, world, self.CFG)[t]
        assert any(kind == AGENT_B for kind, _ in mesh.points.provenance)
        self._check(humanoid, ones, mesh, *self._frame(humanoid, seq, t, rng), ())


class TestSlideFeetMask:
    """Targets with their own slide feet in one stack: the (K, J) mask gives
    each row what its target gets alone, and the slide term is the sum over
    that target's feet of ||p_f(x) - p_f(x_prev)||^2."""

    CFG = TestNormalEquations.CFG
    FEET = [(16, 19), (16,), (), (19,)]

    def test_rows_match_their_targets_alone(self, humanoid, box, rng):
        seq = held_box_motion(humanoid, frames=6, amplitude=0.2)
        ones = ShapeParams.ones(humanoid.joint_count)
        joints = fk_sequence(humanoid, ones, seq)
        mesh = build_frame_meshes(joints, None, object_world_vertices(box, seq, 64), self.CFG)[3]
        k = len(self.FEET)
        shapes = [ShapeParams(bone_scales=np.full(humanoid.joint_count, s)) for s in (0.9, 1.0, 1.1, 1.25)]
        x_prev = np.repeat(pose_to_vector(motion_frame_pose(seq, 2))[None], k, axis=0)
        x_pred = np.repeat(pose_to_vector(motion_frame_pose(seq, 3))[None], k, axis=0)
        xi = tangent_vector(x_pred) + rng.normal(0.0, 0.05, size=(k, x_pred.shape[1] - 1))
        stack = FrameStack([humanoid] * k, shapes, x_prev, seq.dt, self.FEET, mesh, self.CFG, x_pred)
        rows = np.arange(k)
        loss = stack.loss(rows, xi)
        jtj, jtr = stack.normal_equations(rows, xi)
        slide = stack.solution(rows, xi)[1]["slide"]
        some = np.array([1, 3])  # a subset of the rows answers as the whole stack does
        assert stack.loss(some, xi[some]).tobytes() == loss[some].tobytes()
        assert all(a.tobytes() == b[some].tobytes()
                   for a, b in zip(stack.normal_equations(some, xi[some]), (jtj, jtr)))
        for i, feet in enumerate(self.FEET):
            alone = FrameStack([humanoid], [shapes[i]], x_prev[i:i + 1], seq.dt, [feet], mesh, self.CFG,
                               x_pred[i:i + 1])
            assert alone.loss(ONE, xi[i:i + 1]).tobytes() == loss[i:i + 1].tobytes()
            alone_jtj, alone_jtr = alone.normal_equations(ONE, xi[i:i + 1])
            assert alone_jtj.tobytes() == jtj[i:i + 1].tobytes() and alone_jtr.tobytes() == jtr[i:i + 1].tobytes()
            x = stored_vector(xi[i], x_pred[i, 3:7])
            x[3:7] /= np.linalg.norm(x[3:7])
            moved = fk_vector(humanoid, shapes[i], x) - fk_vector(humanoid, shapes[i], x_prev[i])
            expected = self.CFG.foot_slide_weight * sum(float(moved[f] @ moved[f]) for f in feet)
            assert slide[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert (slide[i] > 0.0) == bool(feet)


def dense_stiffness(mesh, joint_count):
    """K_lap from the dense (J, M, 4) owner tensor: joint_lap[j, (m, s)] =
    d L[m, s] / d p_j is A = 4I - 11^T on agent A's slots, and K_lap =
    joint_lap @ joint_lap^T."""
    slot_joint = np.array([j if kind == AGENT_A else -1 for kind, j in mesh.points.provenance])
    tet_joints = slot_joint[mesh.tetrahedra]
    tet, slot = np.nonzero(tet_joints >= 0)
    owner = np.zeros((joint_count, mesh.tet_count, 4))
    owner[tet_joints[tet, slot], tet, slot] = 1.0
    joint_lap = (4.0 * owner - owner.sum(axis=2, keepdims=True)).reshape(joint_count, -1)
    return joint_lap @ joint_lap.T


class TestLaplacianStiffness:
    """K_lap summed tetrahedron by tetrahedron equals the dense product, byte
    for byte: its entries are small integers."""

    def _meshes(self, humanoid, box, rule, partner):
        seq = held_box_motion(humanoid, frames=6, amplitude=0.2)
        ones = ShapeParams.ones(humanoid.joint_count)
        joints = fk_sequence(humanoid, ones, seq)
        second = fk_sequence(humanoid, ones, partner_motion(humanoid, seq)) if partner else None
        return build_frame_meshes(joints, second, object_world_vertices(box, seq, 64),
                                  RetargetConfig(retention=rule))

    @pytest.mark.parametrize("mode, partner", [("strict", False), ("strict", True), ("loose", True)],
                             ids=["one-agent", "two-agent", "loose"])
    def test_matches_the_dense_formula(self, humanoid, box, mode, partner):
        meshes = self._meshes(humanoid, box, RetentionRule(mode=mode, proximity_gate=None), partner)
        assert all(mesh is not None for mesh in meshes)
        without_a = 0  # tetrahedra that hold agent B but no agent-A joint
        for mesh in meshes:
            stiffness = retarget._laplacian_stiffness(mesh, humanoid.joint_count)[1]
            expected = dense_stiffness(mesh, humanoid.joint_count)
            assert stiffness.tobytes() == expected.tobytes()
            kinds = np.array([kind for kind, _ in mesh.points.provenance])[mesh.tetrahedra]
            without_a += np.count_nonzero((kinds == AGENT_B).any(axis=1) & ~(kinds == AGENT_A).any(axis=1))
        # agent B's slots are left out, and a loose mesh holds tetrahedra with no agent-A joint
        assert (without_a > 0) == (mode == "loose")
        if partner:
            assert any(kind == AGENT_B for kind, _ in meshes[0].points.provenance)


class TestKinematicsReuse:
    """FrameStack keeps its last kinematics pass for the next evaluation at
    the same point, and serves it nowhere else."""

    CFG = TestNormalEquations.CFG

    def _model(self, humanoid, box, scales=None):
        """A FrameStack maker for frame 3 of a held-box clip, one target per
        bone-scale vector in scales, and the targets' start points."""
        seq = held_box_motion(humanoid, frames=6, amplitude=0.2)
        ones = ShapeParams.ones(humanoid.joint_count)
        joints = fk_sequence(humanoid, ones, seq)
        t = 3
        mesh = build_frame_meshes(joints, None, object_world_vertices(box, seq, 64), self.CFG)[t]
        feet = slide_gates(joints, humanoid, seq.dt, 0.01)[t]
        shapes = [ShapeParams(bone_scales=s) for s in scales or [np.linspace(0.9, 1.2, humanoid.joint_count)]]
        k = len(shapes)
        x_prev = np.repeat(pose_to_vector(motion_frame_pose(seq, t - 1))[None], k, axis=0)
        x_pred = np.repeat(pose_to_vector(motion_frame_pose(seq, t))[None], k, axis=0)

        def model():
            return FrameStack([humanoid] * k, shapes, x_prev, seq.dt, [feet] * k, mesh, self.CFG, x_pred)

        return model, tangent_vector(x_pred)

    def test_no_stale_pass_after_another_point(self, humanoid, box, rng):
        make, xi = self._model(humanoid, box)
        xi2 = xi + rng.normal(0.0, 0.05, size=xi.shape)
        model = make()
        model.loss(ONE, xi2)
        jtj, jtr = model.normal_equations(ONE, xi)
        fresh_jtj, fresh_jtr = make().normal_equations(ONE, xi)
        assert np.array_equal(jtj, fresh_jtj)
        assert np.array_equal(jtr, fresh_jtr)
        # and at the point the loss just evaluated, the kept pass gives a fresh stack's result
        model.loss(ONE, xi2)
        assert all(np.array_equal(a, b)
                   for a, b in zip(model.normal_equations(ONE, xi2), make().normal_equations(ONE, xi2)))

    def test_one_pass_per_distinct_point(self, humanoid, box, monkeypatch):
        make, xi = self._model(humanoid, box)
        model = make()
        passes = []
        original = kinematics._kinematics

        def counted(*args):
            passes.append(1)
            return original(*args)

        monkeypatch.setattr(kinematics, "_kinematics", counted)
        points, normal_calls = [], []

        def loss(rows, v):
            points.append(v.tobytes())
            return model.loss(rows, v)

        def normal_equations(rows, v):
            normal_calls.append(v.tobytes())
            return model.normal_equations(rows, v)

        result = levenberg_marquardt(normal_equations, loss, model.hinge_gradient, xi[0], self.CFG.optimizer)
        assert result.iterations > 1 and len(normal_calls) > 1
        assert set(normal_calls) <= set(points)  # the normal equations come at evaluated points
        distinct = sum(1 for k, p in enumerate(points) if k == 0 or p != points[k - 1])
        assert len(passes) == distinct

    def test_one_pass_per_lockstep_loss_call(self, humanoid, box, monkeypatch):
        # three targets in lockstep: a round asks for the normal equations of
        # the members whose trials it accepted, often a subset, at the point
        # the last loss call evaluated, so only loss calls run kinematics
        make, xi = self._model(humanoid, box, [np.full(humanoid.joint_count, s) for s in (0.9, 1.1, 1.25)])
        stack = make()
        passes, loss_calls, normal_rows = [], [], []
        original = kinematics._kinematics

        def counted(*args):
            passes.append(1)
            return original(*args)

        monkeypatch.setattr(kinematics, "_kinematics", counted)

        def loss(rows, v):
            loss_calls.append(rows)
            return stack.loss(rows, v)

        def normal_equations(rows, v):
            normal_rows.append(len(rows))
            return stack.normal_equations(rows, v)

        results = lockstep_levenberg_marquardt(normal_equations, loss, stack.hinge_gradient, xi,
                                               self.CFG.optimizer, stack.bounds)
        assert len({r.iterations for r in results}) > 1
        assert len(passes) == len(loss_calls)
        assert any(count < len(xi) for count in normal_rows)

    @staticmethod
    def _count_passes(monkeypatch) -> list:
        """Wrap retarget's stacked_kinematics; the list grows by one per pass."""
        passes = []
        original = kinematics.stacked_kinematics

        def counted(*args):
            passes.append(1)
            return original(*args)

        monkeypatch.setattr("retargetkit.retarget.stacked_kinematics", counted)
        return passes

    def test_identity_frame_costs_one_pass(self, humanoid, box, monkeypatch):
        # each frame starts at its optimum, so its one loss pass also serves
        # the normal equations, the zero step's trial and the frame's terms
        seq = held_box_motion(humanoid, frames=6)
        ones = ShapeParams.ones(humanoid.joint_count)
        cfg = RetargetConfig(retention=RetentionRule(mode="strict", proximity_gate=None))
        passes = self._count_passes(monkeypatch)
        result = retarget_sequence(seq, humanoid, ones, humanoid, ones, box, cfg)
        assert not any(f.mesh_empty for f in result.per_frame_losses)
        assert len(passes) == seq.frame_count

    def test_only_the_last_loss_calls_point_is_kept(self, humanoid, box, rng, monkeypatch):
        scales = [np.full(humanoid.joint_count, s) for s in (0.9, 1.1, 1.25)]
        make, xi = self._model(humanoid, box, scales)
        xi = xi + rng.normal(0.0, 0.05, size=xi.shape)  # a vector of its own per target
        stack = make()
        stack.loss(np.arange(3), xi)
        stack.loss(np.array([1]), xi[:1])  # target 1 at target 0's vector, in the call's slot 0
        passes = self._count_passes(monkeypatch)
        answer = stack.normal_equations(ONE, xi[:1])
        assert len(passes) == 1  # target 0 at xi[0] was evaluated, but not by the last call
        assert all(np.array_equal(a, b) for a, b in zip(answer, make().normal_equations(ONE, xi[:1])))

    def test_pass_kept_for_a_footed_target_without_a_mesh(self, humanoid, rng):
        # without a mesh, the two targets' losses share one pass, which only
        # the footed target's slide term needs; the footless target's normal
        # equations then equal its own frame's
        seq = held_box_motion(humanoid, frames=3)
        n = humanoid.joint_count
        x = pose_to_vector(motion_frame_pose(seq, 1))
        x_prev = np.stack([x, x])
        xi = tangent_vector(x_prev)
        xi += rng.normal(0.0, 0.05, size=xi.shape)
        skeletons = [humanoid, replace(humanoid, foot_joints=frozenset())]
        shapes = [ShapeParams.ones(n), ShapeParams(bone_scales=np.full(n, 1.1))]
        feet = [(16, 19), ()]
        stack = FrameStack(skeletons, shapes, x_prev, seq.dt, feet, None, self.CFG)
        stack.loss(np.array([0, 1]), xi)
        jtj, jtr = stack.normal_equations(np.array([1]), xi[1:])
        alone = FrameStack(skeletons[1:], shapes[1:], x[None], seq.dt, feet[1:], None, self.CFG)
        assert all(np.array_equal(a, b) for a, b in zip((jtj, jtr), alone.normal_equations(ONE, xi[1:])))
