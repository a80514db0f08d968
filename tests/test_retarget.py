import numpy as np
import pytest

from retargetkit import interactmesh
from retargetkit.errors import DataError
from retargetkit.interactmesh import RetentionRule, build_interact_mesh
from retargetkit.kinematics import (
    Pose,
    fk,
    fk_sequence,
    motion_frame_pose,
    pose_to_vector,
)
from retargetkit.motionio import MotionSequence, ShapeParams
from retargetkit.optim import OptimizerConfig
from retargetkit.retarget import (
    FrameContext,
    RetargetConfig,
    build_frame_meshes,
    eval_objective,
    mean_sequence_residual,
    object_world_vertices,
    objective_gradient,
    retarget_sequence,
    slide_gates,
)
from retargetkit.retarget import _gradient_core, _terms_core

from conftest import (
    central_difference,
    held_box_motion,
    make_chain,
    make_humanoid,
    random_pose,
    relative_error,
)


def chain_mesh(skeleton, pose, rng):
    """Small HOI mesh around a chain's current joint positions."""
    joints = fk(skeleton, ShapeParams.ones(skeleton.joint_count), pose)
    obj = joints.mean(axis=0) + rng.uniform(-0.2, 0.2, size=(4, 3)) + (0.15, 0.1, 0.05)
    return build_interact_mesh(joints, None, obj, RetentionRule(mode="loose", proximity_gate=None))


class TestEvalObjective:
    def test_identity_all_terms_zero(self, chain4, rng):
        shape = ShapeParams.ones(4)
        pose = random_pose(chain4, rng)
        mesh = chain_mesh(chain4, pose, rng)
        ctx = FrameContext(dt=1 / 30, slide_feet=())
        total, terms = eval_objective(pose, pose, ctx, chain4, shape, mesh)
        assert total == pytest.approx(0.0, abs=1e-18)
        assert all(v == pytest.approx(0.0, abs=1e-18) for v in terms.values())

    def test_joint_limit_hinge_value(self, chain4):
        # one axis 0.1 rad below q_min contributes exactly 0.1 at unit weight
        shape = ShapeParams.ones(4)
        rots = np.zeros((3, 3))
        rots[1, 0] = chain4.q_min[2, 0] - 0.1
        pose = Pose(np.zeros(3), np.array([1.0, 0, 0, 0]), rots)
        ctx = FrameContext(dt=1 / 30)
        _, terms = eval_objective(pose, pose, ctx, chain4, shape, None)
        assert terms["jlimit"] == pytest.approx(0.1, abs=1e-12)

    def test_velocity_limit_hinge_value(self, chain4):
        shape = ShapeParams.ones(4)
        dt = 1 / 30
        prev = Pose(np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros((3, 3)))
        rots = np.zeros((3, 3))
        rots[0, 1] = chain4.v_max[1] * dt + 0.05
        pose = Pose(np.zeros(3), np.array([1.0, 0, 0, 0]), rots)
        _, terms = eval_objective(pose, prev, FrameContext(dt=dt), chain4, shape, None)
        assert terms["vlimit"] == pytest.approx(0.05, abs=1e-12)
        # the same displacement also shows up in the temporal term
        assert terms["temporal"] == pytest.approx(rots[0, 1] ** 2, abs=1e-12)

    def test_empty_mesh_zeroes_laplacian(self, chain4, rng):
        shape = ShapeParams.ones(4)
        pose = random_pose(chain4, rng)
        total, terms = eval_objective(pose, pose, FrameContext(dt=0.01), chain4, shape, None)
        assert terms["laplacian"] == 0.0

    def test_weights_scale_terms(self, chain4, rng):
        shape = ShapeParams.ones(4)
        pose = random_pose(chain4, rng)
        prev = random_pose(chain4, rng)
        ctx = FrameContext(dt=1 / 30)
        _, base = eval_objective(pose, prev, ctx, chain4, shape, None)
        cfg = RetargetConfig(temporal_weight=2.5)
        _, scaled = eval_objective(pose, prev, ctx, chain4, shape, None, cfg)
        assert scaled["temporal"] == pytest.approx(2.5 * base["temporal"], rel=1e-12)


class TestObjectiveGradient:
    def test_zero_at_identity_minimum(self, chain4, rng):
        shape = ShapeParams.ones(4)
        pose = random_pose(chain4, rng)
        mesh = chain_mesh(chain4, pose, rng)
        ctx = FrameContext(dt=1 / 30, slide_feet=(3,))
        grad = objective_gradient(pose, pose, ctx, chain4, shape, mesh)
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
            ctx = FrameContext(dt=dt, slide_feet=(3,))
            x, x_prev = pose_to_vector(pose), pose_to_vector(prev)
            grad = _gradient_core(x, x_prev, ctx, skel, shape, mesh, cfg)
            fd = central_difference(
                lambda v: sum(_terms_core(v, x_prev, ctx, skel, shape, mesh, cfg).values()),
                x,
            ).ravel()
            assert relative_error(grad, fd) < 1e-4
            checked += 1

    def test_hinge_at_kink_contributes_zero(self, chain4):
        shape = ShapeParams.ones(4)
        rots = np.zeros((3, 3))
        rots[0, 0] = chain4.q_max[1, 0]  # exactly at the kink
        pose = Pose(np.zeros(3), np.array([1.0, 0, 0, 0]), rots)
        grad = objective_gradient(pose, pose, FrameContext(dt=0.01), chain4, shape, None)
        assert np.linalg.norm(grad) == 0.0


class TestRetargetSequence:
    def _quick_cfg(self):
        return RetargetConfig()

    def test_identity_reproduces_source(self, humanoid, box):
        # slow sway so the temporal-lag equilibrium sits well below tolerance
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
        from conftest import make_box

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


class TestTopologyReuse:
    @pytest.mark.parametrize("gate", [None, 0.5])
    def test_reused_frames_match_fresh_builds(self, humanoid, box, monkeypatch, gate):
        seq = held_box_motion(humanoid, frames=40, amplitude=0.05)
        joints = fk_sequence(humanoid, ShapeParams.ones(humanoid.joint_count), seq)
        obj_world = object_world_vertices(box, seq, 64)
        cfg = RetargetConfig(retention=RetentionRule(proximity_gate=gate))
        builds = []
        bowyer_watson = interactmesh._bowyer_watson
        monkeypatch.setattr(interactmesh, "_bowyer_watson",
                            lambda points, margin: builds.append(1) or bowyer_watson(points, margin))
        meshes = build_frame_meshes(joints, None, obj_world, cfg)
        assert len(builds) < len(meshes)  # some frames reused the previous topology
        for t, mesh in enumerate(meshes):
            fresh = build_interact_mesh(joints[t], None, obj_world[t], cfg.retention)
            assert mesh.points.provenance == fresh.points.provenance
            np.testing.assert_array_equal(mesh.delaunay, fresh.delaunay)
            np.testing.assert_array_equal(mesh.tetrahedra, fresh.tetrahedra)
            assert mesh.reference_laplacians.tobytes() == fresh.reference_laplacians.tobytes()


class TestMeshRebuildModes:
    def test_first_frame_reuses_topology(self, humanoid, box):
        seq = held_box_motion(humanoid, frames=8, amplitude=0.1)
        shape = ShapeParams.ones(humanoid.joint_count)
        joints = fk_sequence(humanoid, shape, seq)
        obj_world = object_world_vertices(box, seq, 64)
        cfg = RetargetConfig(mesh_rebuild="first-frame")
        meshes = build_frame_meshes(joints, None, obj_world, cfg)
        assert all(m is not None for m in meshes)
        for m in meshes[1:]:
            np.testing.assert_array_equal(m.tetrahedra, meshes[0].tetrahedra)
            assert m.points.provenance == meshes[0].points.provenance
        # reference laplacians still track each frame's source coordinates
        # (frame 2 sits at the sinusoid peak, away from the base pose)
        assert not np.allclose(meshes[0].reference_laplacians, meshes[2].reference_laplacians)
        from retargetkit.interactmesh import laplacians

        np.testing.assert_allclose(
            meshes[2].reference_laplacians,
            laplacians(meshes[2].points.coordinates[meshes[2].tetrahedra]),
            atol=1e-12,
        )

    def test_first_frame_retarget_runs(self, humanoid, box):
        seq = held_box_motion(humanoid, frames=5, amplitude=0.05)
        shape = ShapeParams.ones(humanoid.joint_count)
        cfg = RetargetConfig(mesh_rebuild="first-frame")
        result = retarget_sequence(seq, humanoid, shape, humanoid, shape, box, cfg)
        assert result.sequence.frame_count == 5
        assert not any(f.mesh_empty for f in result.per_frame_losses)


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
