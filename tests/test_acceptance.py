"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line with the measured quantity (run with
``pytest -s tests/test_acceptance.py`` to see them); a failed assertion means
the criterion is red.
"""

import time

import numpy as np
import pytest

from retargetkit.interactmesh import (
    RetentionRule,
    delaunay3d,
    laplacian,
    tet_volumes,
)
from retargetkit.kinematics import (
    fit_shape,
    fk,
    fk_jacobian_vector,
    fk_sequence,
    fk_vector,
    pose_to_vector,
    tangent_vector,
    tpose,
)
from retargetkit.motionio import ShapeParams
from retargetkit.pipeline import load_manifest, run_pipeline
from retargetkit.retarget import (
    FrameStack,
    RetargetConfig,
    build_frame_meshes,
    mean_sequence_residual,
    object_world_vertices,
    retarget_sequence,
)
from retargetkit.rewards import (
    RewardConfig,
    compute_reward,
    contact_label,
    with_reference,
)
from retargetkit.schedule import (
    ScheduleConfig,
    dagger_gate,
    filter_until_converged,
    lazy_student,
    loss_weight,
    make_filter_state,
    pd_teacher,
    point_mass_env,
    reward_mode,
    run_schedule,
)
from retargetkit.smoothing import second_diff_matrix, smooth_root

from conftest import (
    CARRY_BOX_HALF,
    expmap_to_mat,
    held_box_motion,
    make_box,
    make_chain,
    make_humanoid,
    partner_motion,
    random_pose,
    relative_error,
    tangent_difference,
)
from test_interactmesh import brute_hull_volume, empty_circumsphere_ok
from test_pipeline import write_corpus
from test_rewards import make_obs
from test_schedule import brute_force_filter
from test_smoothing import hand_solved_3point


def _report(criterion: int, message: str):
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_01_identity_retargeting():
    """Source skeleton = target skeleton on a 100-frame, 20-joint held-box
    sequence: max joint deviation < 1e-3 m, runtime < 60 s single-threaded."""
    skeleton = make_humanoid()
    assert skeleton.joint_count == 20
    shape = ShapeParams.ones(20)
    seq = held_box_motion(skeleton, frames=100, amplitude=0.04)
    box = make_box(half=CARRY_BOX_HALF, subdiv=3)
    # whole-body supervision: the proximity gate is optional and disabled here
    cfg = RetargetConfig(retention=RetentionRule(mode="strict", proximity_gate=None))

    start = time.perf_counter()
    result = retarget_sequence(seq, skeleton, shape, skeleton, shape, box, cfg)
    elapsed = time.perf_counter() - start

    deviation = np.max(
        np.linalg.norm(
            fk_sequence(skeleton, shape, seq) - fk_sequence(skeleton, shape, result.sequence),
            axis=2,
        )
    )
    assert deviation < 1e-3
    assert elapsed < 60.0
    _report(1, f"identity deviation {deviation:.2e} m < 1e-3, runtime {elapsed:.1f} s < 60 s")


def test_criterion_02_laplacian_algebra(rng):
    """Translation invariance < 1e-12, rotation equivariance < 1e-9, zero
    row-sum < 1e-9 over 1000 random tetrahedra."""
    worst_t = worst_r = worst_s = 0.0
    for _ in range(1000):
        p = rng.normal(size=(4, 3))
        c = rng.uniform(-1e3, 1e3, size=3)
        rot = expmap_to_mat(rng.uniform(-np.pi, np.pi, size=3))
        lap = laplacian(p)
        worst_t = max(worst_t, np.abs(laplacian(p + c) - lap).max())
        worst_r = max(worst_r, np.abs(laplacian(p @ rot.T) - lap @ rot.T).max())
        worst_s = max(worst_s, np.abs(lap.sum(axis=0)).max())
    assert worst_t < 1e-12
    assert worst_r < 1e-9
    assert worst_s < 1e-9
    _report(2, f"1000 tets: translation {worst_t:.1e}, rotation {worst_r:.1e}, row-sum {worst_s:.1e}")


def test_criterion_03_delaunay_correctness(rng):
    """Empty circumsphere at 1e-9 relative on 100 random 8-20-point clouds;
    total volume matches the brute-force hull oracle within 1e-6 relative on
    clouds of at most 12 points."""
    volume_checked = 0
    for trial in range(100):
        n = int(rng.integers(8, 21))
        pts = rng.uniform(-1, 1, size=(n, 3))
        tets = delaunay3d(pts)
        assert len(tets) > 0
        assert empty_circumsphere_ok(pts, tets, rel_tol=1e-9), f"cloud {trial} violates"
        if n <= 12:
            total = float(np.sum(np.abs(tet_volumes(pts, tets))))
            hull = brute_hull_volume(pts)
            assert abs(total - hull) / hull < 1e-6, f"cloud {trial} volume mismatch"
            volume_checked += 1
    assert volume_checked >= 20
    _report(3, f"100 clouds circumsphere-clean, {volume_checked} hull-volume matches")


def test_criterion_04_gradient_fidelity(rng):
    """fk_jacobian and FrameStack.gradient match central finite differences
    (step 1e-5) with relative error < 1e-4 on 10 random configurations per
    corpus skeleton, outside hinge-kink neighborhoods of radius 1e-4. Both
    are over the tangent at the pose, so the differences run through
    root_rot * exp(delta) at delta = 0."""
    corpus = [make_chain(2), make_chain(4, foot_joints=(3,)), make_humanoid()]
    cfg = RetargetConfig()
    one = np.zeros(1, dtype=int)  # the rows of a FrameStack of one target
    worst_fk = worst_obj = 0.0
    for skeleton in corpus:
        shape = ShapeParams.ones(skeleton.joint_count)
        checked = 0
        while checked < 10:
            pose = random_pose(skeleton, rng)
            prev = random_pose(skeleton, rng)
            x = pose_to_vector(pose)
            x_prev = pose_to_vector(prev)
            dt = 1.0 / 30.0
            r = pose.joint_rots
            dq = r - prev.joint_rots
            vstep = skeleton.v_max[1:, None] * dt
            kink = min(
                np.abs(skeleton.q_min[1:] - r).min(),
                np.abs(skeleton.q_max[1:] - r).min(),
                np.abs(dq - vstep).min(),
                np.abs(dq + vstep).min(),
            )
            if kink < 1e-4:
                continue
            fk_err = relative_error(
                fk_jacobian_vector(skeleton, shape, x)[1],
                tangent_difference(lambda v: fk_vector(skeleton, shape, v), x),
            )
            joints = fk(skeleton, shape, pose)
            obj_pts = joints.mean(axis=0) + rng.uniform(-0.3, 0.3, size=(5, 3))
            from retargetkit.interactmesh import build_interact_mesh

            mesh = build_interact_mesh(
                joints, None, obj_pts, RetentionRule(mode="loose", proximity_gate=None)
            )
            feet = tuple(sorted(skeleton.foot_joints))
            stack = FrameStack([skeleton], [shape], x_prev[None], dt, [feet], mesh, cfg, anchor=x[None, 3:7])
            grad = stack.gradient(one, tangent_vector(x)[None])[0]
            fd = tangent_difference(lambda v: sum(t[0] for t in stack.terms(one, v[None]).values()), x).ravel()
            obj_err = relative_error(grad, fd)
            assert fk_err < 1e-4
            assert obj_err < 1e-4
            worst_fk = max(worst_fk, fk_err)
            worst_obj = max(worst_obj, obj_err)
            checked += 1
    _report(4, f"worst FD relative error: fk {worst_fk:.1e}, objective {worst_obj:.1e}")


def test_criterion_05_sobolev_smoother(rng):
    """alpha = 0 identity (exact); constant fixed point < 1e-12; energy
    non-increase for alpha in {0.1, 1, 10, 100}; 3-point hand solve at 1e-10."""
    traj = rng.normal(size=(40, 3))
    np.testing.assert_array_equal(smooth_root(traj, 0.0), traj)

    const = np.tile([0.4, -1.0, 2.0], (25, 1))
    assert np.abs(smooth_root(const, 13.7) - const).max() < 1e-12

    jitter = np.cumsum(rng.normal(size=(60, 3)), axis=0) + 0.05 * rng.normal(size=(60, 3))
    d2 = second_diff_matrix(60)
    energy_in = float(np.sum((d2 @ jitter) ** 2))
    for alpha in (0.1, 1.0, 10.0, 100.0):
        out = smooth_root(jitter, alpha)
        assert float(np.sum((d2 @ out) ** 2)) <= energy_in

    hand = hand_solved_3point()
    out = smooth_root(np.array([[0.0], [1.0], [0.0]]), 1.0)
    hand_err = np.abs(out[:, 0] - hand).max()
    assert hand_err < 1e-10
    _report(5, f"identity/fixed-point/energy hold; hand-solve error {hand_err:.1e} < 1e-10")


def test_criterion_06_contact_zones():
    """Distances 0.05 / 0.10 / 0.25 m map to labels 1 / 0 / -1 exactly."""
    assert contact_label(0.05) == 1
    assert contact_label(0.10) == 0
    assert contact_label(0.25) == -1
    _report(6, "0.05 m -> 1, 0.10 m -> 0, 0.25 m -> -1")


def test_criterion_07_reward_bounds_and_monotonicity(rng):
    """R in (0, 1] on 10000 random valid inputs; R strictly decreases along
    each penalty axis; perfect tracking yields exactly 1."""
    obs = make_obs()
    obs = with_reference(obs, obs)
    reward, factors = compute_reward(obs, np.zeros(4, dtype=int), None)
    assert reward == 1.0

    for _ in range(10_000):
        sample = make_obs(rng=rng, contacts=rng.integers(0, 2, size=4))
        ref = make_obs(rng=rng, contacts=np.zeros(4, dtype=int))
        sample = with_reference(sample, ref)
        r, _ = compute_reward(sample, rng.integers(-1, 2, size=4), rng.uniform(0, 100, size=2))
        assert 0.0 < r <= 1.0

    def reward_at(delta=0.0, missed=0, speed=0.0, force=0.0):
        frame = make_obs()
        ang = np.zeros((3, 3))
        ang[0, 0] = speed
        from dataclasses import replace

        frame = replace(frame, joint_ang_vel=ang)
        frame = with_reference(frame, make_obs())
        deltas = dict(frame.deltas)
        d = np.zeros((4, 3))
        d[0, 0] = delta
        deltas["joint_pos"] = d
        frame = replace(frame, deltas=deltas)
        ref = np.zeros(4, dtype=int)
        ref[:missed] = 1  # demanded contacts that the zero indicators miss
        r, _ = compute_reward(frame, ref, [force])
        return r

    for axis, grid in (
        ("delta", [reward_at(delta=v) for v in (0.0, 0.3, 0.6, 1.2)]),
        ("missed contacts", [reward_at(missed=k) for k in (0, 1, 2, 3)]),
        ("speed", [reward_at(speed=v) for v in (0.0, 0.5, 1.0, 2.0)]),
        ("force", [reward_at(force=v) for v in (0.0, 1.0, 2.0, 4.0)]),
    ):
        for lo, hi in zip(grid[1:], grid[:-1]):
            assert lo < hi, f"reward not strictly decreasing in {axis}"
    _report(7, "10000 samples in (0, 1]; strict decrease along all four penalty axes; perfect = 1")


def test_criterion_08_schedule_formulas():
    """Gate values {1, 1, 0.5, 0, 0} at t in {0, kappa, kappa+eps/2, kappa+eps,
    kappa+eps+1} for kappa=5, eps=10; loss_weight == gate on 0..1000; reward
    mode flips exactly at T_imit."""
    cfg = ScheduleConfig(epsilon=10.0, kappa=5.0, t_imit=7, horizon=1)
    values = [dagger_gate(t, cfg) for t in (0, 5, 10, 15, 16)]
    assert values == [1.0, 1.0, 0.5, 0.0, 0.0]
    for t in range(0, 1001):
        assert loss_weight(t, cfg) == dagger_gate(t, cfg)
    assert reward_mode(6, cfg) == "imitation"
    assert reward_mode(7, cfg) == "trajectory"
    _report(8, "gate values exact; loss_weight == gate on 0..1000; mode flips at T_imit")


def test_criterion_09_schedule_simulator():
    """Seeded run with kappa=2, eps=2, rounds=6 reproduces gates
    [1, 1, 1, 0.5, 0, 0]; teacher fraction within 0.02 of the gate at
    H=10000; bit-identical logs across reruns."""
    cfg = ScheduleConfig(epsilon=2.0, kappa=2.0, t_imit=4, horizon=10, seed=11)
    log = run_schedule(pd_teacher(), lazy_student(), point_mass_env, cfg, rounds=6)
    gates = [r.gate for r in log.rounds]
    assert gates == [1.0, 1.0, 1.0, 0.5, 0.0, 0.0]
    assert all(r.teacher_fraction == 1.0 for r in log.rounds[:3])

    big = ScheduleConfig(epsilon=2.0, kappa=2.0, t_imit=4, horizon=10_000, seed=11)
    mc = run_schedule(pd_teacher(), lazy_student(), point_mass_env, big, rounds=4)
    frac = mc.rounds[3].teacher_fraction
    assert abs(frac - 0.5) < 0.02

    rerun = run_schedule(pd_teacher(), lazy_student(), point_mass_env, cfg, rounds=6)
    assert rerun == log
    _report(9, f"gate sequence exact; teacher fraction {frac:.4f} within 0.02 of 0.5; reruns identical")


def test_criterion_10_episode_length_filter(rng):
    """{10, 10, 100} converges to {100} with sigma trace [40, 100]; sigma
    monotone non-decreasing and termination within clip count on 100 random
    corpora; matches the brute-force oracle."""
    state = filter_until_converged(make_filter_state({"a": [10.0], "b": [10.0], "c": [100.0]}))
    assert {c.clip_id for c in state.retained} == {"c"}
    assert state.sigma_history == (40.0, 100.0)

    for _ in range(100):
        n = int(rng.integers(1, 60))
        lengths = {f"c{i}": [float(rng.integers(1, 1000))] for i in range(n)}
        result = filter_until_converged(make_filter_state(lengths))
        expected_ids, _ = brute_force_filter({k: v[0] for k, v in lengths.items()})
        assert {c.clip_id for c in result.retained} == expected_ids
        hist = result.sigma_history
        assert all(hist[i] <= hist[i + 1] + 1e-12 for i in range(len(hist) - 1))
        assert result.iteration <= n
    _report(10, "sigma trace [40, 100]; 100 random corpora match the brute-force oracle")


def test_criterion_11_laplacian_fidelity_over_copy_baseline():
    """On the x1.2-scaled-skeleton two-agent carry corpus, the optimized
    output's mean tetrahedron Laplacian residual is strictly below the
    copy-rotations baseline."""
    skeleton = make_humanoid()
    ones = ShapeParams.ones(skeleton.joint_count)
    scaled = ShapeParams(bone_scales=np.full(skeleton.joint_count, 1.2))
    seq = held_box_motion(skeleton, frames=20, amplitude=0.2)
    second = partner_motion(skeleton, seq)
    box = make_box(half=CARRY_BOX_HALF, subdiv=3)
    cfg = RetargetConfig()

    result = retarget_sequence(
        seq, skeleton, ones, skeleton, scaled, box, cfg, second_seq=second
    )
    src_joints = fk_sequence(skeleton, ones, seq)
    second_joints = fk_sequence(skeleton, ones, second)
    obj_world = object_world_vertices(box, seq, cfg.max_object_vertices)
    meshes = build_frame_meshes(src_joints, second_joints, obj_world, cfg)
    assert sum(m is not None for m in meshes) == len(meshes)

    copy_residual = mean_sequence_residual(meshes, skeleton, scaled, seq)
    optimized_residual = mean_sequence_residual(meshes, skeleton, scaled, result.sequence)
    assert optimized_residual < copy_residual
    _report(
        11,
        f"mean residual: optimized {optimized_residual:.4f} < copy baseline {copy_residual:.4f}",
    )


def test_criterion_12_pipeline_determinism(tmp_path):
    """Rerunning the pipeline on an identical manifest produces byte-identical
    outputs."""
    manifest_path = write_corpus(tmp_path, frames=5, entries=2,
                                 episode_stats={"seq0": [50.0], "seq1": [10.0]})
    manifest = load_manifest(manifest_path)
    run_pipeline(manifest)
    out_dir = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert first
    run_pipeline(manifest)
    second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert first == second
    _report(12, f"{len(first)} output files byte-identical across reruns")


@pytest.fixture
def rng():
    return np.random.default_rng(903212)
