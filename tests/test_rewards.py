import math
from dataclasses import fields, replace

import numpy as np
import pytest

from retargetkit.errors import DataError
from retargetkit.rewards import (
    DELTA_COMPONENTS,
    ObservationFrame,
    RewardConfig,
    compute_reward,
    contact_label,
    critic_loss,
    interaction_graph,
    observation_deltas,
    with_reference,
)
from retargetkit.rotations import quat_from_expmap, quat_to_mat

from conftest import make_box


def make_obs(j=4, rng=None, contacts=None, ang_vel=None):
    z = lambda *shape: np.zeros(shape)
    if rng is not None:
        gen = lambda *shape: rng.normal(size=shape)
    else:
        gen = z
    return ObservationFrame(
        joint_pos=gen(j, 3),
        joint_rot=gen(j - 1, 3),
        joint_lin_vel=gen(j, 3),
        joint_ang_vel=ang_vel if ang_vel is not None else gen(j - 1, 3),
        contacts=contacts if contacts is not None else np.zeros(j, dtype=int),
        obj_pos=gen(3),
        obj_rot=np.array([1.0, 0.0, 0.0, 0.0]),
        obj_lin_vel=gen(3),
        obj_ang_vel=gen(3),
        interaction_graph=gen(j, 3),
    )


def stack(frames):
    """One ObservationFrame holding the frames along a leading axis."""
    return ObservationFrame(**{f.name: np.stack([getattr(o, f.name) for o in frames])
                               for f in fields(ObservationFrame) if f.name != "deltas"})


def test_object_rotation_delta_ignores_quaternion_sign(rng):
    obs = make_obs(rng=rng)
    obs = replace(obs, obj_rot=np.array([0.5, 0.5, -0.5, 0.5]))
    flipped = replace(obs, obj_rot=-obs.obj_rot)
    deltas = observation_deltas(obs, flipped)
    assert not any(np.any(d) for d in deltas.values())
    reward, factors = compute_reward(with_reference(obs, flipped), np.zeros(4, dtype=int))
    assert factors["imitation"] == 1.0


class TestInteractionGraph:
    def test_nearest_of_two(self):
        ig = interaction_graph(np.zeros((1, 3)), np.array([[1.0, 0, 0], [0, 2.0, 0]]))
        np.testing.assert_allclose(ig[0], [1, 0, 0])

    def test_coincident_vertex_gives_zero(self):
        ig = interaction_graph(np.array([[0.5, 0.5, 0.5]]), np.array([[0.5, 0.5, 0.5]]))
        np.testing.assert_allclose(ig[0], 0.0)

    def test_matches_exhaustive_scan(self, rng):
        # brute-force nearest-neighbor oracle
        joints = rng.normal(size=(5, 3))
        verts = rng.normal(size=(20, 3))
        ig = interaction_graph(joints, verts)
        for j in range(5):
            dists = np.linalg.norm(verts - joints[j], axis=1)
            best = int(np.argmin(dists))
            np.testing.assert_allclose(ig[j], verts[best] - joints[j], atol=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        verts = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        ig = interaction_graph(np.zeros((1, 3)), verts)
        np.testing.assert_allclose(ig[0], [1, 0, 0])

    def test_empty_vertices(self):
        with pytest.raises(DataError):
            interaction_graph(np.zeros((1, 3)), np.zeros((0, 3)))

    def test_stack_matches_per_frame_calls(self, rng):
        joints = rng.normal(size=(4, 5, 3))
        verts = rng.normal(size=(4, 9, 3))
        # frame 2, joint 0 lies halfway between vertices 3 and 6, all others farther
        joints[2, 0] = 0.0
        verts[2] = 5.0 + rng.uniform(size=(9, 3))
        verts[2, 3], verts[2, 6] = (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)
        ig = interaction_graph(joints, verts)
        assert ig.shape == joints.shape
        for t in range(4):
            np.testing.assert_array_equal(ig[t], interaction_graph(joints[t], verts[t]))
        np.testing.assert_array_equal(ig[2, 0], [1.0, 0.0, 0.0])

    def test_one_object_broadcasts_over_frames(self, rng):
        joints = rng.normal(size=(3, 5, 3))
        verts = rng.normal(size=(9, 3))
        ig = interaction_graph(joints, verts)
        for t in range(3):
            np.testing.assert_array_equal(ig[t], interaction_graph(joints[t], verts))

    def test_picks_equal_the_einsum_formula(self, rng):
        # oracle: the formula the reward CSVs were written with, a difference
        # array contracted by einsum; near-ties are decided by its rounding
        def einsum_graph(joints, verts):
            diff = joints[..., :, None, :] - verts[..., None, :, :]
            d2 = np.einsum("...jvi,...jvi->...jv", diff, diff)
            nearest = np.argmin(d2, axis=-1)
            verts = np.broadcast_to(verts, d2.shape[:-2] + verts.shape[-2:])
            return np.take_along_axis(verts, nearest[..., None], axis=-2) - joints

        box = make_box(subdiv=3).vertices  # 4 x 4 x 4 surface grid, 56 vertices
        assert box.shape == (56, 3)
        turn = quat_to_mat(quat_from_expmap(np.array([0.3, -0.7, 0.5])))
        offset = np.array([0.4, -1.2, 0.9])
        # joints on the cube's symmetry planes (coordinate and diagonal planes)
        # lie nearly equidistant from mirrored vertices once both are turned
        on_planes = rng.uniform(-0.4, 0.4, size=(8, 30, 3))
        on_planes[:, :10, 0] = 0.0
        on_planes[:, 10:15, 1:] = 0.0
        on_planes[:, 15:20, 1] = on_planes[:, 15:20, 2]
        on_planes[:, 20:, 0] = -on_planes[:, 20:, 1]
        cases = [
            (rng.normal(size=(6, 20, 3)), rng.normal(size=(6, 56, 3))),
            (rng.normal(size=(6, 20, 3)), rng.normal(size=(56, 3))),
            (rng.normal(size=(20, 3)), rng.normal(size=(56, 3))),
            (rng.uniform(-0.4, 0.4, size=(8, 30, 3)) @ turn.T + offset, box @ turn.T + offset),
            (on_planes, box),
            (on_planes @ turn.T + offset, box @ turn.T + offset),
        ]
        for joints, verts in cases:
            np.testing.assert_array_equal(interaction_graph(joints, verts), einsum_graph(joints, verts))


class TestContactLabel:
    @pytest.mark.parametrize(
        "distance,label",
        [(0.05, 1), (0.10, 0), (0.25, -1), (0.07, 0), (0.2, 0), (0.0, 1), (0.069999, 1), (0.200001, -1),
         (math.inf, -1)],
    )
    def test_zones(self, distance, label):
        assert contact_label(distance) == label

    def test_negative_distance(self):
        with pytest.raises(DataError):
            contact_label(-0.01)

    def test_nan_distance(self):
        with pytest.raises(DataError, match="nonnegative"):
            contact_label(math.nan)

    def test_dense_grid_partitions_axis(self):
        cfg = RewardConfig()
        for d in np.linspace(0.0, 0.5, 2001):
            lab = contact_label(float(d), cfg)
            if d < cfg.contact_near:
                assert lab == 1
            elif d <= cfg.contact_far:
                assert lab == 0
            else:
                assert lab == -1


class TestComputeReward:
    def test_perfect_tracking_is_exactly_one(self):
        obs = make_obs()
        obs = with_reference(obs, obs)
        reward, factors = compute_reward(obs, np.zeros(4, dtype=int), None)
        assert reward == 1.0
        assert factors == {"imitation": 1.0, "contact": 1.0, "energy": 1.0}

    def test_single_delta_exponent(self):
        # lambda = 1, omega = 1, one delta of norm 0.5 -> R = e^-0.5
        obs = make_obs()
        deltas = {k: np.zeros(1) for k in DELTA_COMPONENTS}
        delta = np.zeros((4, 3))
        delta[0, 0] = 0.5
        deltas["joint_pos"] = delta
        from dataclasses import replace

        obs = replace(obs, deltas=deltas)
        reward, factors = compute_reward(obs, np.zeros(4, dtype=int), None)
        assert factors["imitation"] == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert reward == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_missed_contact_factor(self):
        # reference demands contact at joint 0, simulation misses it, lambda_c = 2
        obs = make_obs(contacts=np.array([0, 0, 0, 0]))
        obs = with_reference(obs, obs)
        ref = np.array([1, 0, 0, 0])
        reward, factors = compute_reward(obs, ref, None, RewardConfig(lambda_c=2.0))
        assert factors["contact"] == pytest.approx(np.exp(-2.0), abs=1e-12)
        assert reward == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_forbidden_contact_penalized(self):
        obs = make_obs(contacts=np.array([1, 0, 0, 0]))
        obs = with_reference(obs, obs)
        reward, factors = compute_reward(obs, np.array([-1, 0, 0, 0]), None)
        assert factors["contact"] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_buffer_zone_ignored(self):
        obs = make_obs(contacts=np.array([1, 1, 1, 1]))
        obs = with_reference(obs, obs)
        reward, factors = compute_reward(obs, np.zeros(4, dtype=int), None)
        assert factors["contact"] == 1.0

    def test_bounded_and_monotone(self, rng):
        obs0 = make_obs(rng=rng, contacts=np.zeros(4, dtype=int))
        ref0 = make_obs(rng=rng, contacts=np.zeros(4, dtype=int))
        obs = with_reference(obs0, ref0)
        for _ in range(200):
            r, factors = compute_reward(
                obs, rng.integers(-1, 2, size=4), rng.uniform(0, 50, size=3)
            )
            assert 0.0 < r <= 1.0
            assert all(0.0 < f <= 1.0 for f in factors.values())

    def test_monotone_in_each_penalty(self):
        # growing any single penalty quantity lowers R
        base = make_obs()
        base = with_reference(base, base)
        r0, _ = compute_reward(base, np.zeros(4, dtype=int), [1.0])
        r_force, _ = compute_reward(base, np.zeros(4, dtype=int), [2.0])
        assert r_force < r0

        vel = np.zeros((3, 3))
        vel[0, 0] = 1.0
        fast = make_obs(ang_vel=vel)
        fast = with_reference(fast, fast)
        r_fast, _ = compute_reward(fast, np.zeros(4, dtype=int), [1.0])
        assert r_fast < r0

    def test_energy_velocity_switch(self):
        vel = np.zeros((3, 3))
        vel[0, 0] = 2.0
        obs = make_obs(ang_vel=vel)
        obs = with_reference(obs, obs)
        r_ang, _ = compute_reward(obs, np.zeros(4, dtype=int), None)
        r_lin, _ = compute_reward(
            obs, np.zeros(4, dtype=int), None, RewardConfig(energy_velocity="linear")
        )
        assert r_ang < r_lin  # linear velocities are zero in this frame

    def test_non_finite_rejected(self):
        obs = make_obs()
        from dataclasses import replace

        bad = dict(observation_deltas(obs, obs))
        bad["obj_pos"] = np.array([np.nan, 0.0, 0.0])
        obs = replace(obs, deltas=bad)
        with pytest.raises(DataError):
            compute_reward(obs, np.zeros(4, dtype=int), None)


class TestStackedFrames:
    """A stack of T frames scores exactly as T single-frame calls."""

    @staticmethod
    def frames(rng, t, j):
        def one():
            obs = make_obs(j=j, rng=rng, contacts=rng.integers(0, 2, size=j))
            quat = rng.normal(size=4)
            return replace(obs, obj_rot=quat / np.linalg.norm(quat))

        return [one() for _ in range(t)], [one() for _ in range(t)]

    @pytest.mark.parametrize("energy_velocity", ["angular", "linear"])
    @pytest.mark.parametrize("with_forces", [False, True])
    def test_stack_equals_single_frame_calls(self, rng, energy_velocity, with_forces):
        t, j = 9, 5
        cfg = RewardConfig(lambda_delta=0.3, lambda_c=0.7, lambda_v=0.2, lambda_f=0.01,
                           omega={"joint_rot": 0.5, "obj_pos": 2.0, "interaction_graph": 1.5},
                           energy_velocity=energy_velocity)
        obs, refs = self.frames(rng, t, j)
        labels = rng.integers(-1, 2, size=(t, j))
        forces = rng.uniform(0.0, 20.0, size=(t, 3)) if with_forces else None
        rewards, factors = compute_reward(with_reference(stack(obs), stack(refs)), labels, forces, cfg)
        assert rewards.shape == (t,)
        assert np.all(rewards < 1.0)  # every delta is non-zero
        for k in range(t):
            reward, single = compute_reward(with_reference(obs[k], refs[k]), labels[k],
                                            None if forces is None else forces[k], cfg)
            assert type(reward) is np.float64 and all(type(f) is np.float64 for f in single.values())
            assert rewards[k] == reward
            assert {name: factors[name][k] for name in single} == single

    def test_stack_of_identical_frames_scores_one(self):
        frame = make_obs()
        obs = stack([frame] * 3)
        rewards, factors = compute_reward(with_reference(obs, obs), np.zeros((3, 4), dtype=int))
        assert rewards.tolist() == [1.0] * 3
        assert all(f.tolist() == [1.0] * 3 for f in factors.values())

    def test_stacked_contacts_must_match_joints(self):
        obs = stack([make_obs()] * 3)
        with pytest.raises(DataError, match="contact"):
            replace(obs, contacts=np.zeros((3, 5), dtype=int))
        with pytest.raises(DataError, match="interaction graph"):
            replace(obs, interaction_graph=np.zeros((2, 4, 3)))


class TestCriticLoss:
    def test_zero_residual(self):
        values = np.arange(6.0).reshape(2, 3)
        assert critic_loss(values, values) == 0.0

    def test_single_residual_squared(self):
        assert critic_loss(np.array([[2.0]]), np.array([[0.5]])) == pytest.approx(1.5**2)

    def test_matches_double_loop(self, rng):
        # brute-force loop oracle
        pred = rng.normal(size=(2, 3))
        rew = rng.normal(size=(2, 3))
        total = 0.0
        for a in range(2):
            for t in range(3):
                total += (pred[a, t] - rew[a, t]) ** 2
        assert critic_loss(pred, rew) == pytest.approx(total / 6.0, rel=1e-12)

    def test_permutation_invariance(self, rng):
        pred = rng.normal(size=(3, 5))
        rew = rng.normal(size=(3, 5))
        base = critic_loss(pred, rew)
        pa = rng.permutation(3)
        pt = rng.permutation(5)
        assert critic_loss(pred[pa], rew[pa]) == pytest.approx(base, rel=1e-12)
        assert critic_loss(pred[:, pt], rew[:, pt]) == pytest.approx(base, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            critic_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestRewardConfig:
    @pytest.mark.parametrize("weight", [True, False, "1.0", None, -1.0])
    def test_omega_weight_must_be_a_nonnegative_number(self, weight):
        with pytest.raises(DataError, match="omega"):
            RewardConfig(omega={"joint_pos": weight})

    def test_validation(self):
        with pytest.raises(DataError):
            RewardConfig(lambda_c=-1.0)
        with pytest.raises(DataError):
            RewardConfig(contact_near=0.3, contact_far=0.2)
        with pytest.raises(DataError):
            RewardConfig(omega={"bogus": 1.0})
        for weight in (float("nan"), float("inf")):
            with pytest.raises(DataError, match="omega"):
                RewardConfig(omega={"joint_pos": weight})
