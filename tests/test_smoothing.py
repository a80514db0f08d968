from fractions import Fraction

import numpy as np
import pytest

from retargetkit.errors import DataError
from retargetkit.motionio import MotionSequence
from retargetkit.rotations import average_quaternions, quat_from_expmap
from retargetkit.smoothing import (
    SmoothConfig,
    second_diff_matrix,
    second_difference_energy,
    smooth_root,
    smooth_rotations,
    solve_pentadiagonal_spd,
)


def hand_solved_3point():
    """Oracle: exact 3x3 solve of (I + M^T M) t* = (0, 1, 0), M = [1, -2, 1].

    A = [[2, -2, 1], [-2, 5, -2], [1, -2, 2]], det 7; Cramer gives
    t* = (2/7, 3/7, 2/7).
    """
    a = [[Fraction(2), Fraction(-2), Fraction(1)],
         [Fraction(-2), Fraction(5), Fraction(-2)],
         [Fraction(1), Fraction(-2), Fraction(2)]]
    b = [Fraction(0), Fraction(1), Fraction(0)]
    # gaussian elimination in exact arithmetic
    n = 3
    for col in range(n):
        piv = a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / piv
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
            b[r] -= f * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / a[r][r]
    return np.array([float(v) for v in x])


class TestSecondDiffMatrix:
    def test_n3_single_row(self):
        np.testing.assert_array_equal(second_diff_matrix(3), [[1.0, -2.0, 1.0]])

    def test_affine_sequence_maps_to_zero(self):
        t = 0.7 + 1.3 * np.arange(8)
        np.testing.assert_allclose(second_diff_matrix(8) @ t, 0.0, atol=1e-12)

    def test_quadratic_gives_constant_two(self):
        t = np.arange(9, dtype=float) ** 2
        np.testing.assert_allclose(second_diff_matrix(9) @ t, 2.0, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(DataError):
            second_diff_matrix(2)


class TestSmoothRoot:
    def test_alpha_zero_is_identity(self, rng):
        traj = rng.normal(size=(20, 3))
        np.testing.assert_array_equal(smooth_root(traj, 0.0), traj)

    def test_constant_trajectory_fixed_point(self):
        traj = np.tile([1.0, -2.0, 0.5], (15, 1))
        np.testing.assert_allclose(smooth_root(traj, 7.3), traj, atol=1e-12)

    def test_three_point_hand_solve(self):
        # oracle: exact-fraction linear solve
        expected = hand_solved_3point()
        np.testing.assert_allclose(expected, [2 / 7, 3 / 7, 2 / 7], atol=1e-15)
        traj = np.array([[0.0], [1.0], [0.0]])
        out = smooth_root(traj, 1.0)
        np.testing.assert_allclose(out[:, 0], expected, atol=1e-10)

    def test_matches_dense_solve(self, rng):
        # oracle: dense linear algebra on the explicitly assembled system
        n = 40
        traj = rng.normal(size=(n, 3))
        alpha = 3.7
        d2 = second_diff_matrix(n)
        dense = np.linalg.solve(np.eye(n) + alpha * d2.T @ d2, traj)
        np.testing.assert_allclose(smooth_root(traj, alpha), dense, atol=1e-9)

    def test_energy_non_increasing_and_monotone_in_alpha(self, rng):
        n = 60
        base = np.cumsum(rng.normal(size=(n, 3)), axis=0)
        jitter = base + 0.05 * rng.normal(size=(n, 3))
        e_in = second_difference_energy(jitter).sum()
        prev_dist = 0.0
        for alpha in (0.1, 1.0, 10.0, 100.0):
            out = smooth_root(jitter, alpha)
            assert second_difference_energy(out).sum() <= e_in
            dist = float(np.linalg.norm(out - jitter))
            assert dist >= prev_dist - 1e-12
            prev_dist = dist

    def test_large_alpha_approaches_affine(self, rng):
        n = 50
        traj = np.cumsum(rng.normal(size=(n, 3)), axis=0)
        out = smooth_root(traj, 1e6)
        d2_in = np.abs(second_diff_matrix(n) @ traj).max()
        d2_out = np.abs(second_diff_matrix(n) @ out).max()
        assert d2_out < 1e-3 * d2_in

    def test_short_trajectory_warns(self):
        traj = np.zeros((2, 3))
        with pytest.warns(UserWarning, match="unchanged"):
            out = smooth_root(traj, 1.0)
        np.testing.assert_array_equal(out, traj)

    def test_preserves_length(self, rng):
        traj = rng.normal(size=(31, 3))
        assert smooth_root(traj, 2.0).shape == traj.shape


class TestPentadiagonalSolver:
    def test_random_spd_systems(self, rng):
        for n in (3, 5, 17):
            d2 = second_diff_matrix(n)
            alpha = float(rng.uniform(0.1, 5.0))
            dense = np.eye(n) + alpha * d2.T @ d2
            main = np.diag(dense).copy()
            sub1 = np.diag(dense, -1).copy()
            sub2 = np.diag(dense, -2).copy()
            rhs = rng.normal(size=n)
            np.testing.assert_allclose(
                solve_pentadiagonal_spd(main, sub1, sub2, rhs),
                np.linalg.solve(dense, rhs),
                atol=1e-10,
            )


def _constant_motion(frames, joints, rot=(0.2, -0.1, 0.3)):
    return MotionSequence(
        fps=30.0,
        root_pos=np.zeros((frames, 3)),
        root_rot=np.tile(quat_from_expmap((0.1, 0.2, 0.0)), (frames, 1)),
        joint_rots=np.tile(rot, (frames, joints - 1, 1)),
        obj_pos=np.zeros((frames, 3)),
        obj_rot=np.tile((1.0, 0.0, 0.0, 0.0), (frames, 1)),
    )


class TestSmoothRotations:
    def test_window_one_is_identity(self):
        seq = _constant_motion(6, 4)
        out = smooth_rotations(seq, 1)
        np.testing.assert_array_equal(out.joint_rots, seq.joint_rots)

    def test_constant_sequence_unchanged(self):
        seq = _constant_motion(9, 4)
        out = smooth_rotations(seq, 5)
        np.testing.assert_allclose(out.joint_rots, seq.joint_rots, atol=1e-9)
        np.testing.assert_allclose(np.abs(np.sum(out.root_rot * seq.root_rot, axis=1)), 1.0, atol=1e-9)

    def test_jitter_energy_strictly_decreases(self, rng):
        # oracle: high-frequency energy sum ||x_{k+1} - x_k||^2 before/after
        frames = 40
        base = np.tile((0.4, 0.0, 0.1), (frames, 2, 1))
        jitter = 0.05 * (-1.0) ** np.arange(frames)
        rots = base + jitter[:, None, None] * np.array([1.0, 0.0, 0.0])
        seq = MotionSequence(
            fps=30.0,
            root_pos=np.zeros((frames, 3)),
            root_rot=np.tile((1.0, 0.0, 0.0, 0.0), (frames, 1)),
            joint_rots=rots,
            obj_pos=np.zeros((frames, 3)),
            obj_rot=np.tile((1.0, 0.0, 0.0, 0.0), (frames, 1)),
        )
        out = smooth_rotations(seq, 5)
        energy = lambda x: float(np.sum((x[1:] - x[:-1]) ** 2))
        assert energy(out.joint_rots) < energy(seq.joint_rots)

    def test_unwrapping_handles_angle_jumps(self):
        # same physical rotation expressed with a 2*pi offset must not average wildly
        frames = 5
        axis = np.array([0.0, 0.0, 1.0])
        angles = [0.1, 0.1, 0.1 - 2 * np.pi, 0.1, 0.1]
        rots = np.stack([a * axis for a in angles])[:, None, :]
        seq = MotionSequence(
            fps=30.0,
            root_pos=np.zeros((frames, 3)),
            root_rot=np.tile((1.0, 0.0, 0.0, 0.0), (frames, 1)),
            joint_rots=rots,
            obj_pos=np.zeros((frames, 3)),
            obj_rot=np.tile((1.0, 0.0, 0.0, 0.0), (frames, 1)),
        )
        out = smooth_rotations(seq, 3)
        # frame 1 averages {0.1, 0.1, 0.1-2pi re-expressed as 0.1} -> 0.1 about z
        np.testing.assert_allclose(out.joint_rots[1, 0], [0.0, 0.0, 0.1], atol=1e-9)

    def test_root_quaternions_stay_unit(self, rng):
        frames = 20
        rots = np.stack([quat_from_expmap(rng.normal(scale=0.3, size=3)) for _ in range(frames)])
        seq = MotionSequence(
            fps=30.0,
            root_pos=np.zeros((frames, 3)),
            root_rot=rots,
            joint_rots=np.zeros((frames, 3, 3)),
            obj_pos=np.zeros((frames, 3)),
            obj_rot=np.tile((1.0, 0.0, 0.0, 0.0), (frames, 1)),
        )
        out = smooth_rotations(seq, 7)
        np.testing.assert_allclose(np.linalg.norm(out.root_rot, axis=1), 1.0, atol=1e-9)

    def test_window_validation(self):
        seq = _constant_motion(5, 3)
        with pytest.raises(DataError):
            smooth_rotations(seq, 4)
        with pytest.raises(DataError):
            smooth_rotations(seq, 7)


def _unwrap_toward(e, center):
    """Oracle: the per-vector unwrapping rule, as smooth_rotations ran it one
    joint, frame and neighbour at a time."""
    theta = np.linalg.norm(e)
    if theta < 1e-12:
        return e
    axis = e / theta
    best = e
    best_d = np.linalg.norm(e - center)
    for k in (-2, -1, 1, 2):
        cand = (theta + 2.0 * np.pi * k) * axis
        d = np.linalg.norm(cand - center)
        if d < best_d:
            best, best_d = cand, d
    return best


def _smooth_rotations_oracle(seq, window):
    """Oracle: the frame-by-frame, joint-by-joint sliding-window filter."""
    if window == 1:
        return seq.joint_rots, seq.root_rot
    frames, half = seq.frame_count, window // 2
    joint_rots = np.empty_like(seq.joint_rots)
    root_rot = np.empty_like(seq.root_rot)
    for t in range(frames):
        reach = min(half, t, frames - 1 - t)
        lo, hi = t - reach, t + reach + 1
        for j in range(seq.joint_rots.shape[1]):
            center = seq.joint_rots[t, j]
            neighbors = np.stack([_unwrap_toward(seq.joint_rots[k, j], center) for k in range(lo, hi)])
            joint_rots[t, j] = neighbors.mean(axis=0)
        root_rot[t] = average_quaternions(seq.root_rot[lo:hi], ref_index=t - lo)
    return joint_rots, root_rot


def _random_motion(rng, frames, joints, max_angle):
    axes = rng.normal(size=(frames, joints - 1, 3))
    axes /= np.linalg.norm(axes, axis=2, keepdims=True)
    root_rot = rng.normal(size=(frames, 4))
    return MotionSequence(
        fps=30.0,
        root_pos=np.zeros((frames, 3)),
        root_rot=root_rot / np.linalg.norm(root_rot, axis=1, keepdims=True),
        joint_rots=axes * rng.uniform(0.0, max_angle, size=(frames, joints - 1, 1)),
        obj_pos=np.zeros((frames, 3)),
        obj_rot=np.tile((1.0, 0.0, 0.0, 0.0), (frames, 1)),
    )


class TestSmoothRotationsOracle:
    """The batched filter gives the per-vector rule's bits exactly."""

    @pytest.mark.parametrize("window", [1, 3, 5, 7])
    @pytest.mark.parametrize("extra_frames", [0, 1, 6])
    def test_random_large_rotations(self, rng, window, extra_frames):
        seq = _random_motion(rng, window + extra_frames, 6, max_angle=6.0)
        out = smooth_rotations(seq, window)
        joint_rots, root_rot = _smooth_rotations_oracle(seq, window)
        assert np.array_equal(out.joint_rots, joint_rots)
        assert np.array_equal(out.root_rot, root_rot)
        assert out.joint_rots.tobytes() == joint_rots.tobytes()  # the signs of zeros too

    def test_unwrapping_fires(self, rng):
        seq = _random_motion(rng, 12, 6, max_angle=6.0)
        plain = np.stack([seq.joint_rots[max(t - 2, 0) : t + 3].mean(axis=0) for t in range(2, 10)])
        assert not np.allclose(smooth_rotations(seq, 5).joint_rots[2:10], plain)

    @pytest.mark.parametrize("window", [3, 5, 7])
    def test_zero_rotations(self, window):
        seq = _constant_motion(window + 2, 4, rot=(0.0, 0.0, 0.0))
        out = smooth_rotations(seq, window)
        joint_rots, root_rot = _smooth_rotations_oracle(seq, window)
        assert out.joint_rots.tobytes() == joint_rots.tobytes()
        assert np.array_equal(out.root_rot, root_rot)

    def test_mixed_zero_and_near_pi_rotations(self, rng):
        seq = _random_motion(rng, 15, 5, max_angle=6.0)
        joint_rots = seq.joint_rots.copy()
        joint_rots[rng.random(joint_rots.shape[:2]) < 0.3] = 0.0
        flip = rng.random(joint_rots.shape[:2]) < 0.3
        joint_rots[flip] *= np.pi / np.linalg.norm(joint_rots[flip], axis=1, keepdims=True).clip(1e-300)
        seq = MotionSequence(fps=30.0, root_pos=seq.root_pos, root_rot=seq.root_rot, joint_rots=joint_rots,
                             obj_pos=seq.obj_pos, obj_rot=seq.obj_rot)
        out = smooth_rotations(seq, 5)
        assert out.joint_rots.tobytes() == _smooth_rotations_oracle(seq, 5)[0].tobytes()


class TestSmoothConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            SmoothConfig(alpha=-0.1)
        with pytest.raises(DataError):
            SmoothConfig(rotation_window=2)
